(** Fault model for the injection experiment (paper section 7.1.1).

    Faults come in two families.  *Config faults* edit key/value pairs
    inside a configuration file — the scope ConfErr operates in, which
    the paper notes "does not touch other system locations".  *Env
    faults* perturb the environment relative to the configuration
    (ownership/permission flips, file-vs-directory swaps), reproducing
    the misconfiguration classes of Figure 1 and Table 9 that require
    environment reasoning to detect. *)

type config_fault =
  | Key_typo         (** misspell an entry name *)
  | Value_typo       (** mutate a value string *)
  | Wrong_path       (** point a path entry somewhere that does not exist *)
  | Path_to_file     (** point a directory-valued entry at a regular file *)
  | Wrong_user       (** set a user entry to a different, valid user *)
  | Value_swap       (** swap the values of two entries *)
  | Size_inversion   (** violate an a<b size pair by making a larger *)

type env_fault =
  | Chown_flip       (** give a config-referenced path to another owner *)
  | Perm_flip        (** remove read bits on a config-referenced path *)
  | Symlink_inject   (** drop a symlink into a served directory *)

type pipeline_fault =
  | Truncated_file   (** cut a config file short mid-write *)
  | Garbage_bytes    (** splice raw control bytes into a config file *)
  | Probe_flap       (** make every environment probe against the image fail *)

type durability_fault =
  | Truncate_snapshot   (** chop a snapshot file as a torn write would *)
  | Bitflip_snapshot    (** flip one bit of a snapshot at rest *)

type fault =
  | Config_fault of config_fault
  | Env_fault of env_fault
  | Pipeline_fault of pipeline_fault
      (** *Pipeline faults* damage the ingestion channel rather than the
          configuration semantics: the bytes on disk or the probe
          transport.  They never produce a plausible-but-wrong config,
          only an unreadable one, so the resilient pipeline must
          quarantine (not mis-learn from) their victims. *)
  | Durability_fault of durability_fault
      (** *Durability faults* attack the model artifacts on disk.  A
          durable store must detect the damage (typed load errors) and
          roll back to the newest intact snapshot. *)

val fault_to_string : fault -> string
val all_config_faults : config_fault list
val all_env_faults : env_fault list
val all_pipeline_faults : pipeline_fault list
val all_durability_faults : durability_fault list

type injection = {
  fault : fault;
  target_attr : string;   (** attribute whose setting the fault corrupts *)
  before : string;        (** value (or state) before *)
  after : string;
}

val injection_to_string : injection -> string
