(** Stage checkpoints for crash-safe learning.

    {!Pipeline.learn_durable} persists its intermediate artifacts —
    the ingest survivor set, the survivors' folded sufficient
    statistics, and the learned model — after each stage, all
    through the atomic {!Encore_util.Snapshot} writer.  A run that is
    killed or times out can then resume, skip every completed stage,
    and still produce a byte-identical model: the stages downstream of
    a checkpoint are deterministic functions of its contents.

    Every checkpoint payload is keyed by a {!fingerprint} of the
    training population and the learning parameters.  A checkpoint
    whose fingerprint does not match the current run — or that fails
    snapshot verification, or does not parse — is treated as absent
    and its stage recomputed, so resume always converges on the same
    model as an uninterrupted run. *)

type stage = Ingest | Assemble | Model

val all_stages : stage list
(** In pipeline order. *)

val stage_to_string : stage -> string
val stage_of_string : string -> stage option

exception Simulated_crash of stage
(** Raised by the chaos harness's kill-at-checkpoint hook immediately
    after the given stage's checkpoint is written — never by normal
    pipeline execution. *)

type t
(** A checkpoint directory: one snapshot file per stage. *)

val create : dir:string -> t
(** Open (creating the directory if needed) a checkpoint directory. *)

val dir : t -> string

val stage_path : t -> stage -> string
(** Where the given stage's checkpoint lives ([<dir>/<stage>.ckpt]). *)

val fingerprint :
  config:Config.t ->
  custom:string option ->
  mode:string ->
  max_retries:int option ->
  Encore_sysenv.Image.t list ->
  string
(** Digest of the training population (every image's full content)
    and every parameter that can change the learned artifacts.  Two
    runs share checkpoints only when their fingerprints match. *)

val stage_fingerprint :
  fingerprint:string ->
  survivor_ids:string list ->
  quarantined_ids:string list ->
  string
(** The key for post-ingest (assemble/model) checkpoints: the run
    {!fingerprint} extended with the ids that survived and were
    quarantined by the ingest stage.  Binding later stages to the
    {e actual} image set means a [--resume] after a flaky run can never
    silently reuse an assemble/model checkpoint computed from a
    different survivor set than the one the current ingest produced. *)

(** What the ingest stage learned about the population; together with
    the input image list (re-supplied on resume) this reconstructs the
    survivor set and the ingest half of the report exactly. *)
type ingest_state = {
  survivor_ids : string list;  (** image ids that survived, input order *)
  quarantined : (string * Encore_util.Resilience.diagnostic list) list;
  warnings : Encore_util.Resilience.diagnostic list;
  retried : int;
  total_backoff_ms : int;
}

val save_ingest : t -> fingerprint:string -> ingest_state -> unit
val load_ingest : t -> fingerprint:string -> ingest_state option

val save_assemble :
  t -> fingerprint:string -> Encore_rules.Suffstats.t -> unit
(** The assemble stage's artifact is the folded statistics, stored as
    the statistics snapshot payload ([ENCORE-SUFFSTATS 1], see
    {!Stats_io}). *)

val load_assemble :
  t -> fingerprint:string -> Encore_rules.Suffstats.t option
(** A payload in any other format — such as the attribute table and
    type list older versions stored — is stale. *)

val save_model : t -> fingerprint:string -> Encore_detect.Detector.model -> unit
val load_model : t -> fingerprint:string -> Encore_detect.Detector.model option
