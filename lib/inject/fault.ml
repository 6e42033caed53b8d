type config_fault =
  | Key_typo
  | Value_typo
  | Wrong_path
  | Path_to_file
  | Wrong_user
  | Value_swap
  | Size_inversion

type env_fault = Chown_flip | Perm_flip | Symlink_inject

type pipeline_fault = Truncated_file | Garbage_bytes | Probe_flap

type durability_fault = Truncate_snapshot | Bitflip_snapshot

type fault =
  | Config_fault of config_fault
  | Env_fault of env_fault
  | Pipeline_fault of pipeline_fault
  | Durability_fault of durability_fault

let fault_to_string = function
  | Config_fault Key_typo -> "key-typo"
  | Config_fault Value_typo -> "value-typo"
  | Config_fault Wrong_path -> "wrong-path"
  | Config_fault Path_to_file -> "path-to-file"
  | Config_fault Wrong_user -> "wrong-user"
  | Config_fault Value_swap -> "value-swap"
  | Config_fault Size_inversion -> "size-inversion"
  | Env_fault Chown_flip -> "chown-flip"
  | Env_fault Perm_flip -> "perm-flip"
  | Env_fault Symlink_inject -> "symlink-inject"
  | Pipeline_fault Truncated_file -> "truncated-file"
  | Pipeline_fault Garbage_bytes -> "garbage-bytes"
  | Pipeline_fault Probe_flap -> "probe-flap"
  | Durability_fault Truncate_snapshot -> "truncate-snapshot"
  | Durability_fault Bitflip_snapshot -> "bitflip-snapshot"

let all_config_faults =
  [ Key_typo; Value_typo; Wrong_path; Path_to_file; Wrong_user; Value_swap;
    Size_inversion ]

let all_env_faults = [ Chown_flip; Perm_flip; Symlink_inject ]
let all_pipeline_faults = [ Truncated_file; Garbage_bytes; Probe_flap ]

let all_durability_faults = [ Truncate_snapshot; Bitflip_snapshot ]

type injection = {
  fault : fault;
  target_attr : string;
  before : string;
  after : string;
}

let injection_to_string i =
  Printf.sprintf "%s on %s: '%s' -> '%s'"
    (fault_to_string i.fault)
    i.target_attr i.before i.after
