module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Prng = Encore_util.Prng

type builder = {
  mutable fs : Fs.t;
  mutable accounts : Accounts.t;
  mutable services : Encore_sysenv.Services.t;
  rng : Prng.t;
}

let base_dirs =
  [ "/etc"; "/etc/init.d"; "/var"; "/var/log"; "/var/run"; "/var/lib";
    "/var/www"; "/var/tmp"; "/usr"; "/usr/bin"; "/usr/sbin"; "/usr/lib";
    "/usr/local"; "/usr/local/lib"; "/usr/share"; "/tmp"; "/home"; "/opt";
    "/bin"; "/sbin"; "/root"; "/srv" ]

let base_files =
  [ ("/etc/passwd", 0o644); ("/etc/group", 0o644); ("/etc/services", 0o644);
    ("/etc/hosts", 0o644); ("/etc/hostname", 0o644); ("/etc/fstab", 0o644);
    ("/bin/sh", 0o755); ("/bin/bash", 0o755); ("/usr/bin/env", 0o755) ]

(* The tree every image starts from, built once: trees are immutable,
   and each [Fs.add] copies the tree it extends. *)
let base_fs =
  let fs = List.fold_left Fs.add_dir Fs.empty base_dirs in
  let fs =
    List.fold_left
      (fun fs (path, perm) -> Fs.add_file ~perm fs path)
      fs base_files
  in
  Fs.chmod fs "/tmp" ~perm:0o777

let create rng =
  { fs = base_fs; accounts = Accounts.base;
    services = Encore_sysenv.Services.base; rng }

let add_service_user b name =
  b.accounts <- Accounts.add_service_account b.accounts name;
  b.fs <- Fs.add_dir ~owner:name ~group:name b.fs ("/var/lib/" ^ name)

let mkdir ?owner ?group ?perm b path =
  b.fs <- Fs.add_dir ?owner ?group ?perm b.fs path

let mkfile ?owner ?group ?perm ?size b path =
  b.fs <- Fs.add_file ?owner ?group ?perm ?size b.fs path

let mklink b path ~target = b.fs <- Fs.add_symlink b.fs path ~target

let register_port b port name =
  b.services <- Encore_sysenv.Services.add b.services ~port ~name

let random_ip rng =
  match Prng.int rng 3 with
  | 0 -> Printf.sprintf "10.%d.%d.%d" (Prng.int rng 256) (Prng.int rng 256) (Prng.int_in rng 1 254)
  | 1 -> Printf.sprintf "192.168.%d.%d" (Prng.int rng 256) (Prng.int_in rng 1 254)
  | _ -> Printf.sprintf "172.%d.%d.%d" (Prng.int_in rng 16 31) (Prng.int rng 256) (Prng.int_in rng 1 254)

let host_words =
  [| "web"; "db"; "app"; "cache"; "api"; "build"; "mail"; "proxy"; "worker";
     "node"; "dev"; "prod"; "stage" |]

let random_hostname rng =
  Printf.sprintf "%s-%02d" (Prng.pick_arr rng host_words) (Prng.int rng 100)

let build ?(hardware = Some Encore_sysenv.Hostinfo.default_hardware)
    ?(env_vars = []) ?os b ~id configs =
  Encore_sysenv.Image.make
    ~hostname:(random_hostname b.rng)
    ~ip_address:(random_ip b.rng) ~fs:b.fs ~accounts:b.accounts
    ~services:b.services ~hardware ~env_vars ?os ~id configs
