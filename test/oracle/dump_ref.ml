(* The collector-dump decoder as it stood before the one-pass scanner
   in [Encore_sysenv.Collector]: the [@env] tail is copied out, split
   into a record list, and restored section by section with a [find]
   scan per host fact. *)

module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Services = Encore_sysenv.Services
module Hostinfo = Encore_sysenv.Hostinfo
module Image = Encore_sysenv.Image

type record = Encore_sysenv.Collector.record = {
  section : string;
  key : string;
  fields : string list;
}

let of_text text =
  Encore_util.Strutil.trim_lines text
  |> List.filter_map (fun line ->
         match String.split_on_char '|' line with
         | section :: key :: fields when section <> "" && key <> "" ->
             Some { section; key; fields }
         | _ -> None)

let find records ~section ~key =
  List.find_map
    (fun r -> if r.section = section && r.key = key then Some r.fields else None)
    records

(* --- restoration -------------------------------------------------------- *)

let restore_fs records =
  List.fold_left
    (fun fs r ->
      if r.section <> "FS" then fs
      else
        match r.fields with
        | [ kind; owner; group; perm; size; target ] -> (
            let perm = Option.value ~default:0o644 (int_of_string_opt ("0o" ^ perm)) in
            let size = Option.value ~default:0 (int_of_string_opt size) in
            match kind with
            | "dir" -> Fs.add_dir ~owner ~group ~perm fs r.key
            | "file" -> Fs.add_file ~owner ~group ~perm ~size fs r.key
            | "symlink" -> Fs.add_symlink ~owner ~group fs r.key ~target
            | _ -> fs)
        | _ -> fs)
    Fs.empty records

let restore_accounts records =
  (* groups first: [Accounts.add_user] invents a group when the user's
     gid has none yet, so replaying users before the dumped groups
     would materialize groups the serialized image never had and break
     the to_text/of_text round trip *)
  let accounts =
    List.fold_left
      (fun acc r ->
        if r.section <> "Acct.Group" then acc
        else
          match r.fields with
          | gid :: members -> (
              match int_of_string_opt gid with
              | Some ggid ->
                  Accounts.add_group acc { Accounts.gname = r.key; ggid; members }
              | None -> acc)
          | [] -> acc)
      Accounts.empty records
  in
  List.fold_left
    (fun acc r ->
      if r.section <> "Acct.User" then acc
      else
        match r.fields with
        | [ uid; gid; home; shell ] -> (
            match (int_of_string_opt uid, int_of_string_opt gid) with
            | Some uid, Some gid ->
                Accounts.add_user acc { Accounts.name = r.key; uid; gid; home; shell }
            | _ -> acc)
        | _ -> acc)
    accounts records

let restore_services records =
  List.fold_left
    (fun services r ->
      if r.section <> "Service" then services
      else
        match (int_of_string_opt r.key, r.fields) with
        | Some port, [ name ] -> Services.add services ~port ~name
        | _ -> services)
    Services.empty records

let field1 records ~section ~key ~default =
  match find records ~section ~key with
  | Some (v :: _) -> v
  | Some [] | None -> default

let restore ~id ~configs records =
  let fs = restore_fs records in
  let accounts = restore_accounts records in
  let services = restore_services records in
  let hostname = field1 records ~section:"Sys" ~key:"HostName" ~default:"localhost" in
  let ip_address = field1 records ~section:"Sys" ~key:"IPAddress" ~default:"10.0.0.1" in
  let fs_type = field1 records ~section:"Sys" ~key:"FSType" ~default:"ext4" in
  let os =
    {
      Hostinfo.dist_name = field1 records ~section:"OS" ~key:"DistName" ~default:"ubuntu";
      dist_version = field1 records ~section:"OS" ~key:"Version" ~default:"12.04";
      selinux =
        Option.value ~default:Hostinfo.Disabled
          (Hostinfo.selinux_of_string
             (field1 records ~section:"Sec" ~key:"SELinux" ~default:"disabled"));
    }
  in
  let int_field section key =
    int_of_string_opt (field1 records ~section ~key ~default:"")
  in
  let hardware =
    match
      ( int_field "HW" "Cores", int_field "HW" "Freq", int_field "HW" "Memory",
        int_field "HW" "DiskSize" )
    with
    | Some cpu_threads, Some cpu_freq_mhz, Some mem_bytes, Some disk_avail_bytes ->
        Some { Hostinfo.cpu_threads; cpu_freq_mhz; mem_bytes; disk_avail_bytes }
    | _ -> None
  in
  let env_vars =
    List.filter_map
      (fun r ->
        if r.section = "Env" then
          match r.fields with v :: _ -> Some (r.key, v) | [] -> None
        else None)
      records
  in
  Image.make ~hostname ~ip_address ~fs_type ~fs ~accounts ~services ~env_vars
    ~hardware ~os ~id configs

let image_magic = "ENCORE-IMAGE 1 "

(* "<word> <word> <rest>"; the rest may contain spaces. *)
let split3 s =
  match String.index_opt s ' ' with
  | None -> None
  | Some i -> (
      let first = String.sub s 0 i in
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      match String.index_opt tail ' ' with
      | None -> None
      | Some j ->
          let second = String.sub tail 0 j in
          let rest = String.sub tail (j + 1) (String.length tail - j - 1) in
          Some (first, second, rest))

let image_of_text text =
  let len = String.length text in
  let pos = ref 0 in
  let next_line () =
    if !pos >= len then None
    else begin
      let nl =
        match String.index_from_opt text !pos '\n' with
        | Some i -> i
        | None -> len
      in
      let line = String.sub text !pos (nl - !pos) in
      pos := nl + 1;
      Some line
    end
  in
  let strip_prefix p s =
    let pl = String.length p in
    if String.length s >= pl && String.sub s 0 pl = p then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  match next_line () with
  | None -> Error "empty image dump"
  | Some header -> (
      match strip_prefix image_magic header with
      | None -> Error "not an ENCORE-IMAGE dump (bad magic line)"
      | Some id ->
          let configs = ref [] in
          let flakiness = ref 0.0 in
          let rec headers () =
            match next_line () with
            | None -> Error "image dump truncated before @env"
            | Some "@env" -> Ok ()
            | Some line -> (
                match strip_prefix "@flakiness " line with
                | Some f -> (
                    match float_of_string_opt f with
                    | Some f ->
                        flakiness := f;
                        headers ()
                    | None -> Error ("bad @flakiness value: " ^ f))
                | None -> (
                    match strip_prefix "@config " line with
                    | None -> Error ("unrecognized header line: " ^ line)
                    | Some spec -> (
                        match split3 spec with
                        | None -> Error ("malformed @config line: " ^ line)
                        | Some (app, bytes, path) -> (
                            match
                              (Image.app_of_string app, int_of_string_opt bytes)
                            with
                            | Some app, Some n when n >= 0 && !pos + n <= len ->
                                let body = String.sub text !pos n in
                                pos := !pos + n;
                                (* the framing newline after the payload *)
                                if !pos < len && text.[!pos] = '\n' then
                                  incr pos;
                                configs :=
                                  { Image.app; path; text = body } :: !configs;
                                headers ()
                            | _ -> Error ("malformed @config line: " ^ line)))))
          in
          (match headers () with
          | Error _ as e -> e
          | Ok () -> (
              let records = of_text (String.sub text !pos (len - !pos)) in
              (* stay total on damaged dumps: a corrupted environment
                 record (e.g. control bytes spliced into a path) must
                 surface as a parse error, not an exception *)
              match restore ~id ~configs:(List.rev !configs) records with
              | img -> Ok (Image.with_flakiness img !flakiness)
              | exception Invalid_argument msg ->
                  Error ("corrupt image dump: " ^ msg))))
