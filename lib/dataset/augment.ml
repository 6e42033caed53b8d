module Ctype = Encore_typing.Ctype
module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Services = Encore_sysenv.Services
module Hostinfo = Encore_sysenv.Hostinfo

let file_path_suffixes =
  [ ".owner"; ".group"; ".type"; ".permission"; ".contents"; ".hasDir"; ".hasSymLink" ]

let ip_suffixes = [ ".Local"; ".IPv6"; ".AnyAddr" ]
let user_suffixes = [ ".isRootGroup"; ".isAdmin"; ".isGroup" ]
let port_suffixes = [ ".service"; ".privileged" ]
let size_suffixes = [ ".bytes" ]

let suffixes_for = function
  | Ctype.File_path -> file_path_suffixes
  | Ctype.Ip_address -> ip_suffixes
  | Ctype.User_name -> user_suffixes
  | Ctype.Port_number -> port_suffixes
  | Ctype.Size -> size_suffixes
  | Ctype.Partial_file_path | Ctype.File_name | Ctype.Group_name
  | Ctype.Url | Ctype.Mime_type | Ctype.Charset | Ctype.Language
  | Ctype.Bool_t | Ctype.Permission | Ctype.Enum _ | Ctype.Custom _
  | Ctype.Number | Ctype.String_t ->
      []

let all_suffixes =
  file_path_suffixes @ ip_suffixes @ user_suffixes @ port_suffixes @ size_suffixes

let augmented_type attr =
  let suffix_of s = Encore_util.Strutil.ends_with ~suffix:s attr in
  if suffix_of ".owner" then Ctype.User_name
  else if suffix_of ".group" || suffix_of ".isGroup" then Ctype.Group_name
  else if suffix_of ".type" then Ctype.Enum [ "dir"; "file"; "symlink"; "missing" ]
  else if suffix_of ".permission" then Ctype.Permission
  else if suffix_of ".contents" then Ctype.String_t
  else if suffix_of ".hasDir" || suffix_of ".hasSymLink" || suffix_of ".Local"
          || suffix_of ".IPv6" || suffix_of ".AnyAddr" || suffix_of ".isRootGroup"
          || suffix_of ".isAdmin" || suffix_of ".privileged"
  then Ctype.Bool_t
  else if suffix_of ".service" then Ctype.String_t
  else if suffix_of ".bytes" then Ctype.Number
  else Ctype.String_t

let is_augmented attr =
  List.exists (fun s -> Encore_util.Strutil.ends_with ~suffix:s attr) all_suffixes

let base_attr attr =
  match
    List.find_opt (fun s -> Encore_util.Strutil.ends_with ~suffix:s attr) all_suffixes
  with
  | Some suffix -> String.sub attr 0 (String.length attr - String.length suffix)
  | None -> attr

let bool_str b = if b then "True" else "False"

(* One typed attribute's augmentation names, [attr ^ suffix] in
   [suffixes_for] order, built once per attribute. *)
type typed = { ctype : Ctype.t; names : string array }

let typed attr ctype =
  { ctype; names = Array.of_list (List.map (fun s -> attr ^ s) (suffixes_for ctype)) }

let rec octal_length n k = if n < 8 then k + 1 else octal_length (n lsr 3) (k + 1)

let rec fill_octal b n i =
  Bytes.set b i (Char.chr (Char.code '0' + (n land 7)));
  if i > 0 then fill_octal b (n lsr 3) (i - 1)

(* [Printf.sprintf "%o"] for the non-negative permission bits an image
   carries *)
let octal n =
  if n < 0 then Printf.sprintf "%o" n
  else begin
    let b = Bytes.create (octal_length n 0) in
    fill_octal b n (Bytes.length b - 1);
    Bytes.unsafe_to_string b
  end

(* the common permissions, rendered once *)
let octal_small = Array.init 0o1000 octal

let permission n = if n >= 0 && n < 0o1000 then octal_small.(n) else octal n

let file_path_attrs (img : Image.t) names path =
  match Fs.lookup img.fs path with
  | None -> [ (names.(2), "missing") ]
  | Some (m : Fs.meta) -> (
      let kind =
        match m.kind with
        | Fs.Regular -> "file"
        | Fs.Directory -> "dir"
        | Fs.Symlink _ -> "symlink"
      in
      let base =
        [ (names.(0), m.owner); (names.(1), m.group); (names.(2), kind);
          (names.(3), permission m.perm) ]
      in
      match m.kind with
      | Fs.Directory ->
          base
          @ [ (names.(4), String.concat ";" (Fs.children img.fs path));
              (names.(5), bool_str (Fs.has_subdir img.fs path));
              (names.(6), bool_str (Fs.has_symlink img.fs path)) ]
      | Fs.Regular | Fs.Symlink _ -> base)

(* RFC 1918 private ranges plus loopback count as "Local". *)
let is_local_ip ip =
  Encore_util.Strutil.starts_with ~prefix:"10." ip
  || Encore_util.Strutil.starts_with ~prefix:"192.168." ip
  || Encore_util.Strutil.starts_with ~prefix:"127." ip
  ||
  (Encore_util.Strutil.starts_with ~prefix:"172." ip
  &&
  match String.split_on_char '.' ip with
  | _ :: second :: _ -> (
      match int_of_string_opt second with
      | Some v -> v >= 16 && v <= 31
      | None -> false)
  | _ -> false)

let ip_attrs names ip =
  let is_v6 = Encore_util.Strutil.contains_char ip ':' in
  let any = ip = "0.0.0.0" || ip = "::" || ip = "*" in
  [ (names.(0), bool_str (is_local_ip ip));
    (names.(1), bool_str is_v6);
    (names.(2), bool_str any) ]

let user_attrs (img : Image.t) names user =
  let primary =
    Option.value ~default:"" (Accounts.primary_group img.accounts user)
  in
  [ (names.(0), bool_str (Accounts.is_root_group img.accounts user));
    (names.(1), bool_str (Accounts.is_admin img.accounts user));
    (names.(2), primary) ]

let port_attrs (img : Image.t) names port_str =
  match int_of_string_opt port_str with
  | None -> []
  | Some p ->
      [ (names.(0),
         Option.value ~default:"unknown" (Services.service_of_port img.services p));
        (names.(1), bool_str (p < 1024)) ]

let size_attrs names v =
  match Encore_util.Strutil.parse_size v with
  | None -> []
  | Some bytes -> [ (names.(0), string_of_int bytes) ]

let augment t img value =
  match t.ctype with
  | Ctype.File_path -> file_path_attrs img t.names value
  | Ctype.Ip_address -> ip_attrs t.names value
  | Ctype.User_name -> user_attrs img t.names value
  | Ctype.Port_number -> port_attrs img t.names value
  | Ctype.Size -> size_attrs t.names value
  | Ctype.Partial_file_path | Ctype.File_name | Ctype.Group_name
  | Ctype.Url | Ctype.Mime_type | Ctype.Charset | Ctype.Language
  | Ctype.Bool_t | Ctype.Permission | Ctype.Enum _ | Ctype.Custom _
  | Ctype.Number | Ctype.String_t ->
      []

let globals (img : Image.t) =
  let base =
    [ ("Sys.IPAddress", img.ip_address);
      ("Sys.HostName", img.hostname);
      ("Sys.FSType", img.fs_type);
      ("Sys.Users",
       String.concat ";"
         (List.map (fun (u : Accounts.user) -> u.name) (Accounts.users img.accounts)));
      ("OS.DistName", img.os.dist_name);
      ("OS.Version", img.os.dist_version);
      ("OS.SEStatus", Hostinfo.selinux_to_string img.os.selinux) ]
  in
  let hw =
    match img.hardware with
    | None -> []
    | Some (h : Hostinfo.hardware) ->
        [ ("CPU.Threads", string_of_int h.cpu_threads);
          ("CPU.Freq", string_of_int h.cpu_freq_mhz);
          ("MemSize", string_of_int h.mem_bytes);
          ("HDD.AvailSpace", string_of_int h.disk_avail_bytes) ]
  in
  let env = List.map (fun (k, v) -> ("Env." ^ k, v)) img.env_vars in
  base @ hw @ env
