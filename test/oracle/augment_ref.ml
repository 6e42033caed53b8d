(* Environment augmentation as it stood before the shared augmenter in
   [Encore_dataset.Assemble]: [augment_row] scans the type environment
   per attribute, the target assembler hashes it per engine, and every
   augmentation name is concatenated per instance. *)

module Ctype = Encore_typing.Ctype
module Infer = Encore_typing.Infer
module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Services = Encore_sysenv.Services
module Kv = Encore_confparse.Kv
module Registry = Encore_confparse.Registry
module Row = Encore_dataset.Row

module Augment = struct
  let globals = Encore_dataset.Augment.globals

  let bool_str b = if b then "True" else "False"

  let file_path_attrs (img : Image.t) attr path =
    match Fs.lookup img.fs path with
    | None -> [ (attr ^ ".type", "missing") ]
    | Some (m : Fs.meta) ->
        let kind =
          match m.kind with
          | Fs.Regular -> "file"
          | Fs.Directory -> "dir"
          | Fs.Symlink _ -> "symlink"
        in
        let base =
          [ (attr ^ ".owner", m.owner);
            (attr ^ ".group", m.group);
            (attr ^ ".type", kind);
            (attr ^ ".permission", Printf.sprintf "%o" m.perm) ]
        in
        if kind = "dir" then
          let kids = Fs.children img.fs path in
          base
          @ [ (attr ^ ".contents", String.concat ";" kids);
              (attr ^ ".hasDir", bool_str (Fs.has_subdir img.fs path));
              (attr ^ ".hasSymLink", bool_str (Fs.has_symlink img.fs path)) ]
        else base

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

  let ip_attrs attr ip =
    let is_v6 = Encore_util.Strutil.contains_char ip ':' in
    let any = ip = "0.0.0.0" || ip = "::" || ip = "*" in
    [ (attr ^ ".Local", bool_str (is_local_ip ip));
      (attr ^ ".IPv6", bool_str is_v6);
      (attr ^ ".AnyAddr", bool_str any) ]

  let user_attrs (img : Image.t) attr user =
    let primary =
      Option.value ~default:"" (Accounts.primary_group img.accounts user)
    in
    [ (attr ^ ".isRootGroup", bool_str (Accounts.is_root_group img.accounts user));
      (attr ^ ".isAdmin", bool_str (Accounts.is_admin img.accounts user));
      (attr ^ ".isGroup", primary) ]

  let port_attrs (img : Image.t) attr port_str =
    match int_of_string_opt port_str with
    | None -> []
    | Some p ->
        [ (attr ^ ".service",
           Option.value ~default:"unknown" (Services.service_of_port img.services p));
          (attr ^ ".privileged", bool_str (p < 1024)) ]

  let size_attrs attr v =
    match Encore_util.Strutil.parse_size v with
    | None -> []
    | Some bytes -> [ (attr ^ ".bytes", string_of_int bytes) ]

  let entry img attr ctype value =
    match (ctype : Ctype.t) with
    | Ctype.File_path -> file_path_attrs img attr value
    | Ctype.Ip_address -> ip_attrs attr value
    | Ctype.User_name -> user_attrs img attr value
    | Ctype.Port_number -> port_attrs img attr value
    | Ctype.Size -> size_attrs attr value
    | Ctype.Partial_file_path | Ctype.File_name | Ctype.Group_name
    | Ctype.Url | Ctype.Mime_type | Ctype.Charset | Ctype.Language
    | Ctype.Bool_t | Ctype.Permission | Ctype.Enum _ | Ctype.Custom _
    | Ctype.Number | Ctype.String_t ->
        []
end

let augment_row ~types img base_row =
  let augmented =
    List.concat_map
      (fun (attr, value) ->
        match Infer.find types attr with
        | None -> []
        | Some decision -> Augment.entry img attr decision.Infer.ctype value)
      (Row.to_list base_row)
  in
  Row.of_list (Row.to_list base_row @ augmented @ Augment.globals img)

(* The serving-path variant of [augment_row]: the type environment is
   hashed once (first binding wins, like [Infer.find]) instead of being
   scanned per attribute on every call. *)
let target_assembler ~types =
  let tbl = Hashtbl.create (2 * List.length types + 1) in
  List.iter
    (fun (attr, (d : Infer.decision)) ->
      if not (Hashtbl.mem tbl attr) then Hashtbl.add tbl attr d)
    types;
  fun img ->
    (* the parsed pairs feed augmentation and the final row directly:
       Row.to_list (Row.of_list pairs) = pairs, so skipping the
       intermediate [parse_only] row changes nothing observable *)
    let pairs =
      List.map (fun (kv : Kv.t) -> (kv.key, kv.value)) (Registry.parse_image img)
    in
    let augmented =
      List.concat_map
        (fun (attr, value) ->
          match Hashtbl.find_opt tbl attr with
          | None -> []
          | Some decision -> Augment.entry img attr decision.Infer.ctype value)
        pairs
    in
    Row.of_list (pairs @ augmented @ Augment.globals img)
