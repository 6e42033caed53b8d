module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Services = Encore_sysenv.Services

(* A few IANA-registered names used to verify Mime/Charset/Language
   without network access; the real tool consulted the IANA registries
   (paper Table 4). *)
let known_mime_prefixes =
  [ "text/"; "image/"; "audio/"; "video/"; "application/"; "multipart/"; "message/"; "font/" ]

let known_charsets =
  [ "utf-8"; "utf-16"; "iso-8859-1"; "iso-8859-15"; "us-ascii"; "ascii";
    "latin1"; "utf8"; "utf8mb4"; "koi8-r"; "windows-1251"; "windows-1252";
    "euc-jp"; "shift_jis"; "gb2312"; "big5" ]

let known_languages =
  [ "en"; "fr"; "de"; "es"; "it"; "pt"; "nl"; "ru"; "ja"; "zh"; "ko"; "sv";
    "no"; "da"; "fi"; "pl"; "cs"; "tr"; "ar"; "he"; "hi" ]

let image_free (t : Ctype.t) =
  match t with
  | Ctype.File_path | Ctype.User_name | Ctype.Group_name | Ctype.Port_number
  | Ctype.Custom _ ->
      false
  | Ctype.Partial_file_path | Ctype.File_name | Ctype.Ip_address | Ctype.Url
  | Ctype.Mime_type | Ctype.Charset | Ctype.Language | Ctype.Size | Ctype.Bool_t
  | Ctype.Permission | Ctype.Enum _ | Ctype.Number | Ctype.String_t ->
      true

let verify_value (t : Ctype.t) value =
  let v = String.trim value in
  match t with
  | Ctype.File_path | Ctype.User_name | Ctype.Group_name | Ctype.Port_number
  | Ctype.Custom _ ->
      false
  | Ctype.Partial_file_path ->
      (* fragment: verifiable only when some mount point completes it;
         accept if it resolves under any directory of the tree or under
         the common roots.  Cheap approximation: accept shape. *)
      not (Encore_util.Strutil.starts_with ~prefix:"/" v)
  | Ctype.File_name -> not (Encore_util.Strutil.contains_char v '/')
  | Ctype.Ip_address -> true (* shape-checked syntactically *)
  | Ctype.Url -> true
  | Ctype.Mime_type ->
      List.exists
        (fun p -> Encore_util.Strutil.starts_with ~prefix:p
                    (Encore_util.Strutil.lowercase_ascii v))
        known_mime_prefixes
  | Ctype.Charset ->
      List.mem (Encore_util.Strutil.lowercase_ascii v) known_charsets
  | Ctype.Language ->
      List.mem
        (Encore_util.Strutil.lowercase_ascii
           (match String.index_opt v '_' with
            | Some i -> String.sub v 0 i
            | None -> (
                match String.index_opt v '-' with
                | Some i -> String.sub v 0 i
                | None -> v)))
        known_languages
  | Ctype.Size -> Encore_util.Strutil.parse_size v <> None
  | Ctype.Bool_t -> true
  | Ctype.Permission -> (
      match int_of_string_opt ("0o" ^ v) with
      | Some _ -> true
      | None -> false)
  | Ctype.Enum allowed -> List.mem v allowed
  | Ctype.Number -> Encore_util.Strutil.parse_number v <> None
  | Ctype.String_t -> true

let verify (img : Image.t) (t : Ctype.t) value =
  match t with
  | Ctype.File_path -> Fs.exists img.fs (String.trim value)
  | Ctype.User_name -> Accounts.user_exists img.accounts (String.trim value)
  | Ctype.Group_name -> Accounts.group_exists img.accounts (String.trim value)
  | Ctype.Port_number -> (
      match int_of_string_opt (String.trim value) with
      | None -> false
      | Some p ->
          (* must be registered in the image's /etc/services; plain
             numbers otherwise stay Number *)
          Services.known_port img.services p)
  | Ctype.Custom name -> Custom_registry.verify img name (String.trim value)
  | Ctype.Partial_file_path | Ctype.File_name | Ctype.Ip_address | Ctype.Url
  | Ctype.Mime_type | Ctype.Charset | Ctype.Language | Ctype.Size | Ctype.Bool_t
  | Ctype.Permission | Ctype.Enum _ | Ctype.Number | Ctype.String_t ->
      verify_value t value

let infer_value img value =
  let rec first = function
    | [] -> Ctype.String_t
    | t :: rest -> if verify img t value then t else first rest
  in
  first (Syntactic.candidates value)
