type record = { section : string; key : string; fields : string list }

let fs_records fs =
  Fs.fold
    (fun path (m : Fs.meta) acc ->
      let kind, target =
        match m.kind with
        | Fs.Regular -> ("file", "")
        | Fs.Directory -> ("dir", "")
        | Fs.Symlink t -> ("symlink", t)
      in
      {
        section = "FS";
        key = path;
        fields =
          [ kind; m.owner; m.group; Printf.sprintf "%o" m.perm;
            string_of_int m.size; target ];
      }
      :: acc)
    fs []
  |> List.rev

let account_records accounts =
  let users =
    List.map
      (fun (u : Accounts.user) ->
        {
          section = "Acct.User";
          key = u.name;
          fields = [ string_of_int u.uid; string_of_int u.gid; u.home; u.shell ];
        })
      (Accounts.users accounts)
  in
  let groups =
    List.map
      (fun (g : Accounts.group) ->
        {
          section = "Acct.Group";
          key = g.gname;
          fields = string_of_int g.ggid :: g.members;
        })
      (Accounts.groups accounts)
  in
  users @ groups

let service_records services =
  List.map
    (fun port ->
      {
        section = "Service";
        key = string_of_int port;
        fields = [ Option.value ~default:"" (Services.service_of_port services port) ];
      })
    (Services.ports services)

let host_records (img : Image.t) =
  let base =
    [
      { section = "Sys"; key = "HostName"; fields = [ img.hostname ] };
      { section = "Sys"; key = "IPAddress"; fields = [ img.ip_address ] };
      { section = "Sys"; key = "FSType"; fields = [ img.fs_type ] };
      { section = "OS"; key = "DistName"; fields = [ img.os.dist_name ] };
      { section = "OS"; key = "Version"; fields = [ img.os.dist_version ] };
      { section = "Sec"; key = "SELinux";
        fields = [ Hostinfo.selinux_to_string img.os.selinux ] };
    ]
  in
  let hw =
    match img.hardware with
    | None -> []
    | Some h ->
        [
          { section = "HW"; key = "Cores"; fields = [ string_of_int h.cpu_threads ] };
          { section = "HW"; key = "Freq"; fields = [ string_of_int h.cpu_freq_mhz ] };
          { section = "HW"; key = "Memory"; fields = [ string_of_int h.mem_bytes ] };
          { section = "HW"; key = "DiskSize"; fields = [ string_of_int h.disk_avail_bytes ] };
        ]
  in
  let env =
    List.map
      (fun (k, v) -> { section = "Env"; key = k; fields = [ v ] })
      img.env_vars
  in
  base @ hw @ env

let collect img =
  host_records img
  @ fs_records img.Image.fs
  @ account_records img.Image.accounts
  @ service_records img.Image.services

let to_text records =
  let line r = String.concat "|" (r.section :: r.key :: r.fields) in
  String.concat "\n" (List.map line records) ^ "\n"

(* --- decoding --------------------------------------------------------------- *)

module Strutil = Encore_util.Strutil

(* One record read in place: slice [i] spans [bounds.(2i)] up to
   [bounds.(2i+1)] of [src].  Slice 0 is the section, slice 1 the key,
   the rest are the fields.  The dump scanner points the view at one
   [@env] line at a time, so it copies out only the strings the image
   keeps. *)
type view = { src : string; mutable bounds : int array; mutable n : int }

let new_view src = { src; bounds = Array.make 16 0; n = 0 }

let push v start stop =
  let k = 2 * v.n in
  if k + 1 >= Array.length v.bounds then begin
    let grown = Array.make (2 * Array.length v.bounds) 0 in
    Array.blit v.bounds 0 grown 0 k;
    v.bounds <- grown
  end;
  v.bounds.(k) <- start;
  v.bounds.(k + 1) <- stop;
  v.n <- v.n + 1

let slice_start v i = v.bounds.(2 * i)
let slice_len v i = v.bounds.((2 * i) + 1) - v.bounds.(2 * i)
let slice v i = String.sub v.src (slice_start v i) (slice_len v i)

let slice_is v i lit =
  slice_len v i = String.length lit && Strutil.equal_sub v.src (slice_start v i) lit

(* [prev] itself when the slice spells it: consecutive records mostly
   repeat their owner and group, and the image then keeps one copy *)
let slice_shared v i prev = if slice_is v i prev then prev else slice v i

(* The value of a slice of digits short enough not to overflow, or -1:
   the caller then falls back to [int_of_string_opt], whose syntax is
   the rule. *)
let rec digits_value src i stop ~base acc =
  if i >= stop then acc
  else
    let d = Char.code src.[i] - Char.code '0' in
    if d < 0 || d >= base then -1
    else digits_value src (i + 1) stop ~base ((acc * base) + d)

let slice_digits v i ~base ~max_len =
  let len = slice_len v i in
  if len = 0 || len > max_len then -1
  else
    let s = slice_start v i in
    digits_value v.src s (s + len) ~base 0

let slice_int v i =
  let n = slice_digits v i ~base:10 ~max_len:18 in
  if n >= 0 then Some n else int_of_string_opt (slice v i)

let slice_int_or v i ~default =
  let n = slice_digits v i ~base:10 ~max_len:18 in
  if n >= 0 then n else Option.value ~default (int_of_string_opt (slice v i))

(* permissions are octal: [int_of_string_opt ("0o" ^ perm)] *)
let slice_perm_or v i ~default =
  let n = slice_digits v i ~base:8 ~max_len:20 in
  if n >= 0 then n
  else Option.value ~default (int_of_string_opt ("0o" ^ slice v i))

let rec slices_down v first i acc =
  if i < first then acc else slices_down v first (i - 1) (slice v i :: acc)

(* slices [first] to the last, as a list *)
let slices_from v first = slices_down v first (v.n - 1) []

(* Restoration state, filled one record at a time.  FS records go
   straight into the tree's arrays; accounts and services are collected
   newest first and built once, in [finish].  Host facts are
   first-match-wins: [seen] has bit [i] set once a record for
   [facts.(i)] was applied, whose first field (if any) replaced the
   default. *)
type restoring = {
  fs : Fs.builder;
  mutable groups_rev : Accounts.group list;
  mutable users_rev : Accounts.user list;
  mutable services_rev : (int * string) list;
  mutable env_rev : (string * string) list;
  facts : string array;
  mutable seen : int;
  mutable owner : string;
  mutable group : string;
  mutable meta : Fs.meta;  (* the last FS record's *)
}

(* (section, key, default) of each host fact, indexed as in [facts] *)
let fact_keys =
  [|
    ("Sys", "HostName", "localhost"); ("Sys", "IPAddress", "10.0.0.1");
    ("Sys", "FSType", "ext4"); ("OS", "DistName", "ubuntu");
    ("OS", "Version", "12.04"); ("Sec", "SELinux", "disabled");
    ("HW", "Cores", ""); ("HW", "Freq", ""); ("HW", "Memory", "");
    ("HW", "DiskSize", "");
  |]

(* the [meta] before the first FS record: it matches no record *)
let no_meta = Fs.file_meta ~owner:"" ~group:"" ~perm:(-1) ~size:(-1)

let new_restoring () =
  {
    fs = Fs.builder (); groups_rev = []; users_rev = []; services_rev = [];
    env_rev = [];
    facts = Array.map (fun (_, _, default) -> default) fact_keys;
    seen = 0; owner = "root"; group = "root"; meta = no_meta;
  }

let rec fact_index v i =
  if i >= Array.length fact_keys then -1
  else
    let section, key, _ = fact_keys.(i) in
    if slice_is v 0 section && slice_is v 1 key then i else fact_index v (i + 1)

(* The metadata of one FS record: [prev], the previous record's, when
   the fields match it (owner and group are shared strings, see
   [slice_shared]), so a run of alike records keeps one value. *)
let dir_meta (prev : Fs.meta) ~owner ~group ~perm =
  match prev.kind with
  | Fs.Directory when prev.perm = perm && prev.owner == owner && prev.group == group ->
      prev
  | Fs.Directory | Fs.Regular | Fs.Symlink _ -> Fs.dir_meta ~owner ~group ~perm

let file_meta (prev : Fs.meta) ~owner ~group ~perm ~size =
  match prev.kind with
  | Fs.Regular
    when prev.perm = perm && prev.size = size && prev.owner == owner
         && prev.group == group ->
      prev
  | Fs.Directory | Fs.Regular | Fs.Symlink _ -> Fs.file_meta ~owner ~group ~perm ~size

let symlink_meta (prev : Fs.meta) v ~owner ~group =
  match prev.kind with
  | Fs.Symlink target
    when slice_is v 7 target && prev.owner == owner && prev.group == group ->
      prev
  | Fs.Directory | Fs.Regular | Fs.Symlink _ ->
      Fs.symlink_meta ~owner ~group ~target:(slice v 7)

(* An FS record has exactly six fields: kind, owner, group, octal
   permission, size and symlink target.  A path that does not
   canonicalize raises [Invalid_argument] here. *)
let apply_fs r v =
  let dir = slice_is v 2 "dir" and file = slice_is v 2 "file" in
  if dir || file || slice_is v 2 "symlink" then begin
    let owner = slice_shared v 3 r.owner in
    let group = slice_shared v 4 r.group in
    r.owner <- owner;
    r.group <- group;
    let meta =
      if dir then dir_meta r.meta ~owner ~group ~perm:(slice_perm_or v 5 ~default:0o644)
      else if file then
        file_meta r.meta ~owner ~group ~perm:(slice_perm_or v 5 ~default:0o644)
          ~size:(slice_int_or v 6 ~default:0)
      else symlink_meta r.meta v ~owner ~group
    in
    r.meta <- meta;
    Fs.push r.fs (slice v 1) meta
  end

let apply r v =
  if slice_is v 0 "FS" then (if v.n = 8 then apply_fs r v)
  else if slice_is v 0 "Service" then begin
    if v.n = 3 then
      match slice_int v 1 with
      | Some port -> r.services_rev <- (port, slice v 2) :: r.services_rev
      | None -> ()
  end
  else if slice_is v 0 "Acct.Group" then begin
    if v.n >= 3 then
      match slice_int v 2 with
      | Some ggid ->
          r.groups_rev <-
            { Accounts.gname = slice v 1; ggid; members = slices_from v 3 }
            :: r.groups_rev
      | None -> ()
  end
  else if slice_is v 0 "Acct.User" then begin
    if v.n = 6 then
      match (slice_int v 2, slice_int v 3) with
      | Some uid, Some gid ->
          r.users_rev <-
            { Accounts.name = slice v 1; uid; gid; home = slice v 4;
              shell = slice v 5 }
            :: r.users_rev
      | _ -> ()
  end
  else if slice_is v 0 "Env" then begin
    if v.n >= 3 then r.env_rev <- (slice v 1, slice v 2) :: r.env_rev
  end
  else
    let i = fact_index v 0 in
    if i >= 0 && r.seen land (1 lsl i) = 0 then begin
      r.seen <- r.seen lor (1 lsl i);
      if v.n >= 3 then r.facts.(i) <- slice v 2
    end

let finish r ~id ~configs =
  (* every group before any user, wherever the records sat: a user
     invents a group when its gid has none yet, so replaying a user
     before the dumped groups would materialize groups the serialized
     image never had and break the image_to_text/image_of_text round
     trip *)
  let accounts =
    Accounts.of_list ~groups:(List.rev r.groups_rev) ~users:(List.rev r.users_rev)
  in
  let fact i = r.facts.(i) in
  let os =
    {
      Hostinfo.dist_name = fact 3;
      dist_version = fact 4;
      selinux =
        Option.value ~default:Hostinfo.Disabled
          (Hostinfo.selinux_of_string (fact 5));
    }
  in
  let hardware =
    match
      ( int_of_string_opt (fact 6), int_of_string_opt (fact 7),
        int_of_string_opt (fact 8), int_of_string_opt (fact 9) )
    with
    | Some cpu_threads, Some cpu_freq_mhz, Some mem_bytes, Some disk_avail_bytes ->
        Some { Hostinfo.cpu_threads; cpu_freq_mhz; mem_bytes; disk_avail_bytes }
    | _ -> None
  in
  Image.make ~hostname:(fact 0) ~ip_address:(fact 1) ~fs_type:(fact 2)
    ~fs:(Fs.build r.fs) ~accounts
    ~services:(Services.of_list (List.rev r.services_rev))
    ~env_vars:(List.rev r.env_rev)
    ~hardware ~os ~id configs

(* --- the line scanner -------------------------------------------------------- *)

(* Split the line from [start] on '|' into [v] (whose [src] is [text]),
   up to the next '\n' or the end of [text]; returns where the line
   ends.  [i] never passes the end, so the reads need no bounds check. *)
let rec split_line v text start i =
  if i >= String.length text then begin
    push v start i;
    i
  end
  else
    match String.unsafe_get text i with
    | '\n' ->
        push v start i;
        i
    | '|' ->
        push v start i;
        split_line v text (i + 1) (i + 1)
    | _ -> split_line v text start (i + 1)

(* Trim the split line: String.trim's whitespace can only sit at the
   start of its first slice and the end of its last.  False for a line
   that holds no record (blank, no '|', empty section or key). *)
let trimmed v =
  v.n >= 2
  &&
  let last = (2 * v.n) - 1 in
  v.bounds.(0) <- Strutil.skip_spaces v.src v.bounds.(0) v.bounds.(1);
  v.bounds.(last) <- Strutil.trim_end v.src v.bounds.(last - 1) v.bounds.(last);
  slice_len v 0 > 0 && slice_len v 1 > 0

let rec apply_lines r v text pos len =
  if pos < len then begin
    v.n <- 0;
    let nl = split_line v text pos pos in
    if trimmed v then apply r v;
    apply_lines r v text (nl + 1) len
  end

(* --- single-image dumps (the fleet serving format) ------------------------ *)

let image_magic = "ENCORE-IMAGE 1 "

let image_to_text (img : Image.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf image_magic;
  Buffer.add_string buf img.Image.image_id;
  Buffer.add_char buf '\n';
  if img.Image.flakiness <> 0.0 then
    Buffer.add_string buf
      (Printf.sprintf "@flakiness %.17g\n" img.Image.flakiness);
  List.iter
    (fun (c : Image.config_file) ->
      (* byte-count framing: config text is stored verbatim, so lines
         that look like our own headers cannot confuse the reader *)
      Buffer.add_string buf
        (Printf.sprintf "@config %s %d %s\n"
           (Image.app_to_string c.Image.app)
           (String.length c.Image.text) c.Image.path);
      Buffer.add_string buf c.Image.text;
      Buffer.add_char buf '\n')
    img.Image.configs;
  Buffer.add_string buf "@env\n";
  Buffer.add_string buf (to_text (collect img));
  Buffer.contents buf

let has_prefix text pos stop prefix =
  stop - pos >= String.length prefix && Strutil.equal_sub text pos prefix

(* The [@env] tail is scanned where it lies; records are applied as they
   are read, and the file tree is built once at the end.  Stays total on
   damaged dumps: a corrupted environment record (e.g. control bytes
   spliced into a path) surfaces as a parse error, not an exception. *)
let decode_env text pos ~id ~configs ~flakiness =
  let r = new_restoring () and v = new_view text in
  match
    apply_lines r v text pos (String.length text);
    finish r ~id ~configs
  with
  | img -> Ok (Image.with_flakiness img flakiness)
  | exception Invalid_argument msg -> Error ("corrupt image dump: " ^ msg)

(* "@config <app> <bytes> <path>": the path may contain spaces.  The
   header ends at [stop]; [bytes] bytes of config text follow it, then a
   framing newline. *)
let config_header text pos stop =
  let len = String.length text in
  let spec = pos + String.length "@config " in
  let sp1 = Strutil.index_in text ' ' spec stop in
  let sp2 = Strutil.index_in text ' ' (sp1 + 1) stop in
  if sp1 >= stop || sp2 >= stop then None
  else
    match
      ( Image.app_of_string (String.sub text spec (sp1 - spec)),
        int_of_string_opt (String.sub text (sp1 + 1) (sp2 - sp1 - 1)) )
    with
    | Some app, Some n when n >= 0 && stop + 1 + n <= len ->
        let body = stop + 1 in
        let next = body + n in
        let next = if next < len && text.[next] = '\n' then next + 1 else next in
        Some
          ( { Image.app;
              path = String.sub text (sp2 + 1) (stop - sp2 - 1);
              text = String.sub text body n },
            next )
    | _ -> None

let rec headers text pos ~id ~configs ~flakiness =
  let len = String.length text in
  if pos >= len then Error "image dump truncated before @env"
  else
    let nl = Strutil.index_in text '\n' pos len in
    if nl - pos = 4 && has_prefix text pos nl "@env" then
      decode_env text (nl + 1) ~id ~configs:(List.rev configs) ~flakiness
    else if has_prefix text pos nl "@flakiness " then
      let start = pos + String.length "@flakiness " in
      let f = String.sub text start (nl - start) in
      match float_of_string_opt f with
      | Some flakiness -> headers text (nl + 1) ~id ~configs ~flakiness
      | None -> Error ("bad @flakiness value: " ^ f)
    else if has_prefix text pos nl "@config " then
      match config_header text pos nl with
      | Some (config, next) ->
          headers text next ~id ~configs:(config :: configs) ~flakiness
      | None -> Error ("malformed @config line: " ^ String.sub text pos (nl - pos))
    else Error ("unrecognized header line: " ^ String.sub text pos (nl - pos))

let image_of_text text =
  let len = String.length text in
  let nl = Strutil.index_in text '\n' 0 len in
  if len = 0 then Error "empty image dump"
  else if not (has_prefix text 0 nl image_magic) then
    Error "not an ENCORE-IMAGE dump (bad magic line)"
  else
    let start = String.length image_magic in
    headers text (nl + 1)
      ~id:(String.sub text start (nl - start))
      ~configs:[] ~flakiness:0.0
