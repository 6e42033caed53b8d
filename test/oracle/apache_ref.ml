(* The Apache lens's parser as it stood before the index scanner in
   [Encore_confparse.Apache_lens]: a [split_on_char] line list, a
   [Buffer] copy per word, the frame prefix rebuilt for every directive
   and a line count per unclosed section. *)

module Kv = Encore_confparse.Kv

let unquote v =
  let n = String.length v in
  if n >= 2 && v.[0] = '"' && v.[n - 1] = '"' then String.sub v 1 (n - 2)
  else v

(* Split a directive line into words, honoring double quotes. *)
let words line =
  let n = String.length line in
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  let rec go i in_quote =
    if i >= n then flush ()
    else
      let c = line.[i] in
      if c = '"' then go (i + 1) (not in_quote)
      else if (c = ' ' || c = '\t') && not in_quote then begin
        flush ();
        go (i + 1) false
      end
      else begin
        Buffer.add_char buf c;
        go (i + 1) in_quote
      end
  in
  go 0 false;
  List.rev !out

let strip_comment line =
  match String.index_opt line '#' with
  | Some 0 -> ""
  | Some _ | None -> line
(* Apache only treats '#' at line start (after whitespace) as comment. *)

let is_comment line =
  let t = String.trim line in
  t <> "" && t.[0] = '#'

type frame = { name : string; arg : string }

let frame_key frames =
  List.rev_map (fun f -> f.name ^ "[" ^ f.arg ^ "]") frames

let parse_diag ~app text =
  let lines = String.split_on_char '\n' text in
  let kvs = ref [] in
  let stack = ref [] in
  let diags = ref [] in
  let skip lineno message = diags := (lineno, message) :: !diags in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line = "" || is_comment line then ()
      else if Encore_util.Strutil.starts_with ~prefix:"</" line then
        (* closing tag: pop if it matches the innermost frame *)
        match !stack with
        | top :: rest
          when Encore_util.Strutil.lowercase_ascii line
               = Encore_util.Strutil.lowercase_ascii ("</" ^ top.name ^ ">") ->
            stack := rest
        | _ -> skip lineno ("unmatched closing tag: " ^ line)
      else if line.[0] = '<' && String.length line > 2 then begin
        (* opening tag <Name arg...> *)
        let inner =
          let l = String.length line in
          if line.[l - 1] = '>' then String.sub line 1 (l - 2)
          else String.sub line 1 (l - 1)
        in
        match words inner with
        | name :: args ->
            let arg = unquote (String.concat " " args) in
            stack := { name; arg } :: !stack;
            (* synthetic entry exposing the section argument as a value,
               so correlations like "DocumentRoot matches some
               <Directory> section" are learnable (Eq-exists template) *)
            let skey = Kv.qualify ~app [ name ^ "/__section__" ] in
            kvs := Kv.make ~line:lineno skey arg :: !kvs
        | [] -> skip lineno ("empty opening tag: " ^ line)
      end
      else
        match words (strip_comment line) with
        | [] -> ()
        | [ name ] ->
            let key = Kv.qualify ~app (frame_key !stack @ [ name ]) in
            kvs := Kv.make ~line:lineno key "on" :: !kvs
        | [ name; value ] ->
            let key = Kv.qualify ~app (frame_key !stack @ [ name ]) in
            kvs := Kv.make ~line:lineno key (unquote value) :: !kvs
        | name :: arg1 :: rest ->
            (* multi-argument directive: index by first argument *)
            let base = frame_key !stack @ [ name ^ "[" ^ unquote arg1 ^ "]" ] in
            List.iteri
              (fun i v ->
                let key =
                  Kv.qualify ~app (base @ [ Printf.sprintf "arg%d" (i + 2) ])
                in
                kvs := Kv.make ~line:lineno key (unquote v) :: !kvs)
              rest)
    lines;
  List.iter
    (fun f -> skip (List.length lines) ("unclosed section <" ^ f.name ^ ">"))
    !stack;
  (List.rev !kvs, List.rev !diags)
