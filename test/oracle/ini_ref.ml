(* The INI lens's parser as it stood before the index scanner in
   [Encore_confparse.Ini]: a [split_on_char] line list, a [Buffer]
   copy per line to strip comments, and the key prefix rebuilt for
   every entry. *)

module Kv = Encore_confparse.Kv

let strip_comment line =
  (* a '#' or ';' starts a comment unless inside a double-quoted value *)
  let n = String.length line in
  let buf = Buffer.create n in
  let rec go i in_quote =
    if i >= n then Buffer.contents buf
    else
      let c = line.[i] in
      if c = '"' then begin
        Buffer.add_char buf c;
        go (i + 1) (not in_quote)
      end
      else if (c = '#' || c = ';') && not in_quote then Buffer.contents buf
      else begin
        Buffer.add_char buf c;
        go (i + 1) in_quote
      end
  in
  go 0 false

let unquote v =
  let n = String.length v in
  if n >= 2 && v.[0] = '"' && v.[n - 1] = '"' then String.sub v 1 (n - 2)
  else v

let parse_diag ~app text =
  let lines = String.split_on_char '\n' text in
  let diags = ref [] in
  let skip lineno message = diags := (lineno, message) :: !diags in
  let _, kvs =
    List.fold_left
      (fun (section, acc) (lineno, raw) ->
        let line = String.trim (strip_comment raw) in
        if line = "" then (section, acc)
        else if String.length line >= 2 && line.[0] = '[' then
          match String.index_opt line ']' with
          | Some close when close > 1 ->
              (String.trim (String.sub line 1 (close - 1)), acc)
          | Some _ | None ->
              skip lineno ("malformed section header: " ^ line);
              (section, acc)
        else if line.[0] = '!' then (section, acc) (* !include etc. *)
        else
          match String.index_opt line '=' with
          | Some eq ->
              let key = String.trim (String.sub line 0 eq) in
              let value =
                String.trim (String.sub line (eq + 1) (String.length line - eq - 1))
              in
              if key = "" then begin
                skip lineno ("entry with empty key: " ^ line);
                (section, acc)
              end
              else
                let qkey = Kv.qualify ~app [ section; key ] in
                (section, Kv.make ~line:lineno qkey (unquote value) :: acc)
          | None ->
              (* bare flag, e.g. skip-networking *)
              let qkey = Kv.qualify ~app [ section; line ] in
              (section, Kv.make ~line:lineno qkey "on" :: acc))
      ("main", [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  (List.rev kvs, List.rev !diags)
