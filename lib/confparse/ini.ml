module Strutil = Encore_util.Strutil

(* End of a line's content: a '#' or ';' starts a comment unless inside
   a double-quoted value. *)
let rec comment_start text i stop in_quote =
  if i >= stop then stop
  else
    match text.[i] with
    | '"' -> comment_start text (i + 1) stop (not in_quote)
    | '#' | ';' when not in_quote -> i
    | _ -> comment_start text (i + 1) stop in_quote

type scan = {
  app : string;
  text : string;
  mutable prefix : string;  (** "app/section/", built once per section *)
  mutable kvs : Kv.t list;  (** newest first *)
  mutable diags : (int * string) list;  (** newest first *)
}

let skip st lineno message = st.diags <- (lineno, message) :: st.diags

(* [s, e) is a non-empty line, comment cut and trimmed. *)
let entry st lineno s e =
  let text = st.text in
  if e - s >= 2 && text.[s] = '[' then
    let close = Strutil.index_in text ']' s e in
    if close < e && close > s + 1 then begin
      let ns = Strutil.skip_spaces text (s + 1) close in
      let ne = Strutil.trim_end text ns close in
      st.prefix <-
        String.concat "" [ st.app; "/"; String.sub text ns (ne - ns); "/" ]
    end
    else
      skip st lineno ("malformed section header: " ^ String.sub text s (e - s))
  else if text.[s] = '!' then () (* !include etc. *)
  else
    let eq = Strutil.index_in text '=' s e in
    if eq = e then
      (* bare flag, e.g. skip-networking *)
      st.kvs <-
        { Kv.key = Strutil.append_sub st.prefix text s e; value = "on";
          line = lineno }
        :: st.kvs
    else
      let ke = Strutil.trim_end text s eq in
      if ke = s then
        skip st lineno ("entry with empty key: " ^ String.sub text s (e - s))
      else
        let vs = Strutil.skip_spaces text (eq + 1) e in
        let value =
          if e - vs >= 2 && text.[vs] = '"' && text.[e - 1] = '"' then
            (* a value in double quotes loses them and is trimmed again,
               as [Kv.make] trims *)
            let qs = Strutil.skip_spaces text (vs + 1) (e - 1) in
            String.sub text qs (Strutil.trim_end text qs (e - 1) - qs)
          else String.sub text vs (e - vs)
        in
        st.kvs <-
          { Kv.key = Strutil.append_sub st.prefix text s ke; value; line = lineno }
          :: st.kvs

let rec lines st pos lineno =
  let text = st.text in
  let len = String.length text in
  let nl = Strutil.index_in text '\n' pos len in
  let cut = comment_start text pos nl false in
  let s = Strutil.skip_spaces text pos cut in
  let e = Strutil.trim_end text s cut in
  if s < e then entry st lineno s e;
  if nl < len then lines st (nl + 1) (lineno + 1)

let parse_diag ~app text =
  let st = { app; text; prefix = app ^ "/main/"; kvs = []; diags = [] } in
  lines st 0 1;
  (List.rev st.kvs, List.rev st.diags)

let parse ~app text = fst (parse_diag ~app text)

let render ~app kvs =
  let mine =
    List.filter (fun (kv : Kv.t) -> Kv.app_of_key kv.key = app) kvs
  in
  (* regroup by section while keeping first-appearance order *)
  let sections = ref [] in
  let entries = Hashtbl.create 16 in
  List.iter
    (fun (kv : Kv.t) ->
      match Encore_util.Strutil.split_on '/' kv.key with
      | [ _; section; key ] ->
          if not (List.mem section !sections) then
            sections := section :: !sections;
          Hashtbl.add entries section (key, kv.value)
      | _ -> ())
    mine;
  let buf = Buffer.create 512 in
  List.iter
    (fun section ->
      Buffer.add_string buf ("[" ^ section ^ "]\n");
      List.iter
        (fun (key, value) ->
          Buffer.add_string buf (key ^ " = " ^ value ^ "\n"))
        (List.rev (Hashtbl.find_all entries section));
      Buffer.add_char buf '\n')
    (List.rev !sections);
  Buffer.contents buf
