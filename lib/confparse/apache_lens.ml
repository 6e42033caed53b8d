module Strutil = Encore_util.Strutil

(* A section opened by <name arg>.  [prefix] is "app/n1[a1]/.../name[arg]/",
   built on the frame's first directive ("" until then): building it at
   each opening tag would make deep nesting quadratic. *)
type frame = { name : string; arg : string; mutable prefix : string }

type scan = {
  text : string;
  top : string;  (** "app/": the prefix outside any section *)
  mutable stack : frame list;  (** innermost first *)
  mutable kvs : Kv.t list;  (** newest first *)
  mutable diags : (int * string) list;  (** newest first *)
  mutable words : int array;  (** (start, stop, quoted) per word of a line *)
  mutable nwords : int;
}

let skip st lineno message = st.diags <- (lineno, message) :: st.diags

(* --- words --------------------------------------------------------------- *)

(* A directive line splits into words at blanks outside double quotes; a
   quote toggles quoting and is dropped from the word, and a word left
   empty by that is no word.  No word holds a quote, so values and
   section arguments need no unquoting.  [st.words] records each word's
   raw span and whether that span holds a quote. *)
let rec run_end text i stop in_quote =
  if i >= stop then stop
  else
    match text.[i] with
    | '"' -> run_end text (i + 1) stop (not in_quote)
    | ' ' | '\t' when not in_quote -> i
    | _ -> run_end text (i + 1) stop in_quote

let rec skip_blanks text i stop =
  if i < stop && (text.[i] = ' ' || text.[i] = '\t') then
    skip_blanks text (i + 1) stop
  else i

let rec only_quotes text i stop =
  i >= stop || (text.[i] = '"' && only_quotes text (i + 1) stop)

let push_word st start stop quoted =
  let k = 3 * st.nwords in
  if k + 2 >= Array.length st.words then begin
    let grown = Array.make (2 * Array.length st.words) 0 in
    Array.blit st.words 0 grown 0 k;
    st.words <- grown
  end;
  st.words.(k) <- start;
  st.words.(k + 1) <- stop;
  st.words.(k + 2) <- (if quoted then 1 else 0);
  st.nwords <- st.nwords + 1

let rec split_words st text i stop =
  let i = skip_blanks text i stop in
  if i < stop then begin
    let e = run_end text i stop false in
    let quoted = Strutil.index_in text '"' i e < e in
    if not (quoted && only_quotes text i e) then push_word st i e quoted;
    split_words st text e stop
  end

let words st s e =
  st.nwords <- 0;
  split_words st st.text s e

let word st k =
  let start = st.words.(3 * k) and stop = st.words.((3 * k) + 1) in
  if st.words.((3 * k) + 2) = 0 then String.sub st.text start (stop - start)
  else begin
    let b = Buffer.create (stop - start) in
    for i = start to stop - 1 do
      if st.text.[i] <> '"' then Buffer.add_char b st.text.[i]
    done;
    Buffer.contents b
  end

(* [prefix ^ word k] *)
let keyed st prefix k =
  let start = st.words.(3 * k) and stop = st.words.((3 * k) + 1) in
  if st.words.((3 * k) + 2) = 0 then Strutil.append_sub prefix st.text start stop
  else prefix ^ word st k

(* --- keys ---------------------------------------------------------------- *)

let frame_part_length f = String.length f.name + String.length f.arg + 3

(* "app/n1[a1]/n2[a2]/": every frame's part, outermost first *)
let stack_prefix top frames =
  let len =
    List.fold_left (fun n f -> n + frame_part_length f) (String.length top) frames
  in
  let b = Bytes.create len in
  Bytes.blit_string top 0 b 0 (String.length top);
  ignore
    (List.fold_left
       (fun stop f ->
         let start = stop - frame_part_length f in
         let nl = String.length f.name and al = String.length f.arg in
         Bytes.blit_string f.name 0 b start nl;
         Bytes.set b (start + nl) '[';
         Bytes.blit_string f.arg 0 b (start + nl + 1) al;
         Bytes.set b (start + nl + 1 + al) ']';
         Bytes.set b (stop - 1) '/';
         start)
       len frames);
  Bytes.unsafe_to_string b

let current_prefix st =
  match st.stack with
  | [] -> st.top
  | f :: _ ->
      if f.prefix = "" then f.prefix <- stack_prefix st.top st.stack;
      f.prefix

let arg_names = Array.init 16 (fun k -> "arg" ^ string_of_int k)

let arg_name k =
  if k < Array.length arg_names then arg_names.(k) else "arg" ^ string_of_int k

(* [Kv.make]'s value trim *)
let add st lineno key value =
  st.kvs <- { Kv.key; value = String.trim value; line = lineno } :: st.kvs

(* --- lines --------------------------------------------------------------- *)

let rec same_ci text i name j n =
  j >= n
  || Char.lowercase_ascii text.[i + j] = Char.lowercase_ascii name.[j]
     && same_ci text i name (j + 1) n

(* "</name>" for [name], ignoring ASCII case *)
let closes text s e name =
  let n = String.length name in
  e - s = n + 3 && text.[e - 1] = '>' && same_ci text (s + 2) name 0 n

let line_text st s e = String.sub st.text s (e - s)

let closing st lineno s e =
  match st.stack with
  | top :: rest when closes st.text s e top.name -> st.stack <- rest
  | _ -> skip st lineno ("unmatched closing tag: " ^ line_text st s e)

let opening st lineno s e =
  let inner_end = if st.text.[e - 1] = '>' then e - 1 else e in
  words st (s + 1) inner_end;
  if st.nwords = 0 then skip st lineno ("empty opening tag: " ^ line_text st s e)
  else begin
    let name = word st 0 in
    let arg =
      if st.nwords = 2 then word st 1
      else String.concat " " (List.init (st.nwords - 1) (fun k -> word st (k + 1)))
    in
    st.stack <- { name; arg; prefix = "" } :: st.stack;
    (* synthetic entry exposing the section argument as a value, so
       correlations like "DocumentRoot matches some <Directory> section"
       are learnable (Eq-exists template) *)
    add st lineno (String.concat "" [ st.top; name; "/__section__" ]) arg
  end

let directive st lineno s e =
  words st s e;
  match st.nwords with
  | 0 -> ()
  | 1 -> add st lineno (keyed st (current_prefix st) 0) "on"
  | 2 -> add st lineno (keyed st (current_prefix st) 0) (word st 1)
  | n ->
      (* multi-argument directive: index by first argument *)
      let base =
        String.concat ""
          [ keyed st (current_prefix st) 0; "["; word st 1; "]/" ]
      in
      for k = 2 to n - 1 do
        add st lineno (base ^ arg_name k) (word st k)
      done

(* Apache only treats '#' at line start (after whitespace) as comment. *)
let rec lines st pos lineno =
  let text = st.text in
  let len = String.length text in
  let nl = Strutil.index_in text '\n' pos len in
  let s = Strutil.skip_spaces text pos nl in
  let e = Strutil.trim_end text s nl in
  if s < e && text.[s] <> '#' then begin
    if text.[s] = '<' && e - s >= 2 && text.[s + 1] = '/' then closing st lineno s e
    else if text.[s] = '<' && e - s > 2 then opening st lineno s e
    else directive st lineno s e
  end;
  if nl < len then lines st (nl + 1) (lineno + 1) else lineno

let parse_diag ~app text =
  let st =
    { text; top = app ^ "/"; stack = []; kvs = []; diags = [];
      words = Array.make 24 0; nwords = 0 }
  in
  let last_line = lines st 0 1 in
  List.iter
    (fun f -> skip st last_line ("unclosed section <" ^ f.name ^ ">"))
    st.stack;
  (List.rev st.kvs, List.rev st.diags)

let parse ~app text = fst (parse_diag ~app text)

(* --- rendering ------------------------------------------------------- *)

type node =
  | Directive of string * string
  | Section of string * string * node list

(* Split a key on '/' but not inside bracket arguments: the section
   argument of "Directory[/var/www/html]/Options" keeps its slashes. *)
let split_key_parts key =
  let parts = ref [] in
  let buf = Buffer.create 32 in
  let depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '[' ->
          incr depth;
          Buffer.add_char buf c
      | ']' ->
          decr depth;
          Buffer.add_char buf c
      | '/' when !depth = 0 ->
          if Buffer.length buf > 0 then begin
            parts := Buffer.contents buf :: !parts;
            Buffer.clear buf
          end
      | c -> Buffer.add_char buf c)
    key;
  if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
  List.rev !parts

let split_key key =
  match split_key_parts key with _ :: rest -> rest | [] -> []

let parse_bracket part =
  (* "Directory[/var/www]" -> Some ("Directory", "/var/www") *)
  match String.index_opt part '[' with
  | Some i when String.length part > 0 && part.[String.length part - 1] = ']' ->
      let name = String.sub part 0 i in
      let arg = String.sub part (i + 1) (String.length part - i - 2) in
      Some (name, arg)
  | Some _ | None -> None

let rec insert nodes parts value =
  match parts with
  | [] -> nodes
  | [ last ] -> (
      match parse_bracket last with
      | Some (name, arg) ->
          (* multi-arg directive leaf handled by caller via argN child *)
          nodes @ [ Section (name, arg, [ Directive ("__arg__", value) ]) ]
      | None -> nodes @ [ Directive (last, value) ])
  | part :: rest -> (
      match parse_bracket part with
      | Some (name, arg) ->
          let found = ref false in
          let nodes =
            List.map
              (function
                | Section (n, a, kids) when n = name && a = arg ->
                    found := true;
                    Section (n, a, insert kids rest value)
                | other -> other)
              nodes
          in
          if !found then nodes
          else nodes @ [ Section (name, arg, insert [] rest value) ]
      | None ->
          (* unexpected: treat as flat directive with compound name *)
          nodes @ [ Directive (String.concat "/" parts, value) ])

let quote_if_needed v =
  if v = "" || String.contains v ' ' then "\"" ^ v ^ "\"" else v

let rec render_nodes buf indent nodes =
  let pad = String.make (indent * 2) ' ' in
  List.iter
    (function
      | Directive (name, value) ->
          Buffer.add_string buf (pad ^ name ^ " " ^ quote_if_needed value ^ "\n")
      | Section (name, arg, kids) ->
          (* a section holding only __arg__/argN children is a multi-arg
             directive, not a container *)
          let args_only =
            kids <> []
            && List.for_all
                 (function
                   | Directive (n, _) ->
                       n = "__arg__" || Encore_util.Strutil.starts_with ~prefix:"arg" n
                   | Section _ -> false)
                 kids
          in
          if args_only then begin
            let argv =
              List.filter_map
                (function Directive (_, v) -> Some (quote_if_needed v) | Section _ -> None)
                kids
            in
            Buffer.add_string buf
              (pad ^ name ^ " " ^ quote_if_needed arg ^ " " ^ String.concat " " argv ^ "\n")
          end
          else begin
            Buffer.add_string buf (pad ^ "<" ^ name ^ " " ^ quote_if_needed arg ^ ">\n");
            render_nodes buf (indent + 1) kids;
            Buffer.add_string buf (pad ^ "</" ^ name ^ ">\n")
          end)
    nodes

let render ~app kvs =
  let mine =
    List.filter
      (fun (kv : Kv.t) ->
        Kv.app_of_key kv.key = app
        (* synthetic section markers are re-derived on parse *)
        && Kv.key_basename kv.key <> "__section__")
      kvs
  in
  let tree =
    List.fold_left
      (fun nodes (kv : Kv.t) -> insert nodes (split_key kv.key) kv.value)
      [] mine
  in
  let buf = Buffer.create 1024 in
  render_nodes buf 0 tree;
  Buffer.contents buf

let section_paths kvs =
  List.concat_map
    (fun (kv : Kv.t) ->
      List.filter_map parse_bracket (split_key kv.key))
    kvs
  |> List.sort_uniq compare
