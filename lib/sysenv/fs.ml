module Smap = Map.Make (String)

type kind = Regular | Directory | Symlink of string

type meta = {
  owner : string;
  group : string;
  perm : int;
  size : int;
  kind : kind;
}

(* Flat representation: a map from absolute path to metadata.  The tree
   structure is recovered from path prefixes; this keeps insertion and
   lookup trivially correct at the modest scale of a config snapshot. *)
type t = meta Smap.t

let root_meta =
  { owner = "root"; group = "root"; perm = 0o755; size = 0; kind = Directory }

let empty = Smap.add "/" root_meta Smap.empty

(* Collector dumps and config values arrive with cosmetic noise: "./"
   prefixes, trailing or doubled slashes, "." and ".." components.
   Canonicalization absorbs what is unambiguous and reports the rest as
   a typed error instead of raising. *)
(* Fast acceptance test: absolute, no trailing slash (except "/"), and
   no "", "." or ".." component.  Such a path is its own canonical
   form, so the slow rebuild below can be skipped. *)
let is_canonical p =
  let n = String.length p in
  n > 0 && p.[0] = '/'
  && (n = 1
      || p.[n - 1] <> '/'
         &&
         let ok = ref true and i = ref 1 and start = ref 1 in
         while !ok && !i <= n do
           (if !i = n || p.[!i] = '/' then begin
              let len = !i - !start in
              if
                len = 0
                || (len = 1 && p.[!start] = '.')
                || (len = 2 && p.[!start] = '.' && p.[!start + 1] = '.')
              then ok := false;
              start := !i + 1
            end);
           incr i
         done;
         !ok)

let canonicalize path =
  if is_canonical path then Ok path
  else if path = "" then Error "empty path"
  else
    (* a leading "./" before an absolute remainder is droppable noise *)
    let rec strip_dot p =
      if Encore_util.Strutil.starts_with ~prefix:"./" p then
        strip_dot (String.sub p 2 (String.length p - 2))
      else p
    in
    let p = strip_dot path in
    if p = "" || p.[0] <> '/' then
      Error ("path must be absolute: " ^ path)
    else
      let rec resolve acc = function
        | [] -> Ok (List.rev acc)
        | "." :: rest -> resolve acc rest
        | ".." :: rest -> (
            match acc with
            | _ :: parent -> resolve parent rest
            | [] -> Error ("path escapes the root: " ^ path))
        | comp :: rest -> resolve (comp :: acc) rest
      in
      match resolve [] (Encore_util.Strutil.path_components p) with
      | Error e -> Error e
      | Ok [] -> Ok "/"
      | Ok comps -> Ok ("/" ^ String.concat "/" comps)

let normalize path =
  match canonicalize path with
  | Ok p -> p
  | Error e -> invalid_arg ("Fs: " ^ e)

let parent path = Encore_util.Strutil.dirname path

(* Every constructor keeps all ancestors of a present path present, so
   the walk up stops at the first present one.  Missing ancestors are
   added top-down. *)
let rec ensure_dirs fs path =
  if path = "/" || Smap.mem path fs then fs
  else
    Smap.add path { root_meta with kind = Directory }
      (ensure_dirs fs (parent path))

let add fs path meta =
  let path = normalize path in
  if path = "/" then Smap.add "/" meta fs
  else
    let fs = ensure_dirs fs (parent path) in
    Smap.add path meta fs

let add_dir ?(owner = "root") ?(group = "root") ?(perm = 0o755) fs path =
  add fs path { owner; group; perm; size = 0; kind = Directory }

let add_file ?(owner = "root") ?(group = "root") ?(perm = 0o644) ?(size = 1024)
    fs path =
  add fs path { owner; group; perm; size; kind = Regular }

let add_symlink ?(owner = "root") ?(group = "root") fs path ~target =
  add fs path { owner; group; perm = 0o777; size = 0; kind = Symlink target }

let remove fs path =
  let path = Result.value ~default:"" (canonicalize path) in
  if path = "/" || path = "" then fs
  else
    let prefix = path ^ "/" in
    Smap.filter
      (fun p _ -> p <> path && not (Encore_util.Strutil.starts_with ~prefix p))
      fs

let lookup fs path =
  match canonicalize path with
  | Error _ -> None
  | Ok p -> Smap.find_opt p fs

let rec resolve_n fs path n =
  if n = 0 then None
  else
    match lookup fs path with
    | Some { kind = Symlink target; _ } -> resolve_n fs target (n - 1)
    | other -> other

let resolve fs path = resolve_n fs path 16

let exists fs path = lookup fs path <> None

let is_dir fs path =
  match resolve fs path with
  | Some { kind = Directory; _ } -> true
  | Some _ | None -> false

let is_file fs path =
  match resolve fs path with
  | Some { kind = Regular; _ } -> true
  | Some _ | None -> false

(* Walk only the subtree under [path]: map keys are ordered, so the
   descendants of "/a/b" are exactly the contiguous key range that
   starts with "/a/b/" — [to_seq_from] positions there in O(log n) and
   the walk stops at the first key outside the prefix.  [f] receives
   the path suffix after the prefix and the entry's metadata; a [true]
   return short-circuits the walk. *)
let subtree_exists fs path f =
  match canonicalize path with
  | Error _ -> false
  | Ok p ->
      let prefix = if p = "/" then "/" else p ^ "/" in
      let rec walk seq =
        match Seq.uncons seq with
        | Some ((q, m), rest)
          when q = "/" || Encore_util.Strutil.starts_with ~prefix q ->
            (q <> "/"
             && f
                  (String.sub q (String.length prefix)
                     (String.length q - String.length prefix))
                  m)
            || walk rest
        | Some _ | None -> false
      in
      walk (Smap.to_seq_from prefix fs)

let children fs path =
  let acc = ref [] in
  ignore
    (subtree_exists fs path (fun rest _ ->
         if not (Encore_util.Strutil.contains_char rest '/') then
           acc := rest :: !acc;
         false));
  List.sort compare !acc

let direct_child_exists fs path pred =
  subtree_exists fs path (fun rest m ->
      (not (Encore_util.Strutil.contains_char rest '/')) && pred m)

let has_subdir fs path = direct_child_exists fs path (fun m -> m.kind = Directory)

let has_symlink fs path =
  direct_child_exists fs path (fun m ->
      match m.kind with Symlink _ -> true | Regular | Directory -> false)

let all_paths fs =
  Smap.fold (fun p _ acc -> if p = "/" then acc else p :: acc) fs []
  |> List.sort compare

let chown fs path ~owner ~group =
  match lookup fs path with
  | None -> fs
  | Some m -> Smap.add (normalize path) { m with owner; group } fs

let chmod fs path ~perm =
  match lookup fs path with
  | None -> fs
  | Some m -> Smap.add (normalize path) { m with perm } fs

let readable_by fs ~user ~groups path =
  if user = "root" then exists fs path
  else
    match resolve fs path with
    | None -> false
    | Some m ->
        let bits =
          if m.owner = user then (m.perm lsr 6) land 7
          else if List.mem m.group groups then (m.perm lsr 3) land 7
          else m.perm land 7
        in
        bits land 4 <> 0

let fold f fs acc =
  Smap.fold (fun p m acc -> if p = "/" then acc else f p m acc) fs acc
