type kind = Regular | Directory | Symlink of string

type meta = {
  owner : string;
  group : string;
  perm : int;
  size : int;
  kind : kind;
}

(* Sorted parallel arrays: [paths] ascends in [String.compare] order and
   [metas.(i)] belongs to [paths.(i)].  The root "/" is a prefix of
   every other path, so it is always at index 0, and the descendants of
   a directory [d] are the contiguous run of paths that start with
   [d ^ "/"].  Every ancestor of a present path is present. *)
type t = { paths : string array; metas : meta array }

let root_meta =
  { owner = "root"; group = "root"; perm = 0o755; size = 0; kind = Directory }

let empty = { paths = [| "/" |]; metas = [| root_meta |] }

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

(* a canonical path is its own normal form, with no [Ok] to allocate *)
let normalize path =
  if is_canonical path then path
  else
    match canonicalize path with
    | Ok p -> p
    | Error e -> invalid_arg ("Fs: " ^ e)

(* --- sorted-array search ---------------------------------------------------- *)

(* Search keys are prefixes of a path followed by '/': the first [k]
   bytes of [p ^ "/"], read without building the string.  With
   [k <= String.length p] that is a prefix of [p] itself; with [k]
   from [dir_prefix_length p] it is [p]'s directory prefix, which every
   descendant of [p] starts with ("/" for the root). *)
let key_char p i = if i < String.length p then String.unsafe_get p i else '/'

let dir_prefix_length p = if String.length p = 1 then 1 else String.length p + 1

(* The comparison loops are top-level functions of all their
   variables: a local closure would be allocated on every call. *)
let rec compare_from s p i n ls k =
  if i = n then Int.compare ls k
  else
    let c = Char.compare (String.unsafe_get s i) (key_char p i) in
    if c <> 0 then c else compare_from s p (i + 1) n ls k

(* [String.compare s key]; a whole path compares with [String.compare]
   itself, which runs as one [memcmp] *)
let compare_key s p k =
  if k = String.length p then String.compare s p
  else
    let ls = String.length s in
    compare_from s p 0 (if ls < k then ls else k) ls k

let rec equal_from s p i k =
  i = k || (String.unsafe_get s i = key_char p i && equal_from s p (i + 1) k)

(* [s] starts with the key *)
let has_key_prefix s p k = String.length s >= k && equal_from s p 0 k

(* The first index in [lo, hi) of [paths] whose path is not below the
   key. *)
let lower_bound paths p k lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_key paths.(mid) p k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* The index in [0, hi) of the path spelled by the key, or -1. *)
let index_below paths hi p k =
  let i = lower_bound paths p k 0 hi in
  if i < hi && compare_key paths.(i) p k = 0 then i else -1

let index fs p = index_below fs.paths (Array.length fs.paths) p (String.length p)

let rec last_slash p i = if i <= 0 || String.unsafe_get p i = '/' then i else last_slash p (i - 1)

(* Length of a canonical non-root path's parent: its last '/' (1 for a
   child of the root). *)
let parent_length p = max 1 (last_slash p (String.length p - 1))

let with_meta fs i meta =
  let metas = Array.copy fs.metas in
  metas.(i) <- meta;
  { fs with metas }

(* [fs] with [news] inserted: ascending (path, meta) pairs whose paths
   are all absent from [fs]. *)
let insert fs news =
  let n = Array.length fs.paths in
  let size = n + List.length news in
  let paths = Array.make size "" and metas = Array.make size root_meta in
  let rec go i j = function
    | [] ->
        Array.blit fs.paths i paths j (n - i);
        Array.blit fs.metas i metas j (n - i)
    | (p, m) :: rest ->
        let pos = lower_bound fs.paths p (String.length p) i n in
        Array.blit fs.paths i paths j (pos - i);
        Array.blit fs.metas i metas j (pos - i);
        let j = j + (pos - i) in
        paths.(j) <- p;
        metas.(j) <- m;
        go pos (j + 1) rest
  in
  go 0 0 news;
  { paths; metas }

(* --- construction ----------------------------------------------------------- *)

(* The missing ancestors of a present path's absent child are added
   top-down as root-owned directories; every constructor keeps all
   ancestors of a present path present, so the walk up stops at the
   first present one. *)
let add fs path meta =
  let path = normalize path in
  let i = index fs path in
  if i >= 0 then with_meta fs i meta
  else
    let rec with_missing p acc =
      let q = String.sub p 0 (parent_length p) in
      if index fs q >= 0 then acc else with_missing q ((q, root_meta) :: acc)
    in
    insert fs (with_missing path [ (path, meta) ])

(* Whether [q] is the first [k] bytes of [p] or a descendant of them. *)
let on_chain q p k =
  let lq = String.length q in
  (lq = k || (lq > k && String.unsafe_get q k = '/')) && equal_from q p 0 k

(* Whether the parent of [paths.(i)], its first [k] bytes, is among
   the ascending paths before it.  Every ancestor of a listed path is
   listed, so a parent that is the previous path or one of its
   ancestors needs no search. *)
let parent_listed paths i k =
  k = 1 || on_chain paths.(i - 1) paths.(i) k || index_below paths i paths.(i) k >= 0

(* Records that ascend strictly from the root, each after its parent:
   the order of every [Collector.image_to_text] dump.  [paths.(0)] is
   the root sentinel, so a "/" record fails the test. *)
let ascends_parents_first paths =
  let n = Array.length paths in
  let rec from i =
    i >= n
    || String.compare paths.(i - 1) paths.(i) < 0
       && parent_listed paths i (parent_length paths.(i))
       && from (i + 1)
  in
  from 1

(* Any other order: the last record per path wins, and every ancestor
   of a recorded path that no record names is a root-owned directory.
   That is what folding [add] leaves, since [add] never overwrites a
   present ancestor and a later record always overwrites. *)
let of_unordered paths metas =
  let last = Hashtbl.create (Array.length paths) in
  Array.iteri (fun i p -> if i > 0 then Hashtbl.replace last p metas.(i)) paths;
  let entries = ref (Hashtbl.fold (fun p m acc -> (p, m) :: acc) last []) in
  let rec ancestors p =
    let q = String.sub p 0 (parent_length p) in
    if not (Hashtbl.mem last q || q = "/") then begin
      Hashtbl.add last q root_meta;
      entries := (q, root_meta) :: !entries;
      ancestors q
    end
  in
  List.iter (fun (p, _) -> if p <> "/" then ancestors p) !entries;
  if not (Hashtbl.mem last "/") then entries := ("/", root_meta) :: !entries;
  let sorted =
    Array.of_list (List.sort (fun (a, _) (b, _) -> String.compare a b) !entries)
  in
  { paths = Array.map fst sorted; metas = Array.map snd sorted }

(* Records in arrival order, index 0 the root sentinel; the arrays
   double as they fill. *)
type builder = {
  mutable b_paths : string array;
  mutable b_metas : meta array;
  mutable b_n : int;
}

let builder_of_capacity cap =
  { b_paths = Array.make cap "/"; b_metas = Array.make cap root_meta; b_n = 1 }

let builder () = builder_of_capacity 64

let grow a n =
  let g = Array.make (2 * n) a.(0) in
  Array.blit a 0 g 0 n;
  g

let push b path meta =
  let path = normalize path in
  let n = b.b_n in
  if n = Array.length b.b_paths then begin
    b.b_paths <- grow b.b_paths n;
    b.b_metas <- grow b.b_metas n
  end;
  b.b_paths.(n) <- path;
  b.b_metas.(n) <- meta;
  b.b_n <- n + 1

(* Full arrays are taken as they are: a later [push] writes only into
   grown copies. *)
let build b =
  let take a = if Array.length a = b.b_n then a else Array.sub a 0 b.b_n in
  let paths = take b.b_paths and metas = take b.b_metas in
  if ascends_parents_first paths then { paths; metas }
  else of_unordered paths metas

let of_list records =
  let b = builder_of_capacity (List.length records + 1) in
  List.iter (fun (p, m) -> push b p m) records;
  build b

let dir_meta ~owner ~group ~perm = { owner; group; perm; size = 0; kind = Directory }
let file_meta ~owner ~group ~perm ~size = { owner; group; perm; size; kind = Regular }

let symlink_meta ~owner ~group ~target =
  { owner; group; perm = 0o777; size = 0; kind = Symlink target }

let add_dir ?(owner = "root") ?(group = "root") ?(perm = 0o755) fs path =
  add fs path (dir_meta ~owner ~group ~perm)

let add_file ?(owner = "root") ?(group = "root") ?(perm = 0o644) ?(size = 1024)
    fs path =
  add fs path (file_meta ~owner ~group ~perm ~size)

let add_symlink ?(owner = "root") ?(group = "root") fs path ~target =
  add fs path (symlink_meta ~owner ~group ~target)

let remove fs path =
  match canonicalize path with
  | Error _ | Ok "/" -> fs
  | Ok path ->
      let prefix = path ^ "/" in
      let keep i =
        let p = fs.paths.(i) in
        p <> path && not (Encore_util.Strutil.starts_with ~prefix p)
      in
      let kept =
        Array.of_list
          (List.filter keep (List.init (Array.length fs.paths) Fun.id))
      in
      { paths = Array.map (fun i -> fs.paths.(i)) kept;
        metas = Array.map (fun i -> fs.metas.(i)) kept }

(* --- queries ---------------------------------------------------------------- *)

let lookup fs path =
  match canonicalize path with
  | Error _ -> None
  | Ok p ->
      let i = index fs p in
      if i >= 0 then Some fs.metas.(i) else None

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

(* Walk the descendants of [path] in path order: the contiguous run of
   paths under its directory prefix, found by binary search (the root,
   at index 0, is nobody's descendant).  [f q k m] gets a descendant's
   path, the prefix length (its suffix starts at [k]) and its metadata;
   a [true] return short-circuits the walk. *)
let subtree_exists fs path f =
  match canonicalize path with
  | Error _ -> false
  | Ok p ->
      let k = dir_prefix_length p and n = Array.length fs.paths in
      let rec walk i =
        i < n
        &&
        let q = fs.paths.(i) in
        has_key_prefix q p k && (f q k fs.metas.(i) || walk (i + 1))
      in
      walk (max 1 (lower_bound fs.paths p k 0 n))

let is_child q k = not (String.contains_from q k '/')

(* the walk meets the children in path order, which for one common
   prefix is the order of their basenames *)
let children fs path =
  let acc = ref [] in
  ignore
    (subtree_exists fs path (fun q k _ ->
         if is_child q k then acc := String.sub q k (String.length q - k) :: !acc;
         false));
  List.rev !acc

let direct_child_exists fs path pred =
  subtree_exists fs path (fun q k m -> is_child q k && pred m)

let has_subdir fs path = direct_child_exists fs path (fun m -> m.kind = Directory)

let has_symlink fs path =
  direct_child_exists fs path (fun m ->
      match m.kind with Symlink _ -> true | Regular | Directory -> false)

let all_paths fs = List.tl (Array.to_list fs.paths)

let update fs path f =
  match canonicalize path with
  | Error _ -> fs
  | Ok p ->
      let i = index fs p in
      if i < 0 then fs else with_meta fs i (f fs.metas.(i))

let chown fs path ~owner ~group = update fs path (fun m -> { m with owner; group })
let chmod fs path ~perm = update fs path (fun m -> { m with perm })

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
  let acc = ref acc in
  for i = 1 to Array.length fs.paths - 1 do
    acc := f fs.paths.(i) fs.metas.(i) !acc
  done;
  !acc
