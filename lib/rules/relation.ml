module Ctype = Encore_typing.Ctype
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Strutil = Encore_util.Strutil

type t =
  | Eq_all
  | Eq_exists
  | Bool_implies of bool * bool
  | Subnet
  | Concat_path
  | Substring
  | User_in_group
  | Not_accessible
  | Ownership
  | Num_less
  | Size_less

let to_string = function
  | Eq_all -> "equal"
  | Eq_exists -> "equal-exists"
  | Bool_implies (a, b) ->
      Printf.sprintf "bool-implies(%b,%b)" a b
  | Subnet -> "subnet"
  | Concat_path -> "concat-path"
  | Substring -> "substring"
  | User_in_group -> "user-in-group"
  | Not_accessible -> "not-accessible"
  | Ownership -> "ownership"
  | Num_less -> "num-less"
  | Size_less -> "size-less"

let symbol = function
  | Eq_all -> "=="
  | Eq_exists -> "=~"
  | Bool_implies (true, true) -> "~>TT"
  | Bool_implies (true, false) -> "~>TF"
  | Bool_implies (false, true) -> "~>FT"
  | Bool_implies (false, false) -> "~>FF"
  | Subnet -> "<<"
  | Concat_path -> "+"
  | Substring -> "<:"
  | User_in_group -> "@"
  | Not_accessible -> "!@"
  | Ownership -> "=>"
  | Num_less -> "<"
  | Size_less -> "<#"

let of_symbol = function
  | "==" -> Some Eq_all
  | "=~" -> Some Eq_exists
  | "~>TT" -> Some (Bool_implies (true, true))
  | "~>TF" -> Some (Bool_implies (true, false))
  | "~>FT" -> Some (Bool_implies (false, true))
  | "~>FF" -> Some (Bool_implies (false, false))
  | "<<" -> Some Subnet
  | "+" -> Some Concat_path
  | "<:" -> Some Substring
  | "@" -> Some User_in_group
  | "!@" -> Some Not_accessible
  | "=>" -> Some Ownership
  | "<" -> Some Num_less
  | "<#" -> Some Size_less
  | _ -> None

let is_pathish = function
  | Ctype.File_path | Ctype.Partial_file_path | Ctype.File_name | Ctype.Url ->
      true
  | _ -> false

let is_comparable_eq = function
  (* type-based attribute selection: trivial strings and enums carry no
     cross-entry identity; boolean coincidence is covered by the
     extended-boolean template instead *)
  | Ctype.String_t | Ctype.Enum _ | Ctype.Bool_t -> false
  | _ -> true

let slot_a_ok rel (t : Ctype.t) =
  match rel with
  | Eq_all | Eq_exists -> is_comparable_eq t
  | Bool_implies _ -> ( match t with Ctype.Bool_t -> true | _ -> false)
  | Subnet -> t = Ctype.Ip_address
  | Concat_path -> t = Ctype.File_path
  | Substring -> is_pathish t
  | User_in_group -> t = Ctype.User_name
  | Not_accessible -> t = Ctype.File_path
  | Ownership -> t = Ctype.File_path
  | Num_less -> ( match t with Ctype.Number | Ctype.Port_number -> true | _ -> false)
  | Size_less -> t = Ctype.Size

let slot_b_ok rel (t : Ctype.t) =
  match rel with
  | Eq_all | Eq_exists -> is_comparable_eq t
  | Bool_implies _ -> ( match t with Ctype.Bool_t -> true | _ -> false)
  | Subnet -> t = Ctype.Ip_address
  | Concat_path -> t = Ctype.Partial_file_path
  | Substring -> is_pathish t
  | User_in_group -> t = Ctype.Group_name
  | Not_accessible -> t = Ctype.User_name
  | Ownership -> t = Ctype.User_name
  | Num_less -> ( match t with Ctype.Number | Ctype.Port_number -> true | _ -> false)
  | Size_less -> t = Ctype.Size

let symmetric = function
  | Eq_all | Eq_exists -> true
  | Bool_implies _ | Subnet | Concat_path | Substring | User_in_group
  | Not_accessible | Ownership | Num_less | Size_less ->
      false

let same_type_required = function
  | Eq_all | Eq_exists | Substring -> true
  | Bool_implies _ | Subnet | Concat_path | User_in_group | Not_accessible
  | Ownership | Num_less | Size_less ->
      false

let truthy v =
  match Strutil.lowercase_ascii (String.trim v) with
  | "on" | "true" | "yes" | "1" | "enabled" -> Some true
  | "off" | "false" | "no" | "0" | "disabled" -> Some false
  | _ -> None

(* B as an address prefix: "10.0.0.0/8" CIDR or a bare address compared
   by dotted prefix. *)
let in_subnet a b =
  match String.index_opt b '/' with
  | Some slash -> (
      let net = String.sub b 0 slash in
      let bits = String.sub b (slash + 1) (String.length b - slash - 1) in
      match int_of_string_opt bits with
      | None -> None
      | Some bits ->
          let octets s =
            List.filter_map int_of_string_opt (String.split_on_char '.' s)
          in
          let to_int32 = function
            | [ x; y; z; w ] -> Some ((x lsl 24) lor (y lsl 16) lor (z lsl 8) lor w)
            | _ -> None
          in
          (match (to_int32 (octets a), to_int32 (octets net)) with
           | Some ia, Some inet when bits >= 0 && bits <= 32 ->
               let mask = if bits = 0 then 0 else -1 lsl (32 - bits) land 0xFFFFFFFF in
               Some (ia land mask = inet land mask)
           | _ -> None))
  | None -> if a = b then Some true else Some (Strutil.starts_with ~prefix:(b ^ ".") (a ^ "."))

(* Every / some (x, y) pair satisfies [f], in list order.  Plain
   recursion rather than nested [List.for_all] closures: this runs once
   per rule per checked image, and per row of every generic candidate
   when learning. *)
let rec all_with f x = function [] -> true | y :: ys -> f x y && all_with f x ys

let rec all_pairs f xs ys =
  match xs with [] -> true | x :: xs -> all_with f x ys && all_pairs f xs ys

let rec any_with f x = function [] -> false | y :: ys -> f x y || any_with f x ys

let rec exists_pair f xs ys =
  match xs with [] -> false | x :: xs -> any_with f x ys || exists_pair f xs ys

let opt_all_pairs (f : string -> string -> bool option) xs ys =
  (* None if any pair is inapplicable; Some conjunction otherwise.
     One pass, no materialized pair-result list: this runs per row per
     generic-fallback candidate, where the cons garbage was measurable
     at fleet scale. *)
  if xs = [] || ys = [] then None
  else
    let rec outer conj = function
      | [] -> Some conj
      | x :: xs' -> (
          let rec inner conj = function
            | [] -> Some conj
            | y :: ys' -> (
                match f x y with
                | None -> None
                | Some b -> inner (conj && b) ys')
          in
          match inner conj ys with
          | None -> None
          | Some conj -> outer conj xs')
    in
    outer true xs

let eval rel (image : Encore_sysenv.Image.t) ~a ~b =
  if a = [] || b = [] then None
  else
    match rel with
    | Eq_all -> Some (all_pairs String.equal a b)
    | Eq_exists -> Some (exists_pair String.equal a b)
    | Bool_implies (pa, pb) ->
        (* No |a|*|b| pair list: inapplicable when any instance fails to
           parse as a boolean; otherwise ∀(x,y). x=pa ⇒ y=pb factors
           into per-side for_alls because the pair predicate is a
           disjunction of per-side predicates. *)
        if
          List.exists (fun x -> truthy x = None) a
          || List.exists (fun y -> truthy y = None) b
        then None
        else
          Some
            (List.for_all (fun x -> truthy x <> Some pa) a
            || List.for_all (fun y -> truthy y = Some pb) b)
    | Subnet -> opt_all_pairs in_subnet a b
    | Concat_path ->
        Some
          (all_pairs
             (fun root frag ->
               Fs.exists image.fs (Strutil.path_join root frag))
             a b)
    | Substring -> Some (all_pairs (fun x y -> Strutil.contains_sub y x) a b)
    | User_in_group ->
        Some
          (all_pairs
             (fun user group -> Accounts.user_in_group image.accounts ~user ~group)
             a b)
    | Not_accessible ->
        Some
          (all_pairs
             (fun path user ->
               let groups = Accounts.groups_of_user image.accounts user in
               Fs.exists image.fs path
               && not (Fs.readable_by image.fs ~user ~groups path))
             a b)
    | Ownership ->
        Some
          (all_pairs
             (fun path user ->
               match Fs.lookup image.fs path with
               | Some m -> m.Fs.owner = user
               | None -> false)
             a b)
    | Num_less ->
        opt_all_pairs
          (fun x y ->
            match (Strutil.parse_number x, Strutil.parse_number y) with
            | Some fx, Some fy -> Some (fx < fy)
            | _ -> None)
          a b
    | Size_less ->
        opt_all_pairs
          (fun x y ->
            match (Strutil.parse_size x, Strutil.parse_size y) with
            | Some sx, Some sy -> Some (sx < sy)
            | _ -> None)
          a b
