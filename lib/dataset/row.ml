(* Representation: reversed list of pairs, an attribute index for
   lookups, and the distinct attribute names in reverse first-seen
   order.  The index buckets hold instances in source order; they are
   built by prepending (reversed) and flipped once per bucket, so
   constructing a row from n pairs is O(n) instead of the quadratic
   [existing @ [ value ]] append-per-pair. *)
type t = {
  rev_pairs : (string * string) list;
  index : (string, string list) Hashtbl.t;
  rev_attrs : string list;
}

let empty = { rev_pairs = []; index = Hashtbl.create 4; rev_attrs = [] }

let of_list pairs =
  let index = Hashtbl.create (max 4 (List.length pairs)) in
  (* one index probe per pair; buckets accumulate newest-first and are
     flipped once at the end, when some attribute repeated *)
  let repeated = ref false in
  let rev_attrs =
    List.fold_left
      (fun acc (attr, value) ->
        match Hashtbl.find_opt index attr with
        | Some values ->
            repeated := true;
            Hashtbl.replace index attr (value :: values);
            acc
        | None ->
            Hashtbl.add index attr [ value ];
            attr :: acc)
      [] pairs
  in
  if !repeated then
    Hashtbl.filter_map_inplace (fun _ values -> Some (List.rev values)) index;
  { rev_pairs = List.rev pairs; index; rev_attrs }

let add t attr value =
  let index = Hashtbl.copy t.index in
  let existing = Option.value ~default:[] (Hashtbl.find_opt index attr) in
  Hashtbl.replace index attr (existing @ [ value ]);
  {
    rev_pairs = (attr, value) :: t.rev_pairs;
    index;
    rev_attrs =
      (if Hashtbl.mem t.index attr then t.rev_attrs else attr :: t.rev_attrs);
  }

let to_list t = List.rev t.rev_pairs

let get t attr =
  match Hashtbl.find_opt t.index attr with
  | Some (v :: _) -> Some v
  | Some [] | None -> None

let get_all t attr = Option.value ~default:[] (Hashtbl.find_opt t.index attr)

let mem t attr =
  match Hashtbl.find_opt t.index attr with
  | Some (_ :: _) -> true
  | Some [] | None -> false

let attrs t = List.rev t.rev_attrs

let cardinal t = List.length t.rev_pairs

let union a b = of_list (to_list a @ to_list b)
