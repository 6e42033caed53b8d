type result = { frequent : (Itemset.t * int) list; overflowed : bool }

(* Children and header chains are hashtable-backed: tree insertion and
   conditional-base extraction are the miner's hot path, and the assoc
   lists they replace made every child lookup linear in the fanout. *)
type node = {
  item : int;
  mutable count : int;
  parent : node option;
  children : (int, node) Hashtbl.t;
}

type tree = {
  root : node;
  header : (int, node list ref) Hashtbl.t;  (** item -> node chain *)
}

let new_node ?parent item =
  { item; count = 0; parent; children = Hashtbl.create 4 }

let tree_insert tree sorted_items count =
  let rec go node = function
    | [] -> ()
    | item :: rest ->
        let child =
          match Hashtbl.find_opt node.children item with
          | Some c -> c
          | None ->
              let c = new_node ~parent:node item in
              Hashtbl.add node.children item c;
              (match Hashtbl.find_opt tree.header item with
               | Some chain -> chain := c :: !chain
               | None -> Hashtbl.add tree.header item (ref [ c ]));
              c
        in
        child.count <- child.count + count;
        go child rest
  in
  go tree.root sorted_items

(* Order items by descending support (ties by item id) and drop
   infrequent ones. *)
let order_items ~min_support weighted_transactions =
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (items, w) ->
      List.iter
        (fun item ->
          Hashtbl.replace counts item
            (w + Option.value ~default:0 (Hashtbl.find_opt counts item)))
        items)
    weighted_transactions;
  let frequent =
    Hashtbl.fold
      (fun item c acc -> if c >= min_support then (item, c) :: acc else acc)
      counts []
  in
  let rank = Hashtbl.create (List.length frequent) in
  List.iteri
    (fun i (item, _) -> Hashtbl.add rank item i)
    (List.sort
       (fun (ia, ca) (ib, cb) ->
         match compare cb ca with 0 -> compare ia ib | c -> c)
       frequent);
  (rank, frequent)

let build_tree ~min_support weighted_transactions =
  let rank, frequent = order_items ~min_support weighted_transactions in
  let tree = { root = new_node (-1); header = Hashtbl.create 64 } in
  List.iter
    (fun (items, w) ->
      let kept =
        items
        |> List.filter (fun i -> Hashtbl.mem rank i)
        |> List.sort (fun a b -> compare (Hashtbl.find rank a) (Hashtbl.find rank b))
      in
      if kept <> [] then tree_insert tree kept w)
    weighted_transactions;
  (tree, frequent)

(* Path from a node up to (excluding) the root. *)
let prefix_path node =
  let rec go acc n =
    match n.parent with
    | None -> acc
    | Some p -> if p.item = -1 then acc else go (p.item :: acc) p
  in
  go [] node

(* --- telemetry ----------------------------------------------------------- *)

let m_itemsets = Encore_obs.Metrics.counter "mining.fpgrowth.itemsets"
let g_tree_nodes = Encore_obs.Metrics.gauge "mining.fpgrowth.tree_nodes"
let g_max_depth = Encore_obs.Metrics.gauge "mining.fpgrowth.max_depth"
let g_headroom = Encore_obs.Metrics.gauge "mining.fpgrowth.cap_headroom"

let rec node_count n =
  Hashtbl.fold (fun _ c acc -> acc + node_count c) n.children 1

(* Record the shape of one mining run: size of the initial FP-tree,
   deepest conditional-tree recursion, and how much of the itemset cap
   was left unused (0 on overflow). *)
let record_run ~tree ~max_depth ~emitted ~max_itemsets =
  Encore_obs.Metrics.set g_tree_nodes (float_of_int (node_count tree.root - 1));
  Encore_obs.Metrics.set_max g_max_depth (float_of_int max_depth);
  Encore_obs.Metrics.incr ~by:emitted m_itemsets;
  Encore_obs.Metrics.set g_headroom
    (float_of_int (max 0 (max_itemsets - emitted)))

let conditional_base tree item =
  match Hashtbl.find_opt tree.header item with
  | None -> []
  | Some chain ->
      List.filter_map
        (fun node ->
          match prefix_path node with
          | [] -> None
          | path -> Some (path, node.count))
        !chain

(* --- the walk ------------------------------------------------------------- *)

exception Overflow

(* Han, Pei & Yin's depth-first walk: emit each frequent item of the
   current tree joined to the suffix, then recurse into its conditional
   pattern base.  One counter bounds the whole walk: the emission past
   [max_itemsets] raises, so an overflowing run stops after cap + 1
   emissions and what it emitted is the uncapped walk's prefix.
   Returns the emission count (at most cap + 1) and the overflow
   flag. *)
let walk ~max_itemsets ~min_support ~emit transactions =
  let n = ref 0 and max_depth = ref 0 in
  let rec grow (tree, frequent) suffix depth =
    if depth > !max_depth then max_depth := depth;
    List.iter
      (fun (item, support) ->
        let itemset = item :: suffix in
        incr n;
        if !n > max_itemsets then raise Overflow;
        emit itemset support;
        match conditional_base tree item with
        | [] -> ()
        | base -> grow (build_tree ~min_support base) itemset (depth + 1))
      frequent
  in
  let top =
    build_tree ~min_support
      (Array.to_list (Array.map (fun tx -> (Array.to_list tx, 1)) transactions))
  in
  let overflowed =
    try
      grow top [] 0;
      false
    with Overflow -> true
  in
  record_run ~tree:(fst top) ~max_depth:!max_depth ~emitted:!n ~max_itemsets;
  (!n, overflowed)

let mine ?(max_itemsets = 2_000_000) ~min_support transactions =
  let out = ref [] in
  let _, overflowed =
    walk ~max_itemsets ~min_support transactions ~emit:(fun itemset c ->
        out := (Itemset.of_list itemset, c) :: !out)
  in
  { frequent = List.rev !out; overflowed }

let count_only ?(max_itemsets = 2_000_000) ?pool:_ ~min_support transactions =
  walk ~max_itemsets ~min_support ~emit:(fun _ _ -> ()) transactions
