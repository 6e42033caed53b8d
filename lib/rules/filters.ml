let attribute_entropy view attr =
  match Encore_dataset.Colview.id view attr with
  | None -> Encore_util.Stats.entropy []
  | Some id ->
      let col = Encore_dataset.Colview.column view id in
      Encore_util.Stats.entropy (Array.fold_right ( @ ) col [])

let pair_key (r : Template.rule) =
  if r.attr_a <= r.attr_b then (r.attr_a, r.attr_b) else (r.attr_b, r.attr_a)

(* Spanning tree per equivalence class: keep a rule only if its two
   attributes were not already connected by kept rules. *)
let spanning_tree rules =
  let parent = Hashtbl.create 32 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None -> x
    | Some p -> if p = x then x else find p
  in
  List.filter
    (fun (r : Template.rule) ->
      let ra = find r.attr_a and rb = find r.attr_b in
      if ra = rb then false
      else begin
        Hashtbl.replace parent ra rb;
        true
      end)
    (Infer.sort_rules rules)

(* Hasse reduction of a strict order: drop (a,c) when kept rules give
   a<b and b<c. *)
let order_reduce rules =
  let edges = Hashtbl.create 32 in
  List.iter
    (fun (r : Template.rule) -> Hashtbl.replace edges (r.attr_a, r.attr_b) ())
    rules;
  List.filter
    (fun (r : Template.rule) ->
      let has_midpoint =
        List.exists
          (fun (m : Template.rule) ->
            m.attr_a = r.attr_a && m.attr_b <> r.attr_b
            && Hashtbl.mem edges (m.attr_b, r.attr_b))
          rules
      in
      not has_midpoint)
    rules

let reduce_redundant rules =
  let is_rel rel (r : Template.rule) = r.template.Template.relation = rel in
  let eq_all = List.filter (is_rel Relation.Eq_all) rules in
  let eq_pairs = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace eq_pairs (pair_key r) ()) eq_all;
  let eq_exists =
    List.filter
      (fun r ->
        is_rel Relation.Eq_exists r && not (Hashtbl.mem eq_pairs (pair_key r)))
      rules
  in
  let num_less = List.filter (is_rel Relation.Num_less) rules in
  let size_less = List.filter (is_rel Relation.Size_less) rules in
  let others =
    List.filter
      (fun (r : Template.rule) ->
        match r.template.Template.relation with
        | Relation.Eq_all | Relation.Eq_exists | Relation.Num_less
        | Relation.Size_less ->
            false
        | _ -> true)
      rules
  in
  Infer.sort_rules
    (spanning_tree eq_all @ spanning_tree eq_exists @ order_reduce num_less
     @ order_reduce size_less @ others)

let entropy_filter ?(threshold = Encore_util.Stats.entropy_threshold_90_10)
    ?view training rules =
  let view =
    match view with
    | Some v -> v
    | None -> Encore_dataset.Colview.of_rows (List.map snd training)
  in
  (* memoize per-attribute entropy: many rules share attributes *)
  let cache = Hashtbl.create 64 in
  let entropy attr =
    match Hashtbl.find_opt cache attr with
    | Some h -> h
    | None ->
        let h = attribute_entropy view attr in
        Hashtbl.add cache attr h;
        h
  in
  List.partition
    (fun (r : Template.rule) ->
      entropy r.attr_a > threshold && entropy r.attr_b > threshold)
    rules
