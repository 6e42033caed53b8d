module Image = Encore_sysenv.Image
module Registry = Encore_confparse.Registry
module Kv = Encore_confparse.Kv
module Infer = Encore_typing.Infer
module Ctype = Encore_typing.Ctype

type assembled = { table : Table.t; types : Infer.env }

let parse_only img =
  Row.of_list
    (List.map (fun (kv : Kv.t) -> (kv.key, kv.value)) (Registry.parse_image img))

(* The augmenter: the type environment hashed once (first binding wins,
   like [Infer.find]), each typed attribute with its augmentation names
   built once.  Read-only after construction, so pool domains share
   it. *)
let augmenter types =
  let tbl = Hashtbl.create (2 * List.length types + 1) in
  List.iter
    (fun (attr, (d : Infer.decision)) ->
      if not (Hashtbl.mem tbl attr) then
        Hashtbl.add tbl attr (Augment.typed attr d.Infer.ctype))
    types;
  tbl

(* The one pair order of an assembled row: the parsed pairs, then each
   typed instance's augmentations in pair order, then the image
   globals.  [iter_parsed] feeds the parsed pairs; [resolve] runs once
   per pair and its result goes to [visit] with the pair. *)
let walk ~resolve ~augmentation img iter_parsed visit =
  let rev_typed = ref [] in
  iter_parsed (fun attr value ->
      let r = resolve attr in
      visit attr value r;
      match augmentation r with
      | Some t -> rev_typed := (t, value) :: !rev_typed
      | None -> ());
  let visit_all = List.iter (fun (attr, value) -> visit attr value (resolve attr)) in
  List.iter
    (fun (t, value) -> visit_all (Augment.augment t img value))
    (List.rev !rev_typed);
  visit_all (Augment.globals img)

let row_of_walk walk_with =
  let rev = ref [] in
  walk_with (fun attr value _ -> rev := (attr, value) :: !rev);
  Row.of_list (List.rev !rev)

let augment_row ~types =
  let tbl = augmenter types in
  fun img base_row ->
    row_of_walk
      (walk ~resolve:(Hashtbl.find_opt tbl) ~augmentation:Fun.id img (fun f ->
           List.iter (fun (attr, value) -> f attr value) (Row.to_list base_row)))

let pmap pool f xs =
  match pool with
  | Some p -> Encore_util.Pool.map p f xs
  | None -> List.map f xs

let assemble_training ?pool images =
  (* pass 1: parse every image and infer column types on the raw data *)
  let parsed = pmap pool (fun img -> (img, parse_only img)) images in
  let config_types =
    Infer.infer
      (List.map (fun (img, row) -> (img, Row.to_list row)) parsed)
  in
  (* pass 2: augment according to the types *)
  let augment = augment_row ~types:config_types in
  let rows =
    pmap pool (fun (img, row) -> (img.Image.image_id, augment img row)) parsed
  in
  (* infer types for the augmented columns too, so rules can reference
     them; augmentation-derived columns have canonical suffix types *)
  let table = Table.of_rows rows in
  let img_rows =
    List.map2 (fun (img, _) (_, row) -> (img, row)) parsed rows
  in
  let aug_types =
    List.filter_map
      (fun col ->
        if Infer.find config_types col <> None then None
        else if Augment.is_augmented col then
          Some
            ( col,
              { Infer.ctype = Augment.augmented_type col;
                agreement = 1.0;
                samples = Table.column_support table col } )
        else
          (* global attributes: infer from their values *)
          let samples =
            List.filter_map
              (fun (img, row) ->
                match Row.get row col with
                | Some v -> Some (img, v)
                | None -> None)
              img_rows
          in
          Some (col, Infer.infer_column samples))
      (Table.columns table)
  in
  { table; types = config_types @ aug_types }

(* the parsed pairs feed the walk directly: Row.to_list (Row.of_list
   pairs) = pairs, so skipping the intermediate [parse_only] row changes
   nothing observable *)
let walk_target ~resolve ~augmentation img visit =
  walk ~resolve ~augmentation img
    (fun f ->
      List.iter (fun (kv : Kv.t) -> f kv.key kv.value) (Registry.parse_image img))
    visit

let assemble_target ~types =
  let tbl = augmenter types in
  fun img ->
    row_of_walk
      (walk_target ~resolve:(Hashtbl.find_opt tbl) ~augmentation:Fun.id img)

let type_of types attr =
  match Infer.find types attr with
  | Some d -> d.Infer.ctype
  | None ->
      if Augment.is_augmented attr then Augment.augmented_type attr
      else Ctype.String_t
