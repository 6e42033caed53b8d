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

(* The parsed pairs, then each typed instance's augmentations in pair
   order, then the image globals. *)
let augmented tbl img pairs =
  let rev_aug =
    List.fold_left
      (fun acc (attr, value) ->
        match Hashtbl.find_opt tbl attr with
        | None -> acc
        | Some t -> List.rev_append (Augment.augment t img value) acc)
      [] pairs
  in
  Row.of_list (pairs @ List.rev_append rev_aug (Augment.globals img))

let augment_row ~types =
  let tbl = augmenter types in
  fun img base_row -> augmented tbl img (Row.to_list base_row)

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

let target_assembler ~types =
  let tbl = augmenter types in
  fun img ->
    (* the parsed pairs feed augmentation and the final row directly:
       Row.to_list (Row.of_list pairs) = pairs, so skipping the
       intermediate [parse_only] row changes nothing observable *)
    augmented tbl img
      (List.map (fun (kv : Kv.t) -> (kv.key, kv.value)) (Registry.parse_image img))

let assemble_target ~types img = target_assembler ~types img

let type_of types attr =
  match Infer.find types attr with
  | Some d -> d.Infer.ctype
  | None ->
      if Augment.is_augmented attr then Augment.augmented_type attr
      else Ctype.String_t
