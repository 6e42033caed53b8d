module Rinfer = Encore_rules.Infer
module Relation = Encore_rules.Relation
module Template = Encore_rules.Template
module Colview = Encore_dataset.Colview
module Row = Encore_dataset.Row

type training = Rinfer.training

let evaluate_instantiation template training ~a ~b =
  List.fold_left
    (fun (applicable, valid) (image, row) ->
      let va = Row.get_all row a and vb = Row.get_all row b in
      if va = [] || vb = [] then (applicable, valid)
      else
        match
          Relation.eval template.Template.relation image ~a:va ~b:vb
        with
        | None -> (applicable, valid)
        | Some true -> (applicable + 1, valid + 1)
        | Some false -> (applicable + 1, valid))
    (0, 0) training

type columnar = { cols : Colview.t; images : Encore_sysenv.Image.t array }

let columnar_of_training training =
  {
    cols = Colview.of_rows (List.map snd training);
    images = Array.of_list (List.map fst training);
  }

let column c attr =
  match Colview.id c.cols attr with
  | Some id -> Colview.column c.cols id
  | None -> [||]

let evaluate_instantiation_cols template c ~ca ~cb =
  let applicable = ref 0 and valid = ref 0 in
  let n = Array.length c.images in
  if Array.length ca = n && Array.length cb = n then
    for i = 0 to n - 1 do
      let va = ca.(i) and vb = cb.(i) in
      if va <> [] && vb <> [] then
        match
          Relation.eval template.Template.relation c.images.(i) ~a:va ~b:vb
        with
        | None -> ()
        | Some true ->
            incr applicable;
            incr valid
        | Some false -> incr applicable
    done;
  (!applicable, !valid)

let antecedent_support_cols relation ~ca =
  match relation with
  | Relation.Bool_implies (pa, _) ->
      Some
        (Array.fold_left
           (fun acc values ->
             if List.exists (fun v -> Relation.truthy v = Some pa) values then
               acc + 1
             else acc)
           0 ca)
  | _ -> None

let consequent_base_rate_cols relation ~cb =
  match relation with
  | Relation.Bool_implies (_, pb) ->
      let present = ref 0 and matching = ref 0 in
      Array.iter
        (fun values ->
          if values <> [] then begin
            incr present;
            if List.for_all (fun v -> Relation.truthy v = Some pb) values then
              incr matching
          end)
        cb;
      if !present = 0 then None
      else Some (float_of_int !matching /. float_of_int !present)
  | _ -> None

(* an implication must beat its consequent's base rate by this margin *)
let min_lift_margin = 0.05

let evaluate_candidate ~params ~min_support c (template, a, b) =
  let ca = column c a and cb = column c b in
  let applicable, valid = evaluate_instantiation_cols template c ~ca ~cb in
  let vacuous =
    match antecedent_support_cols template.Template.relation ~ca with
    | Some s -> s < min_support
    | None -> false
  in
  if applicable < min_support || vacuous then Rinfer.Rejected_support
  else
    let min_conf =
      Option.value ~default:params.Rinfer.min_confidence
        template.Template.min_confidence
    in
    let confidence = float_of_int valid /. float_of_int applicable in
    let lifts =
      match consequent_base_rate_cols template.Template.relation ~cb with
      | Some base -> confidence >= base +. min_lift_margin
      | None -> true
    in
    if confidence >= min_conf && lifts then
      Rinfer.Kept
        { Template.template; attr_a = a; attr_b = b;
          support = applicable; confidence }
    else Rinfer.Rejected_confidence

let candidates_of ~types ~templates attrs =
  List.concat_map
    (fun template ->
      List.map
        (fun (a, b) -> (template, a, b))
        (Rinfer.instantiations ~types template attrs))
    templates

let infer_reference ?(params = Rinfer.default_params)
    ?(templates = Template.predefined) ~types training =
  let templates = Rinfer.expand_polarities templates in
  let min_support = Rinfer.min_support_of ~params (List.length training) in
  let columnar = columnar_of_training training in
  Rinfer.sort_rules
    (List.filter_map
       (fun cand ->
         match evaluate_candidate ~params ~min_support columnar cand with
         | Rinfer.Kept rule -> Some rule
         | Rinfer.Rejected_support | Rinfer.Rejected_confidence -> None)
       (candidates_of ~types ~templates (Colview.attrs columnar.cols)))

let rule_holds (r : Template.rule) image row =
  Relation.eval r.Template.template.Template.relation image
    ~a:(Row.get_all row r.Template.attr_a)
    ~b:(Row.get_all row r.Template.attr_b)

module Dump_ref = Dump_ref
module Ini_ref = Ini_ref
module Apache_ref = Apache_ref
module Augment_ref = Augment_ref
