module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Row = Encore_dataset.Row
module Assemble = Encore_dataset.Assemble
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Warning = Encore_detect.Warning
module Template = Encore_rules.Template
module Relation = Encore_rules.Relation
module Kv = Encore_confparse.Kv
module Registry = Encore_confparse.Registry
module Strutil = Encore_util.Strutil

type test_case = {
  rule : Template.rule;
  description : string;
  image : Image.t;
}

let ( let* ) = Option.bind

(* Rewrite one configuration value across whatever app carries the
   attribute.  Returns None when the attribute is not a config entry of
   any of the image's applications. *)
let set_config_value img attr value =
  let app_name = Kv.app_of_key attr in
  match Image.app_of_string app_name with
  | None -> None
  | Some app -> (
      match (Image.config_for img app, Registry.lens_for app_name) with
      | Some cf, Some lens ->
          let kvs = lens.Registry.parse ~app:app_name cf.Image.text in
          if not (List.exists (fun (kv : Kv.t) -> kv.Kv.key = attr) kvs) then None
          else
            let kvs =
              List.map
                (fun (kv : Kv.t) ->
                  if kv.Kv.key = attr then Kv.make attr value else kv)
                kvs
            in
            Some (Image.set_config img app (lens.Registry.render ~app:app_name kvs))
      | _, _ -> None)

(* Build the mutation that violates one rule in the context of [img].
   The row gives the current values of the involved attributes. *)
let violate img row (rule : Template.rule) =
  let a = rule.Template.attr_a and b = rule.Template.attr_b in
  let va = Row.get row a and vb = Row.get row b in
  match (va, vb) with
  | None, _ | _, None -> None
  | Some va, Some vb -> (
      match rule.Template.template.Template.relation with
      | Relation.Ownership ->
          (* environment fault: somebody else takes the path *)
          if Fs.exists img.Image.fs va then
            let fs = Fs.chown img.Image.fs va ~owner:"nobody" ~group:"nogroup" in
            Some
              ( Printf.sprintf "chown nobody %s (was owned by %s)" va vb,
                Image.with_fs img fs )
          else None
      | Relation.User_in_group ->
          Option.map
            (fun img -> (Printf.sprintf "set %s to an outsider account" a, img))
            (set_config_value img a "nobody")
      | Relation.Not_accessible ->
          if Fs.exists img.Image.fs va then
            let fs = Fs.chmod img.Image.fs va ~perm:0o644 in
            Some
              ( Printf.sprintf "chmod 644 %s (exposing it to %s)" va vb,
                Image.with_fs img fs )
          else None
      | Relation.Eq_all | Relation.Eq_exists ->
          Option.map
            (fun img ->
              (Printf.sprintf "desynchronize %s from %s" a b, img))
            (set_config_value img a (va ^ "-stale"))
      | Relation.Size_less -> (
          match Strutil.parse_size vb with
          | Some bound ->
              let above = Strutil.format_size (max 1024 (bound * 4)) in
              Option.map
                (fun img ->
                  (Printf.sprintf "raise %s to %s (bound: %s=%s)" a above b vb, img))
                (set_config_value img a above)
          | None -> None)
      | Relation.Num_less -> (
          match Strutil.parse_number vb with
          | Some bound ->
              let above = string_of_int (int_of_float bound * 4 + 1) in
              Option.map
                (fun img ->
                  (Printf.sprintf "raise %s to %s (bound: %s=%s)" a above b vb, img))
                (set_config_value img a above)
          | None -> None)
      | Relation.Concat_path ->
          Option.map
            (fun img -> (Printf.sprintf "break the %s fragment" b, img))
            (set_config_value img b (vb ^ ".missing"))
      | Relation.Substring ->
          Option.map
            (fun img -> (Printf.sprintf "make %s unrelated to %s" a b, img))
            (set_config_value img a "/unrelated/elsewhere")
      | Relation.Subnet ->
          Option.map
            (fun img -> (Printf.sprintf "move %s off the %s network" a b, img))
            (set_config_value img a "203.0.113.7")
      | Relation.Bool_implies (pa, pb) ->
          (* force the antecedent and negate the consequent *)
          let bool_str v = if v then "On" else "Off" in
          let* img1 = set_config_value img a (bool_str pa) in
          Option.map
            (fun img2 ->
              ( Printf.sprintf "set %s=%b while %s=%b" a pa b (not pb),
                img2 ))
            (set_config_value img1 b (bool_str (not pb))))

let generate model img =
  let row = Assemble.assemble_target ~types:model.Detector.types img in
  List.filter_map
    (fun (rule : Template.rule) ->
      (* only config-entry attributes can be mutated through the lens;
         augmented attributes are reached through their environment
         mutations (ownership/accessibility cases above) *)
      match violate img row rule with
      | Some (description, image) -> Some { rule; description; image }
      | None -> None)
    model.Detector.rules

let verify_detected engine case =
  let warnings = Engine.check engine case.image in
  List.exists
    (fun (w : Warning.t) ->
      match w.Warning.kind with
      | Warning.Correlation_violation r ->
          r.Template.attr_a = case.rule.Template.attr_a
          && r.Template.attr_b = case.rule.Template.attr_b
          && r.Template.template.Template.relation
             = case.rule.Template.template.Template.relation
      | _ -> false)
    warnings
