module Row = Encore_dataset.Row
module Assemble = Encore_dataset.Assemble
module Tinfer = Encore_typing.Infer
module Template = Encore_rules.Template
module Rinfer = Encore_rules.Infer
module Filters = Encore_rules.Filters
module Stats = Encore_util.Stats
module Otrace = Encore_obs.Trace
module Ometrics = Encore_obs.Metrics

type model = Engine.model = {
  types : Tinfer.env;
  rules : Template.rule list;
  value_stats : (string * string list) list;
  known_attrs : string list;
  training_count : int;
  overflowed : bool;
}

let m_filtered_redundant = Ometrics.counter "rules.filtered_redundant"
let m_filtered_entropy = Ometrics.counter "rules.filtered_entropy"

let model_of_training ?(params = Rinfer.default_params) ?templates
    ?entropy_threshold ?pool ~types training =
  (* one columnar view shared by inference and the entropy filter *)
  let view =
    Otrace.with_span "columnar" (fun () ->
        Encore_dataset.Colview.of_rows (List.map snd training))
  in
  let inferred =
    Otrace.with_span "rule-infer" (fun () ->
        Rinfer.infer ~params ?templates ?pool ~view ~types training)
  in
  let kept =
    Otrace.with_span "rule-filter" (fun () ->
        let reduced = Filters.reduce_redundant inferred in
        Ometrics.incr
          ~by:(List.length inferred - List.length reduced)
          m_filtered_redundant;
        let kept, dropped =
          Filters.entropy_filter ?threshold:entropy_threshold ~view training
            reduced
        in
        Ometrics.incr ~by:(List.length dropped) m_filtered_entropy;
        kept)
  in
  let known_attrs, value_stats =
    Otrace.with_span "value-stats" (fun () ->
        let attr_order = ref [] in
        let seen = Hashtbl.create 256 in
        let values = Hashtbl.create 256 in
        List.iter
          (fun (_, row) ->
            List.iter
              (fun (attr, v) ->
                if not (Hashtbl.mem seen attr) then begin
                  Hashtbl.add seen attr ();
                  attr_order := attr :: !attr_order
                end;
                Hashtbl.add values attr v)
              (Row.to_list row))
          training;
        let known_attrs = List.rev !attr_order in
        let value_stats =
          List.map
            (fun attr -> (attr, Stats.distinct (Hashtbl.find_all values attr)))
            known_attrs
        in
        (known_attrs, value_stats))
  in
  {
    types;
    rules = kept;
    value_stats;
    known_attrs;
    training_count = List.length training;
    overflowed = false;
  }

let model_of_finalized (f : Encore_rules.Suffstats.finalized) =
  {
    types = f.Encore_rules.Suffstats.f_types;
    rules = f.f_rules;
    value_stats = f.f_value_stats;
    known_attrs = f.f_known_attrs;
    training_count = f.f_training_count;
    overflowed = false;
  }

let learn ?params ?templates ?entropy_threshold ?pool images =
  Otrace.with_span "learn" (fun () ->
      let assembled =
        Otrace.with_span "assemble" (fun () ->
            Assemble.assemble_training ?pool images)
      in
      let rows = Encore_dataset.Table.rows assembled.Assemble.table in
      let training =
        List.map2 (fun img (_, row) -> (img, row)) images rows
      in
      model_of_training ?params ?templates ?entropy_threshold ?pool
        ~types:assembled.Assemble.types training)

type checks = Engine.checks = {
  check_names : bool;
  check_rules : bool;
  check_types : bool;
  check_values : bool;
}

let all_checks = Engine.all_checks

(* The one evaluation path: compile, then check.  Callers holding a
   model and checking many images should {!Engine.compile} once
   themselves (or go through [Pipeline.check_fleet]); this wrapper
   exists for the one-shot callers. *)
let check ?checks model img = Engine.check ?checks (Engine.compile model) img
