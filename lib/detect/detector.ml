module Tinfer = Encore_typing.Infer
module Template = Encore_rules.Template
module Suffstats = Encore_rules.Suffstats
module Otrace = Encore_obs.Trace

type model = Engine.model = {
  types : Tinfer.env;
  rules : Template.rule list;
  value_stats : (string * string list) list;
  known_attrs : string list;
  training_count : int;
  overflowed : bool;
}

let model_of_finalized (f : Suffstats.finalized) =
  {
    types = f.Suffstats.f_types;
    rules = f.f_rules;
    value_stats = f.f_value_stats;
    known_attrs = f.f_known_attrs;
    training_count = f.f_training_count;
    overflowed = false;
  }

let model_of_training ?params ?templates ?entropy_threshold ?pool ~types
    training =
  model_of_finalized
    (Suffstats.finalize_training ?pool ?params ?templates ?entropy_threshold
       ~types training)

let learn ?params ?templates ?entropy_threshold ?pool images =
  Otrace.with_span "learn" (fun () ->
      model_of_finalized
        (Suffstats.current
           (Suffstats.learner_of ?pool ?params ?templates ?entropy_threshold
              (Suffstats.of_images images))))

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
