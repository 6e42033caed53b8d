module Tinfer = Encore_typing.Infer
module Template = Encore_rules.Template
module Suffstats = Encore_rules.Suffstats

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
