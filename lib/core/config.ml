type t = {
  min_confidence : float;
  min_support_frac : float;
  entropy_threshold : float;
  detection_score : float;
  seed : int;
  jobs : int;
}

let default =
  {
    min_confidence = 0.90;
    min_support_frac = 0.10;
    entropy_threshold = Encore_util.Stats.entropy_threshold_90_10;
    detection_score = 0.55;
    seed = 42;
    jobs = 1;
  }

let rule_params t =
  {
    Encore_rules.Infer.min_support_frac = t.min_support_frac;
    min_confidence = t.min_confidence;
  }
