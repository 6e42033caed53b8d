(** Global thresholds of the EnCore pipeline, with the paper's defaults
    (section 7.3): confidence 90 %, support 10 % of the training set,
    entropy threshold Ht = 0.325, plus this reproduction's warning-score
    detection threshold used when a binary detected/missed verdict is
    needed. *)

type t = {
  min_confidence : float;
  min_support_frac : float;
  entropy_threshold : float;
  detection_score : float;
      (** a warning counts as a detection when its score reaches this *)
  seed : int;  (** master seed for the deterministic experiments *)
  jobs : int;
      (** domains for the learning pipeline, the calling one included
          (default 1 = sequential; the CLI defaults its [-j] flag to
          [Domain.recommended_domain_count]).  Learned models are
          identical for every value. *)
}

val default : t

val rule_params : t -> Encore_rules.Infer.params
