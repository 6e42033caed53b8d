(** The EnCore anomaly detector (paper section 6).

    A learned [model] packages everything the checking side needs: the
    type environment, the learned rules and the per-attribute training
    value statistics.  Checking a target image performs the paper's four
    checks and returns a ranked warning list:

    1. entry-name violation: an attribute never seen in training,
       flagged as a likely misspelling when a near-identical trained
       attribute exists;
    2. correlation violation: a learned rule evaluates to false in the
       target context (rules whose attributes are absent are skipped);
    3. data-type violation: a value fails the syntactic match or the
       semantic verification of its column's learned type;
    4. suspicious value: a value never observed in training, ranked by
       Inverse Change Frequency — unseen values of low-diversity
       columns rank highest.

    Models are learned through [Pipeline.learn_result] or
    [Pipeline.learn_durable].  Checking happens in {!Engine}: compile a
    model once with {!Engine.compile}, then run {!Engine.check} (or
    {!Engine.verdict}) per target image; [Pipeline.check_fleet] does
    both for a list of targets. *)

type model = Engine.model = {
  types : Encore_typing.Infer.env;
  rules : Encore_rules.Template.rule list;
  value_stats : (string * string list) list;
      (** attribute -> distinct training values *)
  known_attrs : string list;
  training_count : int;
  overflowed : bool;
      (** Always [false] from learning, which no longer runs an FP-growth
          capacity probe.  The field stays because the frozen benchmark
          (perfbench/) still reads it; {!Model_io} keeps reading and
          writing its optional marker, so older model files that carry
          it still load and round-trip.  No check reads it. *)
}

val model_of_finalized : Encore_rules.Suffstats.finalized -> model
(** Repackage a finalized sufficient-statistics model. *)

val model_of_training :
  ?params:Encore_rules.Infer.params ->
  ?templates:Encore_rules.Template.t list ->
  ?entropy_threshold:float ->
  ?pool:Encore_util.Pool.t ->
  types:Encore_typing.Infer.env ->
  (Encore_sysenv.Image.t * Encore_dataset.Row.t) list -> model
(** {!Encore_rules.Suffstats.finalize_training} over an
    already-assembled training set, repackaged.  Kept only because the
    frozen benchmark (perfbench/) links it; learning goes through
    [Pipeline]. *)
