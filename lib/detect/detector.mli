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

    Evaluation happens in {!Engine}: {!check} compiles the model and
    runs the compiled engine, so single-shot checking and fleet
    checking share exactly one evaluation path.  To check many images
    against one model, compile once with {!Engine.compile} (or use
    [Pipeline.check_fleet]). *)

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

val learn :
  ?params:Encore_rules.Infer.params ->
  ?templates:Encore_rules.Template.t list ->
  ?entropy_threshold:float ->
  ?pool:Encore_util.Pool.t ->
  Encore_sysenv.Image.t list -> model
(** Full learning pipeline, the one every entry point shares: fold the
    images into sufficient statistics ({!Encore_rules.Suffstats}), then
    finalize them — decide types, assemble the training set, infer
    rules from the templates through the counts engine, apply
    support/confidence plus the redundancy and entropy filters.  With
    [pool], the finalize step runs on its worker domains; the model is
    identical for any pool size. *)

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
    {!learn}. *)

type checks = Engine.checks = {
  check_names : bool;
  check_rules : bool;
  check_types : bool;
  check_values : bool;
}

val all_checks : checks

val check :
  ?checks:checks -> model -> Encore_sysenv.Image.t -> Warning.t list
(** Ranked warnings (best first) for a target image: [Engine.check]
    over a freshly compiled engine. *)
