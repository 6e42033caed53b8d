(** Compiled detection engine: the compile-once / check-many serving
    path.

    A learned {!model} is an exchange format — assoc lists and plain
    rule lists, easy to serialize and diff — but walking it per checked
    image makes every check a linear re-scan of the whole model.
    {!compile} builds, once per model, the hashed indices the four
    detector checks actually need:

    - a known-attribute set and a near-miss index (attribute basenames
      precomputed, length-pruned scan) for the misspelling check;
    - a target assembler with the type environment hashed once
      ({!Encore_dataset.Assemble.target_assembler});
    - the correlation rules as an array in learned order (evaluating a
      rule whose attributes the image lacks is a single failed hash
      probe, cheaper at paper scale than per-attribute bucketing);
    - one merged per-attribute column table: the type decision with its
      syntactic matcher resolved to a closure at compile time
      ({!Encore_typing.Syntactic.matcher}), and the training-value hash
      set — with each seen value's syntactic verdict precomputed — plus
      its cardinality for the Inverse-Change-Frequency score.  The type
      and value checks run as one fused walk, a single probe per row
      pair.

    {!check} over the compiled form is byte-identical in output to the
    interpreted walk it replaces ({!Detector.check} is now a thin
    compile-then-check wrapper, and an equivalence property test in
    [test/test_engine.ml] pins the contract against a reference
    interpreted implementation).  A compiled engine is immutable after
    {!compile} and safe to share across pool worker domains —
    {!Pipeline.check_fleet} compiles once and fans the image list
    out. *)

type model = {
  types : Encore_typing.Infer.env;
  rules : Encore_rules.Template.rule list;
  value_stats : (string * string list) list;
      (** attribute -> distinct training values *)
  known_attrs : string list;
  training_count : int;
  overflowed : bool;
      (** Always [false] from learning; kept for the frozen benchmark
          (see [Detector.model]). *)
}

type checks = {
  check_names : bool;
  check_rules : bool;
  check_types : bool;
  check_values : bool;
}

val all_checks : checks

type t
(** A compiled engine.  Read-only after {!compile}; share freely across
    domains. *)

val compile : model -> t
(** Build the hashed indices.  O(model size); every subsequent
    {!check} touches only the buckets the target image hits. *)

val model : t -> model
(** The model the engine was compiled from. *)

val check :
  ?checks:checks -> t -> Encore_sysenv.Image.t -> Warning.t list
(** Ranked warnings (best first) for a target image — the paper's four
    checks over the compiled indices.  Identical output to the
    historical interpreted [Detector.check]. *)

(** {2 Delta-scoped checking}

    The granular entry points below expose the per-attribute / per-rule
    units {!check} is built from, so an incremental caller (the serve
    watch path) can re-evaluate only the units a config-change delta
    touches and splice the results into a cached verdict.  Each unit is
    independent of every other: a unit's output depends only on the
    engine, the image's environment, and the named attribute's (or
    rule's slot attributes') row instances — so re-running the touched
    units over the mutated image and keeping the rest cached is
    warning-for-warning identical to a full {!check}. *)

val assemble_row : t -> Encore_sysenv.Image.t -> Encore_dataset.Row.t
(** The compiled target assembler: config entries plus augmented and
    environment attributes, exactly the row {!check} builds
    internally. *)

val name_warning : t -> string -> Warning.t option
(** One attribute's entry-name verdict.  [None] when the attribute is
    known or not an original config entry. *)

val rule_count : t -> int
(** Number of compiled correlation rules; valid indices for
    {!rule_warning} are [0 .. rule_count - 1], in learned order. *)

val rules_touching : t -> string list -> int list
(** Ascending, duplicate-free indices of every rule naming one of the
    attributes in either slot — the rules a delta over those columns
    can affect. *)

val rule_warning : t -> Encore_rules.Relation.ctx -> int -> Warning.t option
(** One rule's verdict in a target context.  [None] when the rule holds
    or its slot attributes are absent. *)

val column_warnings_for :
  t ->
  Encore_sysenv.Image.t ->
  attr:string ->
  values:string list ->
  Warning.t list * Warning.t list
(** Type and suspicious-value verdicts for one attribute's row
    instances, in instance order — [(type_warnings, value_warnings)],
    the same pairs the fused full-row walk emits for that attribute. *)
