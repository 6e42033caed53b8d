(** Template-guided rule inference (paper section 5.1, Figure 5).

    For each template, every ordered pair of attributes whose inferred
    types match the slots is a candidate instantiation.  The relation's
    validation method is evaluated on every training image where both
    attributes are present; an instantiation becomes a candidate rule
    when it is applicable often enough (support) and holds almost always
    (confidence).  The entropy filter is applied separately (see
    {!Filters}) so its effect can be measured, as the paper does in
    Table 13. *)

type training = (Encore_sysenv.Image.t * Encore_dataset.Row.t) list

type params = {
  min_support_frac : float;  (** fraction of training images, default 0.10 *)
  min_confidence : float;    (** default 0.90 *)
}

val default_params : params

val instantiations :
  types:Encore_typing.Infer.env -> Template.t -> string list ->
  (string * string) list
(** Eligible ordered attribute pairs for a template, in [attrs] order,
    excluding self-pairs and pairs of augmented attributes sharing one
    base entry (an entry trivially correlates with its own
    augmentation): the candidates {!infer} judges, by name. *)

val expand_polarities : Template.t list -> Template.t list
(** The predefined extended-boolean template names one relation but
    stands for every implication polarity; expand each [Bool_implies]
    template into its four (antecedent, consequent) polarity variants
    under the same template name. *)

type verdict =
  | Kept of Template.rule
  | Rejected_support      (** applicable too rarely, or vacuous *)
  | Rejected_confidence   (** confident too rarely, or no lift *)

val sort_rules : Template.rule list -> Template.rule list
(** The final rule order of {!infer}: confidence desc, then support
    desc; stable. *)

val min_support_of : params:params -> int -> int
(** Minimum applicable count over a training set of the given size. *)

val emit_metrics :
  candidates:int -> rej_support:int -> rej_confidence:int -> kept:int -> unit
(** Bump the [rules.*] counters, exactly as {!infer} does. *)

(** {2 Counts engine}

    The one candidate judge.  An engine is built once over a columnar
    view and its bitset overlay; {!infer} and the sufficient-statistics
    learner ({!Suffstats}) both count candidates through it and judge
    the counts with {!engine_verdict}, so every learning path shares
    one verdict code path.  The learner caches per-candidate
    [(applicable, valid)] counts and re-derives verdicts without
    re-scanning the training rows. *)

type engine

val engine_of :
  types:Encore_typing.Infer.env ->
  ctxs:Relation.ctx array ->
  view:Encore_dataset.Colview.t ->
  bits:Encore_dataset.Bitcol.t ->
  engine
(** [ctxs], [view] and [bits] must cover the same rows in the same
    order. *)

val engine_instantiations :
  engine -> Template.t -> (Template.t * int * int) list
(** Candidates of one template over the engine's attributes, as
    (template, attr-id, attr-id) in {!infer}'s generation order. *)

val engine_attr : engine -> int -> string
(** Attribute name of a column id. *)

val engine_counts : engine -> Template.t * int * int -> int * int
(** [(applicable, valid)] for a candidate over all rows — the fast
    bitset path, without the support pruning (the counts themselves
    decide support). *)

val engine_counts_from :
  engine -> from_row:int -> Template.t * int * int -> int * int
(** [(applicable, valid)] restricted to rows [>= from_row]: the
    incremental delta when rows are appended.  Counts are additive over
    a row partition, so [engine_counts eng c = old_counts + delta] when
    the engine extends an overlay whose counts were [old_counts]. *)

val engine_verdict :
  engine -> params:params -> min_support:int -> Template.t * int * int ->
  applicable:int -> valid:int -> verdict
(** The fate {!infer} would assign the candidate given its counts:
    vacuity and lift are answered from the engine's per-attribute
    caches, support and confidence from the supplied counts. *)

val infer :
  ?params:params -> ?templates:Template.t list -> ?jobs:int ->
  ?pool:Encore_util.Pool.t -> ?view:Encore_dataset.Colview.t ->
  types:Encore_typing.Infer.env -> training -> Template.rule list
(** Learn concrete rules; [templates] defaults to
    {!Template.predefined}.  Rules are sorted by decreasing confidence,
    then support.

    The training set is lowered to a columnar interned view
    ({!Encore_dataset.Colview}, or [view] when the caller already built
    one over the same rows) plus a bitset/index overlay
    ({!Encore_dataset.Bitcol}), and an engine ({!engine_of}) over both.
    A vacuous implication, or a candidate whose co-presence popcount
    cannot reach minimum support, is rejected without evaluating its
    relation on any row; the others
    are counted with {!engine_counts} — popcounts and flat array scans
    for the equality, boolean implication and numeric/size order
    relations, per-row {!Relation.eval} over the co-presence
    intersection for the environment-dependent ones (paths, accounts,
    subnets) — and judged with {!engine_verdict}.

    Candidates fan out to the pool in fixed-size shards, each folding
    into a domain-local accumulator (kept rules + rejection counters);
    shard boundaries are independent of the job count and the merge
    preserves shard order, so the result is byte-identical for every
    pool size and [jobs] value — the paper notes the instantiation loop
    "is highly parallelizable because there is zero state sharing"
    (section 5.1).  Without [pool], [jobs] (default 1) spins up a
    transient pool of that many domains.

    The string-keyed reference evaluator in [test/oracle] walks every
    row of every candidate through {!Relation.eval}; a property test
    pins {!infer} to it. *)
