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
    augmentation): the candidates {!evaluate} judges, by name. *)

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
(** The final rule order of {!evaluate}: confidence desc, then support
    desc; stable. *)

val min_support_of : params:params -> int -> int
(** Minimum applicable count over a training set of the given size. *)

type counts
(** Per-candidate [(applicable, valid)] counts over the first [n] rows
    of a view, keyed by template and attribute names. *)

val evaluate :
  ?pool:Encore_util.Pool.t ->
  ?prior:counts ->
  params:params ->
  templates:Template.t list ->
  types:Encore_typing.Infer.env ->
  images:Encore_sysenv.Image.t array ->
  view:Encore_dataset.Colview.t ->
  bits:Encore_dataset.Bitcol.t ->
  unit ->
  counts * Template.rule list
(** The candidate evaluator: every learning path counts and judges
    through it.  [images], [view] and [bits] must cover the same rows in
    the same order.

    Every candidate of [templates] ({!expand_polarities} applied) over
    the view's attributes ({!instantiations}, in view column order) is
    counted: popcounts over the presence bitsets and scans of typed
    value arrays for the equality, boolean implication and numeric and
    size order relations, per-row {!Relation.eval} over the co-presence
    intersection for the environment-dependent ones (paths, accounts,
    subnets).  Candidates are counted in fixed 256-candidate shards,
    on [pool] when given; shard boundaries depend only on the candidate
    list, so the result is byte-identical at every pool size — the
    paper notes the instantiation loop "is highly parallelizable
    because there is zero state sharing" (section 5.1).

    [prior] holds the counts an earlier call with the same [templates]
    returned over a prefix of these rows: a candidate it holds is
    counted over the rows past that prefix only (counts are additive
    over a row partition), any other candidate over all rows.

    Each candidate is then judged on its counts: support, vacuity of an
    implication's antecedent, confidence (the template's own floor
    first) and an implication's lift over its consequent's base rate.
    Returns the counts of every candidate over all rows, and the kept
    rules sorted by {!sort_rules}.  Bumps the [rules.candidates],
    [rules.rejected_support], [rules.rejected_confidence] and
    [rules.kept] counters. *)

val infer :
  ?params:params -> ?templates:Template.t list ->
  ?pool:Encore_util.Pool.t ->
  types:Encore_typing.Infer.env -> training -> Template.rule list
(** Learn concrete rules; [templates] defaults to
    {!Template.predefined}.  Lowers the training set to a columnar
    interned view ({!Encore_dataset.Colview}) and its bitset overlay
    ({!Encore_dataset.Bitcol}) and runs {!evaluate} over them.

    The string-keyed reference evaluator in [test/oracle] walks every
    row of every candidate through {!Relation.eval}; a property test
    pins {!infer}, and so {!evaluate}, to it. *)
