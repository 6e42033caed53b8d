(** Rule filtering (paper section 5.2).

    Support and confidence thresholds are enforced during inference; the
    third metric, Shannon entropy, is applied here as a separate pass so
    that its cost/benefit can be measured (paper Table 13): a rule
    survives only if *every* participating attribute has entropy above
    the threshold in the training table — near-constant attributes
    mostly generate noise rules. *)

val entropy_filter :
  ?threshold:float -> ?view:Encore_dataset.Colview.t -> Infer.training ->
  Template.rule list -> Template.rule list * Template.rule list
(** [(kept, dropped)] partition.  [threshold] defaults to
    {!Encore_util.Stats.entropy_threshold_90_10} (0.325).  An
    attribute's entropy is taken over its column of [view], a columnar
    view over the training rows, built from them when not given. *)

val reduce_redundant : Template.rule list -> Template.rule list
(** Drop rules implied by the remaining ones:
    - an Eq-exists rule shadowed by an Eq rule on the same pair;
    - transitively redundant equality rules (for each equivalence class
      a spanning tree of rules is kept, highest confidence first);
    - transitively redundant orderings ([a<c] dropped when [a<b] and
      [b<c] are kept).
    Detection power is preserved up to rule granularity while the rule
    list stays close to the minimal set a human would write. *)
