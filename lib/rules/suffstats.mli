(** Mergeable sufficient statistics for the learning pipeline.

    Every model quantity — per-attribute typing tallies and
    distinct-value summaries, candidate-rule (applicable, valid)
    counts — derives from a value of type {!t} with the algebra

    {[ empty   add_image   merge   finalize ]}

    where [merge] is associative, [add_image t img = merge t
    (add_image empty img)], and finalizing (through {!learner_of} /
    {!current}) reproduces the batch learner byte-identically:
    partitioning a corpus arbitrarily, folding each part and merging
    in corpus order yields the exact model of a one-shot batch learn.

    On top of the algebra sits a resident {!learner} that keeps the
    derived caches (columnar view, bitset overlay, per-candidate
    counts) alive so {!append} folds new images
    in sublinear time: only appended rows are scanned unless a type
    decision shifts, in which case it transparently falls back to a
    full rebuild — the result is identical either way. *)

type t
(** Sufficient statistics over a multiset of system images.  Includes
    the images themselves (models need the training rows for
    redundancy/entropy filtering and value statistics); everything
    else is per-attribute summaries whose size is independent of the
    corpus. *)

val empty : t
val add_image : t -> Encore_sysenv.Image.t -> t

val merge : t -> t -> t
(** Associative; [merge empty t = merge t empty = t].  Corpus order is
    left-then-right, so a deterministic left-to-right reduction over
    corpus-ordered shards equals the sequential fold. *)

val of_images :
  ?pool:Encore_util.Pool.t -> ?shards:int ->
  Encore_sysenv.Image.t list -> t
(** Fold the corpus, optionally partitioned into [shards] contiguous
    chunks learned on the pool's domains and recombined with an
    order-preserving [merge] reduction.  Identical result for every
    [shards] and pool size. *)

val n_images : t -> int
val images : t -> Encore_sysenv.Image.t list
(** Corpus order. *)

(** The finalized model quantities, structurally what
    [Detector.model] carries (duplicated here because [detect]
    depends on [rules], not the reverse). *)
type finalized = {
  f_types : Encore_typing.Infer.env;
  f_rules : Template.rule list;
  f_value_stats : (string * string list) list;
  f_known_attrs : string list;
  f_training_count : int;
}

type learner
(** Resident finalized state: the model plus the caches needed to
    extend it incrementally. *)

val learner_of :
  ?pool:Encore_util.Pool.t ->
  ?params:Infer.params ->
  ?templates:Template.t list ->
  ?entropy_threshold:float ->
  t -> learner
(** Finalize: assemble the corpus under the tallied type decisions,
    judge every candidate through the counts engine, and filter. *)

val append :
  ?pool:Encore_util.Pool.t ->
  learner -> Encore_sysenv.Image.t list -> learner
(** Fold new images into the statistics and refresh the model.  When
    every previously-decided raw column keeps its type, only the new
    rows are assembled and scanned (candidate counts extend by their
    row-range delta); otherwise the learner rebuilds from the merged
    statistics.  In both cases the result equals
    [learner_of (fold add_image stats images)]. *)

val stats : learner -> t
val current : learner -> finalized

(** {2 Versioned persistence payload}

    Line-oriented text: the corpus as byte-framed
    {!Encore_sysenv.Collector} image dumps, then the per-column
    tallies.  Raw rows are re-derived by parsing on load (parsing is
    deterministic), so the payload never stores derived state.  Framed
    by {!payload_schema} at the snapshot layer. *)

val payload_schema : string
(** ["ENCORE-SUFFSTATS 1"]. *)

val to_payload : t -> string

val of_payload : string -> (t, string) result
(** Total inverse of {!to_payload}. *)
