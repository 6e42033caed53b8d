(** End-to-end EnCore pipeline (paper Figure 2): data collection and
    assembly, rule inference, anomaly detection — one facade over the
    substrate libraries, parameterized by {!Config}.

    Every model is built one way: the training images are folded into
    sufficient statistics ({!Encore_rules.Suffstats}), which are then
    finalized — types decided, rows assembled, candidates counted and
    judged through the counts engine, rules filtered.  Two entry points
    learn from images.  {!learn_result} assumes a clean corpus.
    {!learn_durable} is total: every fallible ingestion step reports
    through {!Encore_util.Resilience.diagnostic}, damaged images are
    quarantined instead of killing the run, the returned
    {!ingest_report} accounts for every failure, and a deadline bounds
    the run.  {!stats_of_images}, {!learner_result} and
    {!learn_append} expose the fold and the finalize step separately,
    for incremental learning.  All of them produce byte-identical
    models on the same corpus.

    Checking goes through a compiled engine: {!Encore_detect.Engine.compile}
    once per model, then {!Encore_detect.Engine.check} (or
    {!Encore_detect.Engine.verdict}) per image; {!check_fleet} does
    both for a list of targets. *)

type model = Encore_detect.Detector.model

val learn_result :
  ?config:Config.t -> ?custom:string -> ?pool:Encore_util.Pool.t ->
  Encore_sysenv.Image.t list ->
  (model, Encore_util.Resilience.diagnostic) result
(** Learn a model from training images: fold them into sufficient
    statistics ({!stats_of_images}), then finalize those, under one
    [learn] span.  [custom] is the text of a customization file (paper
    Figure 6): its types are registered and its templates used in
    addition to the predefined ones.  A malformed customization file
    yields [Error] with kind [Custom_rule_error].

    Parallelism: with [pool], the finalize step's row assembly and
    candidate counting run on its worker domains; the fold is
    sequential.  Without [pool], a transient pool of [config.jobs]
    workers is used when [config.jobs > 1]; otherwise the pipeline is
    sequential.  The learned model is byte-identical in all cases. *)

(** {1 Fold and finalize, separately}

    The incremental face of learning: statistics fold per image and
    merge associatively ({!Encore_rules.Suffstats}), a resident learner
    finalizes them into a model and extends in sublinear time.  All
    entry points produce models byte-identical to {!learn_result} under
    the same {!Config}. *)

val stats_of_images :
  ?config:Config.t -> ?pool:Encore_util.Pool.t -> ?shards:int ->
  Encore_sysenv.Image.t list -> Encore_rules.Suffstats.t
(** Fold the corpus into sufficient statistics.  With [shards > 1] the
    corpus is partitioned into contiguous chunks learned on the
    configured pool and recombined with an order-preserving merge
    reduction; the result is identical for every shard count and pool
    size. *)

val learner_result :
  ?config:Config.t -> ?custom:string -> ?pool:Encore_util.Pool.t ->
  ?mining_cap:int -> Encore_rules.Suffstats.t ->
  (Encore_rules.Suffstats.learner, Encore_util.Resilience.diagnostic) result
(** Finalize statistics into a resident learner under the configured
    thresholds (and optional customization file, as {!learn_result}).
    The learner's model is byte-identical to {!learn_result}'s on the
    same corpus.

    [mining_cap] is accepted and ignored: learning no longer runs an
    FP-growth probe, and the argument stays only because the frozen
    benchmark (perfbench/) still passes it. *)

val learn_append :
  ?config:Config.t -> ?pool:Encore_util.Pool.t ->
  Encore_rules.Suffstats.learner -> Encore_sysenv.Image.t list ->
  Encore_rules.Suffstats.learner
(** Fold new images into a resident learner — sublinear in corpus size
    while type decisions hold (see {!Encore_rules.Suffstats.append});
    the refreshed model always equals a batch relearn over the grown
    corpus. *)

val model_of_learner : Encore_rules.Suffstats.learner -> model

(** {1 Resilient ingestion} *)

type mode =
  | Keep_going  (** quarantine damaged images, train on the survivors *)
  | Fail_fast   (** surface the first fatal diagnostic as [Error] *)

(** The stages of a {!learn_durable} run, in order: ingest (probe and
    parse each image), assemble (fold the survivors into sufficient
    statistics) and model (finalize them). *)
type stage = Ingest | Assemble | Model

type run_status =
  | Completed
  | Timed_out_at of stage
      (** the deadline expired while this stage was running; the stages
          before it completed *)

val run_status_to_string : run_status -> string

type ingest_report = {
  total : int;            (** images offered for training *)
  ok : int;               (** images that survived probing and parsing *)
  quarantined : (string * Encore_util.Resilience.diagnostic list) list;
      (** image id -> fatal diagnostics, in quarantine order *)
  retried : int;          (** probe retries performed across the run *)
  total_backoff_ms : int; (** virtual backoff accumulated by retries *)
  warnings : Encore_util.Resilience.diagnostic list;
      (** recoverable diagnostics: skipped config lines, dropped or
          truncated metadata records, an expired deadline *)
  histogram : (Encore_util.Resilience.error_kind * int) list;
      (** every diagnostic of the run (fatal and recoverable) counted
          by kind; total = quarantine diagnostics + warnings *)
  status : run_status;
}

val default_mining_cap : int
(** The itemset cap learning's FP-growth probe used to run with.
    Learning no longer reads it; it stays because the frozen benchmark
    (perfbench/) still sizes its mining metrics by it. *)

type outcome = {
  model : model option;
      (** [None] only when the run timed out before the model stage
          finished *)
  stats : Encore_rules.Suffstats.t option;
      (** the survivors' folded statistics, which the model finalizes;
          [None] only when the run timed out before the assemble stage
          finished *)
  report : ingest_report;
}

val learn_durable :
  ?config:Config.t ->
  ?custom:string ->
  ?mode:mode ->
  ?max_retries:int ->
  ?flaky:Encore_sysenv.Flaky.t ->
  ?pool:Encore_util.Pool.t ->
  ?shards:int ->
  ?deadline:Encore_util.Deadline.t ->
  Encore_sysenv.Image.t list ->
  (outcome, Encore_util.Resilience.diagnostic) result
(** Total learning path, returning the folded statistics beside the
    model.  The run proceeds in three {!stage}s: ingest, which keeps
    the images that survive probing and parsing; assemble, which folds
    those images into sufficient statistics (with [shards > 1], in that
    many contiguous chunks on the pool, merged in order — the
    statistics are identical for every shard count); and model, which
    finalizes them.

    Ingest probes each image through [flaky] (default: a reliable
    simulator — only the image's own flakiness can fail it) with up to
    [max_retries] deterministic retries, then parses it through the
    diagnostic lens registry.  Images whose probe never succeeds or
    whose config payload is damaged are quarantined ([Keep_going],
    default) or returned as [Error] ([Fail_fast]).  [Error] in
    keep-going mode only for a malformed customization file or a
    fully-quarantined population.

    Parallelism follows the same rule as {!learn_result}: an explicit
    [pool], else a transient pool of [config.jobs] workers.  In
    keep-going mode probing, parsing and the finalize fan out (the fold
    too, with [shards > 1]); each image probes against its own fork of the flaky
    simulator's PRNG stream, taken in image order, so draws do not
    depend on scheduling.  Fail-fast mode probes sequentially, so no
    draw is made past the first failure.  The model and ingest report
    are byte-identical for any pool size.

    With [deadline], the token is polled at every stage boundary,
    before every probe, and (via {!Encore_util.Pool.with_deadline}) at
    every pooled work item.  Expiry is graceful: the result is [Ok] with
    [model = None], [stats] kept when the fold finished, and
    [report.status = Timed_out_at stage], plus a [Timed_out] warning
    diagnostic and a [deadline] event.  Nothing of the run persists; a
    rerun starts from the images again.  Persist the statistics
    ({!Stats_io}) to keep learning state across runs.  Never raises. *)

val exit_code : (outcome, Encore_util.Resilience.diagnostic) result -> int
(** Process exit code for a durable run: [0] for a clean completed run,
    [3] for a degraded one (timed out or quarantined images), [1] for a
    failed one.  [2] is reserved for usage errors
    (set by the CLI's argument parser). *)

val report_to_string : ingest_report -> string

(** {1 Fleet checking (the serving path)} *)

type fleet_image_report = {
  fi_image : string;                              (** image id *)
  fi_warnings : Encore_detect.Warning.t list;     (** ranked, best first *)
  fi_detections : int;
      (** warnings at or above the configured detection score *)
}

type fleet_status =
  | Fleet_completed
  | Fleet_timed_out
      (** the deadline expired; the report covers the prefix of the
          targets checked before expiry *)

val fleet_status_to_string : fleet_status -> string

type fleet_report = {
  fleet_total : int;            (** targets offered *)
  fleet_checked : int;          (** targets actually checked *)
  fleet_warning_count : int;
  fleet_detection_count : int;
  fleet_images : fleet_image_report list;  (** in target order *)
  fleet_status : fleet_status;
}

val fleet_image_line : fleet_image_report -> string
(** One image's report as a single JSON line:
    [{"image":…,"warnings":n,"detections":n,"items":[…]}] with each
    item's kind label, score, implicated attributes and message. *)

val check_fleet :
  ?config:Config.t ->
  ?pool:Encore_util.Pool.t ->
  ?deadline:Encore_util.Deadline.t ->
  ?stream:(string -> unit) ->
  model ->
  Encore_sysenv.Image.t list ->
  fleet_report
(** Check many target images against one model.  The model is compiled
    once ({!Encore_detect.Engine.compile}) and the compiled engine —
    immutable — is shared by every worker; each image is checked under
    its own [check] span.  Pool selection follows {!learn_result}: an
    explicit [pool], else a transient pool of [config.jobs] workers,
    else sequential.  Per-image reports come back in target order and
    the rendered output is byte-identical for any pool size.

    [stream] receives each completed image's {!fleet_image_line} in
    target order, as soon as every earlier image is checked too — a
    JSONL sink for fleets too large to hold a report in memory.

    With [deadline], expiry is graceful: checking stops at an image
    ({!Encore_util.Pool.map_prefix} polls the deadline once per image,
    in target order), the report covers the completed prefix with
    [fleet_status = Fleet_timed_out], and a [deadline] event is
    emitted.  A poll-counted deadline leaves the same prefix at every
    pool size.  A [fleet_report] event plus the
    [fleet.images_checked] / [fleet.warnings] counters account for
    every run. *)

val fleet_exit_code : fleet_report -> int
(** [0] for a completed run, [3] for a timed-out (degraded) one —
    the same contract as {!exit_code}; [1]/[2] remain load-failure and
    usage errors, set by the CLI. *)

val fleet_report_to_string : fleet_report -> string

type degraded_check = {
  result : Encore_detect.Warning.t list;
  notes : string list;  (** degradations that limit detection coverage *)
}

val check_degraded :
  ?report:ingest_report -> Encore_detect.Engine.t ->
  Encore_sysenv.Image.t -> degraded_check
(** {!Encore_detect.Engine.check}, annotated with what the engine's
    model {e cannot} see: quarantined training images, failed custom
    lenses, and predefined template classes for which no rule survived
    learning. *)
