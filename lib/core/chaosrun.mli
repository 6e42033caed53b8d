(** Chaos harness: storm a training population with pipeline faults and
    measure that resilient learning degrades gracefully.

    The experiment the robustness claims hang on: generate a clean
    per-application population, damage a fraction of it with
    {!Encore_inject.Chaos} faults (truncated files, garbage bytes,
    permanently flapping probes), learn through
    {!Pipeline.learn_durable}, and compare the chaos-trained model
    against a model trained on the undamaged population over the same
    ConfErr-injected target.  A resilient pipeline must (a) never
    raise, (b) quarantine exactly the stormed images, and (c) keep its
    detection power on clean targets. *)

type outcome = {
  population : int;      (** clean images generated *)
  victims : string list; (** image ids damaged by the storm *)
  report : Pipeline.ingest_report;
  quarantine_exact : bool;
      (** quarantined ids = victim ids (set equality) *)
  telemetry_consistent : bool;
      (** the learning run's {!Encore_obs.Events} log reconciles exactly
          with [report]: one [diag] event per histogram entry and one
          [retry] event per counted retry *)
  telemetry_notes : string list;
      (** discrepancies found when reconciling (empty when consistent) *)
  injected : int;        (** ground-truth faults in the check target *)
  clean_detected : int;  (** faults found by the model trained undamaged *)
  chaos_detected : int;  (** faults found by the chaos-trained model *)
  notes : string list;   (** degraded-mode notes from the target check *)
}

val run :
  ?config:Config.t ->
  ?n:int ->
  ?fraction:float ->
  ?faults:Encore_inject.Fault.pipeline_fault list ->
  ?max_retries:int ->
  ?app:Encore_sysenv.Image.app ->
  seed:int ->
  unit ->
  (outcome, Encore_util.Resilience.diagnostic) result
(** [n] images (default 50) of [app] (default Mysql), storm [fraction]
    (default 0.3) of them with [faults] (default all pipeline faults),
    then learn and evaluate.  Deterministic in [seed].  [Error] only
    when the whole population is quarantined. *)

val outcome_to_string : outcome -> string

(** {1 Durability drill}

    The storm harness for the model store
    ({!Encore_inject.Fault.durability_fault}): learn a model from a
    stormed population, save it twice, tear and bit-flip snapshot files
    and prove the store detects the damage and rolls back to the
    reference model. *)

type durability_outcome = {
  truncate_detected : bool;
      (** a torn (truncated) snapshot fails to load with a typed error *)
  bitflip_detected : bool;
      (** a bit-flipped snapshot fails to load with a typed error *)
  rollback_ok : bool;
      (** after tearing the head snapshot, the store rolled back to the
          previous good one and returned the reference model *)
  durability_notes : string list;  (** discrepancies (empty on success) *)
}

val durability :
  ?config:Config.t ->
  ?n:int ->
  ?fraction:float ->
  ?app:Encore_sysenv.Image.app ->
  dir:string ->
  seed:int ->
  unit ->
  (durability_outcome, Encore_util.Resilience.diagnostic) result
(** Run the drill under [dir] (a snapshot store is created beneath it;
    the caller owns cleanup) on a stormed population of [n] images
    (default 12, [fraction] damaged).  Deterministic in [seed].  [Error]
    only when the reference run itself cannot learn. *)

val durability_outcome_to_string : durability_outcome -> string

(** {1 Serve storm}

    The robustness drill for the resident daemon: replay a large
    request storm — bursts that overflow the bounded queue, malformed
    and oversized lines, crash-injection ops, a mid-storm reload —
    against an {!Encore_serve.Server} driven directly through
    [offer]/[step], and check the daemon's contract: it sheds load but
    never crashes, answers every request it queued, keeps the alert
    ring inside its bound, answers every watch byte-identically to an
    independent full check of the mutated image, and drains cleanly on
    shutdown.

    The storm also exercises the telemetry verbs: [metrics] scrapes and
    [health] probes ride in the mix (including one right behind each
    crash burst, while the breaker is open), so it checks that both
    stay serviceable under overload, that the exposition body is valid
    Prometheus text, that the health verdict degrades when the breaker
    opens and recovers to [ok] by the end, and that every check/watch
    response carries a trace id. *)

type serve_outcome = {
  serve_requests : int;   (** request lines replayed *)
  serve_malformed : int;  (** mangled lines in the mix (>= 5%) *)
  serve_oversized : int;  (** over-limit lines in the mix (>= 5%) *)
  serve_crash_ops : int;  (** crash-injection ops in the mix *)
  serve_queued : int;     (** lines the server accepted onto its queue *)
  serve_answered : int;   (** responses produced for queued lines *)
  serve_shed : int;       (** requests answered [overloaded] at the door *)
  serve_restarts : int;   (** supervised worker crashes *)
  serve_ring_dropped : int;
  serve_all_answered : bool;  (** answered = queued (nothing lost) *)
  serve_ring_bound_ok : bool;
      (** the ring length never exceeded its capacity (sampled at every
          status response) *)
  serve_drained : bool;   (** bye emitted, daemon stopped *)
  serve_watch_verified : int;
      (** watch verdicts compared against an independent full check *)
  serve_watch_identical : bool;  (** every comparison was byte-identical *)
  serve_metrics_served : int;  (** ok metrics scrapes answered *)
  serve_metrics_valid : bool;
      (** every scrape body was well-formed Prometheus text with
          counter, gauge and histogram families *)
  serve_rule_counters_seen : bool;
      (** a [detect_rule_fired] per-rule counter appeared in a scrape *)
  serve_health_served : int;  (** ok health probes answered *)
  serve_health_degraded_seen : bool;
      (** a non-[ok] verdict was observed (breaker open after a crash
          burst) *)
  serve_health_final : string;  (** verdict of the last probe ("ok") *)
  serve_traced : bool;
      (** every check/watch response carried a trace id *)
  serve_exit : int;       (** the daemon's exit code (0 or 3) *)
  serve_notes : string list;  (** discrepancies (empty on success) *)
}

val serve_storm :
  ?config:Config.t ->
  ?requests:int ->
  ?n:int ->
  ?app:Encore_sysenv.Image.app ->
  seed:int ->
  unit ->
  (serve_outcome, Encore_util.Resilience.diagnostic) result
(** Replay [requests] lines (default 10000) against a daemon serving a
    model learned from [n] (default 16) generated [app] images.
    Deterministic in [seed]. *)

val serve_outcome_to_string : serve_outcome -> string

(** {1 Transport storm and crash replay}

    The robustness drill for the multiplexed transport and the
    write-ahead request journal (PR 9).  Phase A drives an in-process
    {!Encore_serve.Mux} with concurrent socketpair clients injecting
    transport faults — torn frames followed by mid-write disconnects,
    unterminated floods past the frame bound, one-byte-per-poll slow
    writers — and checks that no committed (intact, correlated) request
    loses its response, responses never land on the wrong client,
    health verdicts stay truthful (non-[ok] iff reasons are listed),
    and every surviving client receives the drain bye.

    Phase B proves crash recovery: journal a request storm, abandon the
    server mid-processing (the in-process [kill -9]), append a torn
    record to the journal tail, then recover.  The replayed responses
    and the rebuilt alert ring must be byte-identical to an
    uninterrupted reference run over the same committed prefix, the
    torn tail must be detected and truncated, and a second
    restart-and-replay must land on identical state (idempotence). *)

type transport_outcome = {
  tr_clients : int;
  tr_frames : int;        (** scripted frames across all clients *)
  tr_faults : int;        (** torn / flood / slow frames (>= 5%) *)
  tr_committed : int;     (** intact correlated requests sent *)
  tr_lost : int;          (** committed requests never answered (0) *)
  tr_misrouted : int;     (** responses seen on the wrong client (0) *)
  tr_overflow_answers : int;
      (** typed uncorrelated overflow rejections received by flooders *)
  tr_reconnects : int;    (** client reconnects after injected tears *)
  tr_health_probes : int;
  tr_health_truthful : bool;
      (** every verdict was ok/degraded/unhealthy and non-[ok] iff
          reasons were listed *)
  tr_bye_all : bool;      (** every surviving client got the drain bye *)
  tr_exit : int;          (** daemon exit code after the drain *)
  cr_requests : int;      (** requests offered before the kill *)
  cr_journaled : int;     (** entries recovered from the journal *)
  cr_completed : int;     (** entries with completion marks *)
  cr_replayed : int;      (** uncompleted entries re-emitted on recovery *)
  cr_tail_truncated : bool;  (** the injected torn tail was cut *)
  cr_responses_identical : bool;
      (** per-entry responses (pre-crash committed + replayed) match the
          uninterrupted reference byte-for-byte *)
  cr_ring_identical : bool;  (** recovered alert ring matches reference *)
  cr_replay_idempotent : bool;  (** second replay lands on same state *)
  tr_notes : string list;  (** discrepancies (empty on success) *)
}

val transport_storm :
  ?config:Config.t ->
  ?requests:int ->
  ?clients:int ->
  ?n:int ->
  ?app:Encore_sysenv.Image.app ->
  dir:string ->
  seed:int ->
  unit ->
  (transport_outcome, string) result
(** Run both phases under [dir] (journals are created beneath it; the
    caller owns cleanup): [clients] concurrent clients (default 6,
    minimum 2) exchange up to [min requests 2000] transport-phase
    frames, then the crash drill journals [requests] (default 10000)
    storm lines and kills at 60%.  Deterministic in [seed] (socketpair
    scheduling does not affect the committed-response accounting). *)

val transport_ok : transport_outcome -> bool
(** Every contract held: nothing lost or misrouted, fault mix >= 5%,
    health truthful, byes delivered, torn tail truncated, replay
    converged and idempotent, no notes. *)

val transport_outcome_to_string : transport_outcome -> string
