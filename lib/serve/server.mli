(** The serve daemon's core: transport-free request handling with
    bounded queueing, load shedding, supervised processing and graceful
    drain.

    The core is deliberately free of I/O: {!offer} hands it a raw
    request line, {!step} processes one queued request, and both return
    the responses to write.  {!Mux} is the one transport loop: it feeds
    every connection, the daemon's own stdin/stdout included, through
    {!offer_from}/{!step_routed}.  Tests, bench and the chaos storm
    drive {!offer}/{!step} directly.

    Robustness properties, in request order:
    - oversized lines are rejected {e before} queueing, so queue memory
      is bounded by [queue_capacity * max_request_bytes];
    - a full queue sheds the request with an [overloaded] error
      response — the daemon never buffers unboundedly;
    - malformed requests are answered with typed
      {!Encore_util.Resilience} errors, never a crash;
    - check/watch processing runs under a per-request deadline and
      yields ranked partial verdicts on expiry;
    - a crash inside the worker is contained to its request: the
      supervisor answers the request with a typed error, counts a
      restart, and gates subsequent work through a circuit breaker
      (open circuit → requests denied during backoff, half-open trial
      after the cooldown);
    - detections land in a bounded drop-oldest {!Ring}; the drain path
      flushes surviving alerts and reports the drop count;
    - shutdown (a request, the transport's end of input, or
      {!request_shutdown} from a signal handler) finishes the queued
      requests, flushes the ring, emits a final [bye] summary and
      stops.

    Metrics: [serve.requests], [serve.shed], [serve.errors],
    [serve.restarts], [serve.breaker_denied], [serve.ring_dropped],
    [serve.partial], [serve.reloads], [serve.reload_rollbacks],
    [serve.journal_replayed], [serve.queue_depth] (high-water), and
    the [serve.request_us] latency histogram (p99 source for bench).

    Telemetry (PR 7): every admitted request is assigned a trace id at
    {!offer} ([t-NNNNNN], monotonic per server) that is echoed in a
    [trace] field of each response and stamped onto the
    [serve-request] span, joining responses to the JSONL event log.
    Worker latency additionally feeds a rolling
    {!Encore_obs.Window} (p50/p90/p99 over the last ten seconds); a
    runtime {!Encore_obs.Sampler} polled on {!step} mirrors GC stats plus
    [serve.sampled.queue_depth] / [.queue_occupancy] / [.breaker] /
    [.ring_dropped] / [.sessions] gauges on its cadence.  The
    [metrics] verb exposes the registry as Prometheus text (or JSON
    with the window view); the [health] verb derives an ok / degraded
    / unhealthy verdict from rolling p99 vs. a 250 ms threshold, breaker
    state, queue occupancy and lifecycle, with the reasons listed —
    both bypass the breaker so the daemon stays observable while
    degraded. *)

exception Injected_crash
(** Raised by the [crash] fault-injection op; chaos drills use it to
    exercise the supervisor. *)

type config = {
  queue_capacity : int;  (** pending requests before shedding *)
  max_request_bytes : int;  (** larger lines are rejected unqueued *)
  deadline_polls : int option;
      (** per-request unit-poll budget (deterministic; wins over
          [deadline_s]) *)
  deadline_s : float option;  (** per-request wall-clock budget *)
  ring_capacity : int;  (** alert ring bound *)
  alert_score : float;  (** warnings at or above it count as detections
                            and enter the ring *)
  breaker_threshold : int;  (** worker crashes before the circuit opens *)
  breaker_cooldown : int;  (** denied requests before a half-open trial *)
}
(** The daemon's fixed settings are not here: it keeps 128 watch
    sessions (the oldest evicted), a rolling window of ten one-second
    intervals, a one-second sampler cadence, a 250 ms p99 health
    threshold and 8 recent checks replayed in shadow against a reload
    candidate before the cache generation bumps. *)

val default_config : config

type t

val create :
  ?config:config ->
  ?journal:Journal.t ->
  ?learner:(Encore_sysenv.Image.t -> (string, string) result) ->
  Cache.t ->
  t
(** With [journal], every admitted worker request (check / watch /
    crash) is appended and fsynced before queueing and marked complete
    after its response is produced — the write-ahead log {!replay}
    recovers from after a crash.

    [learner] enables the [learn-append] verb: it folds one observed
    image into the daemon's resident learning statistics (persisting
    them and refreshing whatever the cache's provider reads), returns
    [Ok note] describing the fold, and the server then adopts the
    refreshed model through the shadow-validated reload path.
    Learn-append requests are never journaled — their durability is
    the statistics store the hook writes, and replaying one against
    recovered statistics would double-count the image. *)

val offer : t -> string -> Encore_obs.Jsonenc.t list
(** Admit one raw request line, parsing it once.  [[]] when queued (or
    ignored: blank line, draining daemon); immediate error responses
    when the line is oversized or the queue sheds it. *)

val offer_from :
  t -> ?origin:int -> string -> Encore_obs.Jsonenc.t list
(** {!offer} with a connection tag: responses to this request come out
    of {!step_routed} carrying [origin], so a multiplexed transport can
    route them to the right client.  Immediate rejections returned here
    belong to the same origin. *)

val step : t -> Encore_obs.Jsonenc.t list
(** Parse and process one queued request; [[]] when the queue is
    empty. *)

val step_routed : t -> (int option * Encore_obs.Jsonenc.t) list
(** {!step}, with each response tagged by the origin passed to
    {!offer_from} ([None] for {!offer} or internally generated
    responses, e.g. a SIGHUP-requested reload — route those to the
    default sink). *)

val pending : t -> int

val max_request_bytes : t -> int
(** The configured request bound, which is also {!Mux}'s frame bound:
    it buffers at most this many bytes of one line. *)

val state : t -> [ `Running | `Draining | `Stopped ]

val request_shutdown : t -> unit
(** Begin graceful drain (idempotent).  Safe to call from a signal
    handler: it writes one field. *)

val request_reload : t -> unit
(** Ask for a shadow-validated model reload ahead of the next queued
    request (the SIGHUP hook).  Safe to call from a signal handler: it
    writes one field.  The reload response comes out of {!step_routed}
    with no origin. *)

val replay :
  t ->
  entries:Journal.entry list ->
  emit:(Journal.entry -> Encore_obs.Jsonenc.t list -> unit) ->
  int
(** Crash recovery: re-execute journaled entries in admission order on
    a freshly created server, rebuilding the committed state (alert
    ring, watch sessions, counters) a crash destroyed.  Responses reuse
    the journaled trace ids, so an entry's replayed responses are
    byte-identical to what the uninterrupted run produced (completed
    entries) or would have produced (uncompleted ones).  [emit] sees
    every entry with its responses; deliver the uncompleted ones — the
    completed were already delivered before the crash.  Uncompleted
    entries are marked complete in the attached journal as they
    replay.  Returns the number of entries replayed. *)

val drain_flush : t -> Encore_obs.Jsonenc.t list
(** Flush the alert ring and produce the final [bye] summary; moves the
    daemon to [`Stopped].  {!Mux} calls this once the queue is empty
    after shutdown — call it directly only when driving
    {!offer}/{!step} by hand. *)

val exit_code : t -> int
(** [0] clean; [3] degraded — load was shed, the worker restarted, or
    the ring dropped alerts.  (Malformed requests answered with typed
    errors are normal service, not degradation.) *)

val shed_count : t -> int
val restart_count : t -> int
val ring_dropped : t -> int

val replayed_count : t -> int
(** Journal entries re-executed by {!replay} on this server. *)

val reload_rollback_count : t -> int
(** Reload attempts refused after shadow validation failed. *)

val alerts : t -> Encore_obs.Jsonenc.t list
(** Current alert-ring contents, oldest first, non-destructively — the
    crash-recovery drills compare these byte-for-byte across replays. *)

val latency_window : t -> Encore_obs.Window.view
(** The rolling request-latency view (µs) as of now — what the
    [metrics] and [health] verbs report; bench records its p50/p99
    alongside its own measurements. *)

val health_verdict : t -> string * string list
(** The current health verdict (["ok"] / ["degraded"] /
    ["unhealthy"]) and its reasons — the [health] verb's core,
    exposed for direct drivers (tests, chaos storm). *)
