(** Fixed domain pool with a chunked task queue.

    A pool of [jobs] runs its work on [jobs] domains: [jobs - 1] worker
    domains it holds for its whole lifetime, plus the submitting
    domain, which runs queued chunks itself while it waits.
    Consecutive parallel stages (ingest parse, dataset augmentation,
    candidate-rule evaluation) reuse the same domains instead of paying
    a spawn/join per stage — the ad-hoc [Domain.spawn] fan-out this
    module replaces.  [Domain.spawn] elsewhere in [lib/] is banned by
    the lint gate.

    Worker domains also outlive pools: {!shutdown} parks them, and
    {!create} adopts parked domains before spawning new ones, so a
    process spawns only as many domains as it ever runs concurrently,
    however many transient pools it creates.  (On OCaml 5.1 a joined
    domain's heap pools stay pinned by whatever it allocated that is
    still live, so spawning per pool grows the heap per call.)  Each
    pool still has its own queue, deadline and shutdown, and pools may
    nest: a task may create, use and shut down a pool of its own.

    Determinism contract: {!map} returns results in input order
    regardless of which worker ran which chunk, and an exception
    raised by [f] is re-raised in the caller for the {e lowest} input
    index that failed.  A pool created with [jobs <= 1] spawns no
    domains and runs everything inline in the caller, making
    [jobs = 1] exactly the sequential path.

    {!map} queues work as chunks, four per domain, to amortize queue
    synchronization; chunk boundaries are invisible in the results.

    Telemetry: every submitted chunk (one per domain for
    {!map_prefix}) increments the [pool.tasks] counter, every domain
    spawned increments [pool.domains_spawned], and [pool.domains_busy]
    records the high-water mark of concurrently busy domains, the
    submitting one included.

    Pools are not reentrant: submit only from outside the pool. *)

type t

val create : jobs:int -> unit -> t
(** Attach [jobs - 1] workers: parked worker domains first, newly
    spawned ones for the rest.  [jobs <= 1] attaches none (inline
    execution).
    [jobs] is capped at [Domain.recommended_domain_count ()]:
    oversubscribing cores only adds contention, so a request for more
    domains than the hardware can schedule degrades gracefully — down
    to inline execution on a single-core host.  Results never depend
    on the effective domain count. *)

val jobs : t -> int

val shutdown : t -> unit
(** Drain the queue, then detach the workers and park their domains
    for a later {!create}; returns once every worker has left this
    pool.  Idempotent; the pool runs inline afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} — even on exceptions. *)

val with_deadline : t -> Deadline.t -> (unit -> 'a) -> 'a
(** Install a cooperative deadline for the duration of the callback:
    every item processed by {!map} (chunked or inline)
    polls the token first, and an expired token aborts the whole call
    with [Deadline.Expired] re-raised in the caller.  Results computed
    before the abort are discarded — a deadline-aborted map yields no
    partial output.  An unlimited token installs nothing. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map f], with [f] applied by the workers. *)

val map_prefix :
  t ->
  deadline:Deadline.t ->
  ?yield:('b list -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b list, 'b list) result
(** Deadline-aware {!map} that survives expiry with a partial result.
    Every domain of the pool, the caller included, claims the next
    item under one lock, which also polls [deadline] once per claimed
    item and records each result; the call waits at a single barrier.
    Polls thus follow input order, so expiry leaves a prefix: [Ok
    results] when every item completed, [Error prefix] when the
    deadline expired, where [prefix] holds the results of every item
    claimed before expiry.  A poll-counted deadline
    ({!Deadline.after_polls}[ k]) leaves the same [k]-item prefix at
    every pool size.  If [f] raises, no further item is claimed, and
    the exception of the lowest failing index is re-raised once the
    claimed items have finished.

    [yield] is called in the caller's domain, in input order: after
    each item the caller runs itself, with the results finished since
    the previous call, and once more at the end.  When the call
    returns, the concatenation of its arguments is exactly the
    returned list.  An exception from [yield] stops the claims and is
    re-raised after the barrier.

    The installed {!with_deadline} token is not polled; [deadline] is
    the only one.  A call on worker domains counts one [pool.tasks]
    task per domain it runs on; an inline call counts none. *)
