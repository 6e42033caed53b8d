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

    Determinism contract: {!map} and {!map_reduce} return results in
    input order regardless of which worker ran which chunk, and an
    exception raised by [f] is re-raised in the caller for the
    {e lowest} input index that failed.  A pool created with
    [jobs <= 1] spawns no domains and runs everything inline in the
    caller, making [jobs = 1] exactly the sequential path.

    Work is queued as chunks (several items per task) to amortize queue
    synchronization; chunk boundaries are invisible in the results.

    Telemetry: every submitted chunk increments the [pool.tasks]
    counter, every domain spawned increments [pool.domains_spawned],
    and [pool.domains_busy] records the high-water mark of concurrently
    busy domains, the submitting one included.

    Pools are not reentrant: submit only from outside the pool. *)

type t

val create : ?chunk:int -> jobs:int -> unit -> t
(** Attach [jobs - 1] workers: parked worker domains first, newly
    spawned ones for the rest.  [jobs <= 1] attaches none (inline
    execution).
    [jobs] is capped at [Domain.recommended_domain_count ()]:
    oversubscribing cores only adds contention, so a request for more
    domains than the hardware can schedule degrades gracefully — down
    to inline execution on a single-core host.  Results never depend
    on the effective domain count.

    [chunk] is the number of chunks each worker gets per {!map} /
    {!map_reduce} round (default 4, clamped to >= 1).  Small values
    amortize queue synchronization and GC safepoint traffic — the right
    call on few-core hosts where the fan-out is sync-bound; larger
    values rebalance skewed item costs.  Chunking never changes
    results, only scheduling. *)

val jobs : t -> int

val chunk : t -> int
(** The per-worker chunk factor this pool was created with. *)

val shutdown : t -> unit
(** Drain the queue, then detach the workers and park their domains
    for a later {!create}; returns once every worker has left this
    pool.  Idempotent; the pool runs inline afterwards. *)

val with_pool : ?chunk:int -> jobs:int -> (t -> 'a) -> 'a
(** [create], run, then {!shutdown} — even on exceptions. *)

val with_deadline : t -> Deadline.t -> (unit -> 'a) -> 'a
(** Install a cooperative deadline for the duration of the callback:
    every item processed by {!map} / {!map_reduce} (chunked or inline)
    polls the token first, and an expired token aborts the whole call
    with [Deadline.Expired] re-raised in the caller.  Results computed
    before the abort are discarded — a deadline-aborted map yields no
    partial output.  An unlimited token installs nothing. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map f], with [f] applied by the workers. *)

val map_batched :
  t ->
  deadline:Deadline.t ->
  ?batch:int ->
  ?yield:('b list -> unit) ->
  ('a -> 'b) ->
  'a list ->
  ('b list, 'b list) result
(** Deadline-aware {!map} that survives expiry with a partial result.
    The input is processed in batches of [batch] items (default: a full
    round of chunks, [jobs * chunk factor]); the deadline is polled
    before each batch and, via {!with_deadline}, at every item within
    it.  [Ok results] when every item completed; [Error prefix] when
    the deadline expired, where [prefix] holds the results of the
    batches completed before expiry (the interrupted batch is
    discarded whole, so the prefix length is a multiple of the batch
    size).  Either way, results are in input order.  [yield] is called
    in the caller's domain with each completed batch's results, in
    input order — a streaming hook that sees exactly the items the
    final result will contain. *)

val map_reduce :
  t -> map:('a -> 'b) -> reduce:('b -> 'b -> 'b) -> init:'b -> 'a list -> 'b
(** [List.fold_left (fun acc x -> reduce acc (map x)) init xs], with
    the [map] calls parallelized.  Each chunk folds from [init] and the
    chunk accumulators are reduced in chunk order, so the result equals
    the sequential fold whenever [reduce] is associative with [init] as
    a neutral element. *)
