let m_tasks = Encore_obs.Metrics.counter "pool.tasks"
let m_spawned = Encore_obs.Metrics.counter "pool.domains_spawned"
let g_busy = Encore_obs.Metrics.gauge "pool.domains_busy"

type t = {
  n_jobs : int;
  queue : (unit -> unit) Queue.t;  (* tasks never raise: wrappers catch *)
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable stopping : bool;
  mutable attached : int;  (* workers still serving this pool *)
  detached : Condition.t;  (* signalled as each worker leaves *)
  busy : int Atomic.t;
  high_water : int Atomic.t;
  deadline : Deadline.t option Atomic.t;
}

let jobs t = t.n_jobs

let rec record_high_water t busy_now =
  let hw = Atomic.get t.high_water in
  if busy_now > hw && not (Atomic.compare_and_set t.high_water hw busy_now)
  then record_high_water t busy_now

let run_task t run =
  record_high_water t (1 + Atomic.fetch_and_add t.busy 1);
  run ();
  ignore (Atomic.fetch_and_add t.busy (-1))

let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    match Queue.take_opt t.queue with
    | Some task -> Some task
    | None ->
        if t.stopping then None
        else begin
          Condition.wait t.nonempty t.mutex;
          next ()
        end
  in
  let task = next () in
  Mutex.unlock t.mutex;
  match task with
  | None -> ()
  | Some run ->
      run_task t run;
      worker_loop t

(* Worker domains outlive the pools they serve.  [shutdown] parks its
   workers here instead of joining them, and [create] adopts parked
   workers before spawning new ones, so the number of domains a process
   ever spawns is its peak number of concurrent workers.  Joining
   instead leaks heap on OCaml 5.1, which has no compaction: any value
   a dead domain allocated that outlives it (a learned model, say)
   pins that domain's heap pools, so a transient pool per call grows
   the heap with every call. *)
let park_mutex = Mutex.create ()
let park_cond = Condition.create ()
let parked = ref 0  (* idle workers no [create] has claimed yet *)
let adoptions : t Queue.t = Queue.create ()  (* claimed: the pool to serve *)

(* Serve [t] until it shuts down, then detach. *)
let serve t =
  worker_loop t;
  Mutex.lock t.mutex;
  t.attached <- t.attached - 1;
  Condition.broadcast t.detached;
  Mutex.unlock t.mutex

let rec park () =
  Mutex.lock park_mutex;
  incr parked;
  while Queue.is_empty adoptions do
    Condition.wait park_cond park_mutex
  done;
  let t = Queue.pop adoptions in
  Mutex.unlock park_mutex;
  serve t;
  park ()

(* Chunks per worker for one {!map} round: a few balance the load when
   item costs are skewed, without paying queue synchronization per
   item. *)
let chunk_factor = 4

let create ~jobs () =
  (* Never run more worker domains than the hardware can schedule:
     OCaml domains are heavyweight, and oversubscribing cores makes
     every pool operation slower than running inline.  A request for
     more workers than cores is capped, which on a single-core host
     degrades to (fast) inline execution. *)
  let t =
    {
      n_jobs = max 1 (min jobs (Domain.recommended_domain_count ()));
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      stopping = false;
      attached = 0;
      detached = Condition.create ();
      busy = Atomic.make 0;
      high_water = Atomic.make 0;
      deadline = Atomic.make None;
    }
  in
  if t.n_jobs > 1 then begin
    (* the submitting domain is the last of the [n_jobs]: it runs
       chunks itself while it waits (see [submit_and_wait]) *)
    let workers = t.n_jobs - 1 in
    t.attached <- workers;
    Mutex.lock park_mutex;
    let adopted = min !parked workers in
    parked := !parked - adopted;
    for _ = 1 to adopted do
      Queue.add t adoptions
    done;
    Condition.broadcast park_cond;
    Mutex.unlock park_mutex;
    for _ = adopted + 1 to workers do
      Encore_obs.Metrics.incr m_spawned;
      ignore
        (Domain.spawn (fun () ->
             serve t;
             park ())
          : unit Domain.t)
    done
  end;
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  while t.attached > 0 do
    Condition.wait t.detached t.mutex
  done;
  Mutex.unlock t.mutex

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Cooperative cancellation: while [f] runs, every item processed by
   {!map} polls [d] first and aborts the whole call
   with [Deadline.Expired] (re-raised in the caller through the usual
   lowest-index propagation) once the budget is gone.  Unlimited
   tokens are not installed at all, keeping the common path free of
   per-item clock reads. *)
let with_deadline t d f =
  if Deadline.is_unlimited d then f ()
  else begin
    Atomic.set t.deadline (Some d);
    Fun.protect ~finally:(fun () -> Atomic.set t.deadline None) f
  end

let poll_deadline t =
  match Atomic.get t.deadline with
  | None -> ()
  | Some d -> Deadline.raise_if_expired d

(* Boundaries of [n_chunks] near-equal slices of [0, n). *)
let chunk_bounds n n_chunks =
  List.init n_chunks (fun i -> (i * n / n_chunks, (i + 1) * n / n_chunks))

(* Run every closure on the pool and wait for all of them.  Closures
   must not raise; worker spans nest under the caller's current span
   via the captured trace context.  The caller first runs [lead] (a
   share of the work of its own, which must not raise either), then
   takes chunks off the queue too instead of blocking until the
   workers finish: every idle domain must still be woken for each
   stop-the-world minor collection, which on a 2-core host made
   allocation-heavy work up to ~75 % slower, so a pool computes on all
   its domains at once.  [lead] counts as one task. *)
let submit_and_wait ?lead t closures =
  let n = List.length closures in
  let done_mutex = Mutex.create () in
  let done_cond = Condition.create () in
  let remaining = ref n in
  let ctx = Encore_obs.Trace.capture () in
  let wrap body () =
    Encore_obs.Trace.with_context ctx body;
    Mutex.lock done_mutex;
    decr remaining;
    if !remaining = 0 then Condition.signal done_cond;
    Mutex.unlock done_mutex
  in
  Mutex.lock t.mutex;
  List.iter (fun body -> Queue.add (wrap body) t.queue) closures;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  let own =
    match lead with
    | None -> 0
    | Some lead ->
        run_task t lead;
        1
  in
  let rec help () =
    Mutex.lock t.mutex;
    let task = Queue.take_opt t.queue in
    Mutex.unlock t.mutex;
    match task with
    | Some run ->
        run_task t run;
        help ()
    | None -> ()
  in
  help ();
  Mutex.lock done_mutex;
  while !remaining > 0 do
    Condition.wait done_cond done_mutex
  done;
  Mutex.unlock done_mutex;
  Encore_obs.Metrics.incr ~by:(n + own) m_tasks;
  Encore_obs.Metrics.set_max g_busy (float_of_int (Atomic.get t.high_water))

let inline t = t.n_jobs <= 1 || t.stopping

let map t f xs =
  if inline t || (match xs with [] | [ _ ] -> true | _ -> false) then
    List.map
      (fun x ->
        poll_deadline t;
        f x)
      xs
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let chunk (lo, hi) () =
      for i = lo to hi - 1 do
        results.(i) <-
          Some
            (match
               poll_deadline t;
               f items.(i)
             with
             | v -> Ok v
             | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      done
    in
    let bounds = chunk_bounds n (min n (t.n_jobs * chunk_factor)) in
    submit_and_wait t (List.map chunk bounds);
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

type 'b slot = Pending | Done of 'b | Raised of exn * Printexc.raw_backtrace

let map_prefix t ~deadline ?yield f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n Pending in
  (* [lock] guards [results], [next] and [stopped].  The deadline is
     polled only under it, once per claimed item, so polls follow claim
     order and expiry always leaves a prefix. *)
  let lock = Mutex.create () in
  let next = ref 0 in
  let stopped = ref false in  (* expired, an item raised, or yield did *)
  let run i =
    match f items.(i) with
    | v -> Done v
    | exception e -> Raised (e, Printexc.get_raw_backtrace ())
  in
  (* Under [lock]: record the item just run, then claim the next. *)
  let settle_and_claim settled =
    (match settled with
     | Some (i, r) ->
         results.(i) <- r;
         (match r with Raised _ -> stopped := true | Pending | Done _ -> ())
     | None -> ());
    if !stopped || !next >= n then None
    else if Deadline.expired deadline then begin
      stopped := true;
      None
    end
    else begin
      let i = !next in
      incr next;
      Some i
    end
  in
  let rec work settled =
    match Mutex.protect lock (fun () -> settle_and_claim settled) with
    | None -> ()
    | Some i -> work (Some (i, run i))
  in
  (* The caller streams: after each of its own items it yields the
     results finished since its last yield.  Slots below the frontier
     were filled under [lock] before the caller took it and are never
     written again, so they are read without it. *)
  let yielded = ref 0 in
  let frontier () =
    let j = ref !yielded in
    while
      !j < n
      && match results.(!j) with Done _ -> true | Pending | Raised _ -> false
    do
      incr j
    done;
    !j
  in
  let done_at i =
    match results.(i) with Done v -> v | Pending | Raised _ -> assert false
  in
  let yield_upto upto =
    let from = !yielded in
    yielded := upto;
    match yield with
    | Some y when upto > from ->
        y (List.init (upto - from) (fun k -> done_at (from + k)))
    | Some _ | None -> ()
  in
  let rec lead_from = function
    | None -> ()
    | Some i ->
        let r = run i in
        let claim, upto =
          Mutex.protect lock (fun () ->
              let claim = settle_and_claim (Some (i, r)) in
              (claim, frontier ()))
        in
        yield_upto upto;
        lead_from claim
  in
  (* claimed before any worker starts, so the caller runs the first
     item itself *)
  let first = Mutex.protect lock (fun () -> settle_and_claim None) in
  let yield_failure = ref None in
  let lead () =
    try lead_from first
    with e ->
      yield_failure := Some (e, Printexc.get_raw_backtrace ());
      Mutex.protect lock (fun () -> stopped := true)
  in
  let workers = if inline t then 0 else min t.n_jobs n - 1 in
  if workers <= 0 then lead ()
  else submit_and_wait ~lead t (List.init workers (fun _ () -> work None));
  (* every claimed item has settled: the lowest-index failure wins *)
  (match !yield_failure with
   | Some (e, bt) -> Printexc.raise_with_backtrace e bt
   | None -> ());
  let claimed = !next in
  for i = 0 to claimed - 1 do
    match results.(i) with
    | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
    | Pending | Done _ -> ()
  done;
  yield_upto claimed;
  let prefix = List.init claimed done_at in
  if claimed = n then Ok prefix else Error prefix
