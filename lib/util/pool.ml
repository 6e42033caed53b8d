let m_tasks = Encore_obs.Metrics.counter "pool.tasks"
let m_spawned = Encore_obs.Metrics.counter "pool.domains_spawned"
let g_busy = Encore_obs.Metrics.gauge "pool.domains_busy"

type t = {
  n_jobs : int;
  chunk : int;  (* chunks per worker for one map/map_reduce round *)
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
let chunk t = t.chunk

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

(* A few chunks per worker balances the load when item costs are
   skewed, without paying queue synchronization per item. *)
let default_chunk_factor = 4

let create ?(chunk = default_chunk_factor) ~jobs () =
  (* Never run more worker domains than the hardware can schedule:
     OCaml domains are heavyweight, and oversubscribing cores makes
     every pool operation slower than running inline.  A request for
     more workers than cores is capped, which on a single-core host
     degrades to (fast) inline execution. *)
  let t =
    {
      n_jobs = max 1 (min jobs (Domain.recommended_domain_count ()));
      chunk = max 1 chunk;
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

let with_pool ?chunk ~jobs f =
  let t = create ?chunk ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Cooperative cancellation: while [f] runs, every item processed by
   {!map} / {!map_reduce} polls [d] first and aborts the whole call
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
   via the captured trace context.  The caller takes chunks off the
   queue too instead of blocking until the workers finish: every idle
   domain must still be woken for each stop-the-world minor
   collection, which on a 2-core host made allocation-heavy work up to
   ~75 % slower, so a pool computes on all its domains at once. *)
let submit_and_wait t closures =
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
  Encore_obs.Metrics.incr ~by:n m_tasks;
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
    let bounds = chunk_bounds n (min n (t.n_jobs * t.chunk)) in
    submit_and_wait t (List.map chunk bounds);
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         | None -> assert false)
  end

(* First [n] items of [xs] (all of them when fewer), plus the rest.
   Batches are a few dozen items, so plain recursion is fine. *)
let rec take n xs =
  if n = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: rest ->
        let batch, rest = take (n - 1) rest in
        (x :: batch, rest)

let map_batched t ~deadline ?batch ?yield f xs =
  let batch_size =
    match batch with Some b -> max 1 b | None -> max 1 (t.n_jobs * t.chunk)
  in
  let emit rs = match yield with None -> () | Some y -> y rs in
  let rec go acc xs =
    match xs with
    | [] -> Ok (List.concat (List.rev acc))
    | _ -> (
        let b, rest = take batch_size xs in
        match
          Deadline.raise_if_expired deadline;
          with_deadline t deadline (fun () -> map t f b)
        with
        | rs ->
            emit rs;
            go (rs :: acc) rest
        | exception Deadline.Expired _ -> Error (List.concat (List.rev acc)))
  in
  go [] xs

let map_reduce t ~map:fm ~reduce ~init xs =
  if inline t || (match xs with [] | [ _ ] -> true | _ -> false) then
    List.fold_left
      (fun acc x ->
        poll_deadline t;
        reduce acc (fm x))
      init xs
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    let n_chunks = min n (t.n_jobs * t.chunk) in
    let accs = Array.make n_chunks None in
    let chunk idx (lo, hi) () =
      accs.(idx) <-
        Some
          (match
             let acc = ref init in
             for i = lo to hi - 1 do
               poll_deadline t;
               acc := reduce !acc (fm items.(i))
             done;
             !acc
           with
           | acc -> Ok acc
           | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let bounds = chunk_bounds n n_chunks in
    submit_and_wait t (List.mapi chunk bounds);
    Array.fold_left
      (fun acc slot ->
        match slot with
        | Some (Ok chunk_acc) -> reduce acc chunk_acc
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      init accs
  end
