(* Tests for Encore_util.Pool: deterministic ordering, exception
   propagation, worker reuse across calls, worker domains recycled
   across pools (nested pools included), deadline
   cancellation firing inside worker domains, map_prefix's
   deadline-bounded prefix and streaming, and the map = List.map
   properties at every pool size. *)

module Pool = Encore_util.Pool
module Deadline = Encore_util.Deadline

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

exception Boom of int

let ints = Alcotest.list Alcotest.int

(* --- ordering ------------------------------------------------------------ *)

let test_map_ordering () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 1000 Fun.id in
  check ints "results in input order"
    (List.map (fun x -> x * x) xs)
    (Pool.map p (fun x -> x * x) xs)

let test_map_inline_when_sequential () =
  Pool.with_pool ~jobs:1 @@ fun p ->
  (* jobs=1 must run in the calling domain: domain-local state is
     visible to the closures *)
  let acc = ref [] in
  let _ = Pool.map p (fun x -> acc := x :: !acc) [ 1; 2; 3 ] in
  check ints "ran inline, in order" [ 3; 2; 1 ] !acc

let test_map_empty_and_singleton () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  check ints "empty" [] (Pool.map p succ []);
  check ints "singleton" [ 8 ] (Pool.map p succ [ 7 ])

let test_map_more_workers_than_items () =
  Pool.with_pool ~jobs:8 @@ fun p ->
  check ints "short list" [ 2; 3; 4 ] (Pool.map p succ [ 1; 2; 3 ])

(* --- exception propagation ----------------------------------------------- *)

let test_exception_lowest_index () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 200 Fun.id in
  let f x = if x = 57 || x = 12 || x = 199 then raise (Boom x) else x in
  Alcotest.check_raises "lowest failing index wins" (Boom 12) (fun () ->
      ignore (Pool.map p f xs))

let test_pool_survives_exception () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  (try ignore (Pool.map p (fun _ -> raise (Boom 0)) [ 1; 2; 3 ])
   with Boom _ -> ());
  check ints "usable after a failed call" [ 2; 4; 6 ]
    (Pool.map p (fun x -> 2 * x) [ 1; 2; 3 ])

let test_with_pool_propagates () =
  Alcotest.check_raises "with_pool re-raises" (Boom 1) (fun () ->
      Pool.with_pool ~jobs:2 (fun _ -> raise (Boom 1)))

(* --- reuse across calls --------------------------------------------------- *)

let test_reuse_across_calls () =
  Pool.with_pool ~jobs:3 @@ fun p ->
  for i = 1 to 20 do
    let xs = List.init (17 * i) (fun j -> i + j) in
    check ints (Printf.sprintf "call %d" i) (List.map succ xs)
      (Pool.map p succ xs)
  done

let test_shutdown_idempotent_then_inline () =
  let p = Pool.create ~jobs:4 () in
  check ints "before shutdown" [ 1; 2 ] (Pool.map p succ [ 0; 1 ]);
  Pool.shutdown p;
  Pool.shutdown p;
  check ints "inline after shutdown" [ 1; 2 ] (Pool.map p succ [ 0; 1 ])

(* --- domain recycling across pools ----------------------------------------- *)

let spawned () =
  Encore_obs.Metrics.count (Encore_obs.Metrics.counter "pool.domains_spawned")

let test_sequential_pools_recycle_domains () =
  let before = spawned () in
  for i = 1 to 50 do
    Pool.with_pool ~jobs:2 (fun p ->
        check ints (Printf.sprintf "cycle %d" i) [ i + 1; i + 2 ]
          (Pool.map p succ [ i; i + 1 ]))
  done;
  let bound = min 2 (Domain.recommended_domain_count ()) in
  let n = spawned () - before in
  check Alcotest.bool
    (Printf.sprintf "50 pools spawned %d domain(s), at most %d" n bound)
    true (n <= bound)

let test_nested_pool_in_task () =
  Pool.with_pool ~jobs:2 @@ fun outer ->
  let xs = List.init 8 Fun.id in
  let expected x = List.map (fun y -> (100 * x) + y) [ 1; 2; 3 ] in
  let inner x =
    Pool.with_pool ~jobs:2 (fun p ->
        Pool.map p (fun y -> (100 * x) + y) [ 1; 2; 3 ])
  in
  check (Alcotest.list ints) "inner pool results" (List.map expected xs)
    (Pool.map outer inner xs)

(* --- deadlines firing inside worker domains -------------------------------- *)

let test_with_deadline_aborts_whole_map () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 400 Fun.id in
  (* the poll budget runs out while worker domains are mid-chunk: the
     abort must re-raise in the caller and discard every result *)
  (match
     Pool.with_deadline p (Deadline.after_polls 10) (fun () ->
         Pool.map p (fun x -> x * x) xs)
   with
  | _ -> Alcotest.fail "expected the map to abort"
  | exception Deadline.Expired Deadline.Timed_out -> ());
  check ints "pool survives the abort" [ 2; 3 ] (Pool.map p succ [ 1; 2 ])

let prefix_of = function
  | Ok _ -> Alcotest.fail "expected expiry"
  | Error prefix -> prefix

let test_map_prefix_partial_prefix () =
  (* one poll per claimed item, in claim order: a 150-poll budget
     checks exactly the first 150 items however many domains race *)
  let xs = List.init 500 Fun.id in
  let f x = (3 * x) + 1 in
  let expected = List.filteri (fun i _ -> i < 150) (List.map f xs) in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          check ints
            (Printf.sprintf "jobs=%d: the first 150 results" jobs)
            expected
            (prefix_of
               (Pool.map_prefix p ~deadline:(Deadline.after_polls 150) f xs))))
    [ 1; 2; 4; 8 ]

let test_map_prefix_deterministic_across_jobs () =
  let xs = List.init 500 Fun.id in
  let f x = (2 * x) - 5 in
  let run jobs k =
    Pool.with_pool ~jobs (fun p ->
        Pool.map_prefix p ~deadline:(Deadline.after_polls k) f xs)
  in
  List.iter
    (fun k ->
      let r1 = run 1 k in
      List.iter
        (fun jobs ->
          check Alcotest.bool
            (Printf.sprintf "k=%d: jobs=%d = jobs=1" k jobs)
            true
            (run jobs k = r1))
        [ 2; 4; 8 ])
    [ 0; 1; 37; 200; 499 ];
  (* a budget of exactly one poll per item completes: no poll follows
     the last item *)
  check Alcotest.bool "500 polls cover 500 items" true
    (run 4 500 = Ok (List.map f xs))

let test_map_prefix_completes_under_generous_budget () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 200 Fun.id in
  match Pool.map_prefix p ~deadline:Deadline.none Fun.id xs with
  | Ok ys -> check ints "all items" xs ys
  | Error _ -> Alcotest.fail "unlimited deadline expired"

let test_map_prefix_yield_streams_final_prefix () =
  let xs = List.init 300 Fun.id in
  List.iter
    (fun (jobs, deadline) ->
      Pool.with_pool ~jobs (fun p ->
          let calls = ref 0 and streamed = ref [] in
          let yielded = Atomic.make false in
          let yield rs =
            Atomic.set yielded true;
            incr calls;
            streamed := List.rev_append rs !streamed
          in
          (* the caller runs item 0 itself; holding every later item
             until its first yield keeps that yield from covering the
             whole run *)
          let f x =
            while x > 0 && not (Atomic.get yielded) do
              Domain.cpu_relax ()
            done;
            succ x
          in
          let prefix =
            match Pool.map_prefix p ~deadline ~yield f xs with
            | Ok rs | Error rs -> rs
          in
          let ctx = Printf.sprintf "jobs=%d" jobs in
          check Alcotest.bool (ctx ^ ": yield called more than once") true
            (!calls > 1);
          check ints (ctx ^ ": yield saw exactly the returned prefix") prefix
            (List.rev !streamed)))
    [ (2, Deadline.after_polls 120); (4, Deadline.after_polls 120);
      (2, Deadline.none); (4, Deadline.none) ]

let test_map_prefix_exception_lowest_index () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 200 Fun.id in
  let f x = if x = 57 || x = 12 || x = 199 then raise (Boom x) else x in
  Alcotest.check_raises "lowest failing index wins" (Boom 12) (fun () ->
      ignore (Pool.map_prefix p ~deadline:Deadline.none f xs));
  Alcotest.check_raises "a raising yield is re-raised" (Boom (-1)) (fun () ->
      ignore
        (Pool.map_prefix p ~deadline:Deadline.none
           ~yield:(fun _ -> raise (Boom (-1)))
           succ xs));
  check ints "pool survives both" [ 2; 3 ] (Pool.map p succ [ 1; 2 ])

let tasks () =
  Encore_obs.Metrics.count (Encore_obs.Metrics.counter "pool.tasks")

let test_map_prefix_one_task_per_domain () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let before = tasks () in
          ignore
            (Pool.map_prefix p ~deadline:Deadline.none succ
               (List.init 1000 Fun.id));
          let n = tasks () - before in
          check Alcotest.bool
            (Printf.sprintf "jobs=%d: %d task(s) for 1000 items, at most %d"
               jobs n (Pool.jobs p))
            true
            (n <= Pool.jobs p)))
    [ 1; 2; 4 ]

(* --- map = List.map at every pool size ------------------------------------ *)

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"Pool.map = List.map for any jobs" ~count:60
    QCheck.(pair (int_range 1 6) (small_list int))
    (fun (jobs, xs) ->
      Pool.with_pool ~jobs (fun p ->
          Pool.map p (fun x -> (2 * x) - 1) xs
          = List.map (fun x -> (2 * x) - 1) xs))

let prop_map_prefix_matches_list_map =
  QCheck.Test.make ~name:"Pool.map_prefix = List.map for any jobs" ~count:60
    QCheck.(pair (int_range 1 6) (small_list int))
    (fun (jobs, xs) ->
      Pool.with_pool ~jobs (fun p ->
          Pool.map_prefix p ~deadline:Deadline.none (fun x -> x lxor 5) xs
          = Ok (List.map (fun x -> x lxor 5) xs)))

let () =
  Alcotest.run "encore_pool"
    [
      ( "ordering",
        [
          Alcotest.test_case "map preserves input order" `Quick test_map_ordering;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_map_inline_when_sequential;
          Alcotest.test_case "empty and singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "more workers than items" `Quick test_map_more_workers_than_items;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "lowest index re-raised" `Quick test_exception_lowest_index;
          Alcotest.test_case "pool survives a failure" `Quick test_pool_survives_exception;
          Alcotest.test_case "with_pool propagates" `Quick test_with_pool_propagates;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "many calls, one pool" `Quick test_reuse_across_calls;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent_then_inline;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "sequential pools reuse domains" `Quick
            test_sequential_pools_recycle_domains;
          Alcotest.test_case "pool nested in a task" `Quick
            test_nested_pool_in_task;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "with_deadline aborts whole map" `Quick
            test_with_deadline_aborts_whole_map;
          Alcotest.test_case "map_prefix partial prefix" `Quick
            test_map_prefix_partial_prefix;
          Alcotest.test_case "prefix deterministic across jobs" `Quick
            test_map_prefix_deterministic_across_jobs;
          Alcotest.test_case "completes under unlimited budget" `Quick
            test_map_prefix_completes_under_generous_budget;
          Alcotest.test_case "yield streams the final prefix" `Quick
            test_map_prefix_yield_streams_final_prefix;
          Alcotest.test_case "map_prefix re-raises the lowest index" `Quick
            test_map_prefix_exception_lowest_index;
          Alcotest.test_case "map_prefix: one task per domain" `Quick
            test_map_prefix_one_task_per_domain;
        ] );
      ( "properties",
        [ qtest prop_map_matches_list_map;
          qtest prop_map_prefix_matches_list_map ] );
    ]
