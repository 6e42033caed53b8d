(* Tests for Encore_util.Pool: deterministic ordering, exception
   propagation, worker reuse across calls, worker domains recycled
   across pools (nested pools included), map_reduce, deadline
   cancellation firing inside worker domains, and the map = List.map
   property at every pool size. *)

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

(* --- map_reduce ----------------------------------------------------------- *)

let test_map_reduce_sum () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 1001 Fun.id in
  check Alcotest.int "sum" 500_500
    (Pool.map_reduce p ~map:Fun.id ~reduce:( + ) ~init:0 xs)

let test_map_reduce_order_sensitive () =
  (* list concatenation is associative with [] neutral, so the result
     must equal the sequential fold even though it is order-sensitive *)
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 300 Fun.id in
  check ints "concat in order" xs
    (Pool.map_reduce p ~map:(fun x -> [ x ]) ~reduce:( @ ) ~init:[] xs)

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

let test_map_batched_partial_prefix () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 500 Fun.id in
  let f x = (3 * x) + 1 in
  let full = List.map f xs in
  match Pool.map_batched p ~deadline:(Deadline.after_polls 150) ~batch:32 f xs with
  | Ok _ -> Alcotest.fail "a 150-poll budget cannot cover 500 items"
  | Error prefix ->
      let n = List.length prefix in
      check Alcotest.bool "strict prefix" true (n > 0 && n < 500);
      check Alcotest.int "whole batches only" 0 (n mod 32);
      check ints "prefix of the full result"
        (List.filteri (fun i _ -> i < n) full)
        prefix

let test_map_batched_prefix_deterministic_across_jobs () =
  (* [after_polls] counts polls globally, so expiry lands at the same
     batch boundary no matter how many domains race on it: the partial
     result is a deterministic function of the budget, not of worker
     scheduling *)
  let xs = List.init 500 Fun.id in
  let f x = (2 * x) - 5 in
  let run jobs =
    Pool.with_pool ~jobs (fun p ->
        Pool.map_batched p ~deadline:(Deadline.after_polls 200) ~batch:25 f xs)
  in
  let prefix = function
    | Ok _ -> Alcotest.fail "expected expiry"
    | Error prefix -> prefix
  in
  let p1 = prefix (run 1) in
  check ints "jobs=4 = jobs=1" p1 (prefix (run 4));
  check ints "jobs=8 = jobs=1" p1 (prefix (run 8));
  check ints "repeat run identical" p1 (prefix (run 4))

let test_map_batched_completes_under_generous_budget () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 200 Fun.id in
  match Pool.map_batched p ~deadline:Deadline.none Fun.id xs with
  | Ok ys -> check ints "all items" xs ys
  | Error _ -> Alcotest.fail "unlimited deadline expired"

let test_map_batched_yield_streams_final_prefix () =
  Pool.with_pool ~jobs:4 @@ fun p ->
  let xs = List.init 300 Fun.id in
  let streamed = ref [] in
  let yield batch = streamed := !streamed @ batch in
  match
    Pool.map_batched p ~deadline:(Deadline.after_polls 120) ~batch:20
      ~yield succ xs
  with
  | Ok _ -> Alcotest.fail "expected expiry"
  | Error prefix ->
      check ints "yield saw exactly the surviving prefix" prefix !streamed

(* --- map = List.map at every pool size ------------------------------------ *)

let prop_map_matches_list_map =
  QCheck.Test.make ~name:"Pool.map = List.map for any jobs" ~count:60
    QCheck.(pair (int_range 1 6) (small_list int))
    (fun (jobs, xs) ->
      Pool.with_pool ~jobs (fun p ->
          Pool.map p (fun x -> (2 * x) - 1) xs
          = List.map (fun x -> (2 * x) - 1) xs))

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
      ( "map_reduce",
        [
          Alcotest.test_case "sum" `Quick test_map_reduce_sum;
          Alcotest.test_case "order-sensitive reduce" `Quick test_map_reduce_order_sensitive;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "with_deadline aborts whole map" `Quick
            test_with_deadline_aborts_whole_map;
          Alcotest.test_case "map_batched partial prefix" `Quick
            test_map_batched_partial_prefix;
          Alcotest.test_case "prefix deterministic across jobs" `Quick
            test_map_batched_prefix_deterministic_across_jobs;
          Alcotest.test_case "completes under unlimited budget" `Quick
            test_map_batched_completes_under_generous_budget;
          Alcotest.test_case "yield streams the final prefix" `Quick
            test_map_batched_yield_streams_final_prefix;
        ] );
      ("properties", [ qtest prop_map_matches_list_map ]);
    ]
