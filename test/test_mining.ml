(* Tests for encore_mining: itemsets, Apriori and FP-Growth.  The
   central property: Apriori and FP-Growth agree on every frequent
   itemset over random transaction databases. *)

module Itemset = Encore_mining.Itemset
module Apriori = Encore_mining.Apriori
module Fpgrowth = Encore_mining.Fpgrowth

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Itemset ------------------------------------------------------------- *)

let test_itemset_of_list_sorts_dedups () =
  check (Alcotest.list Alcotest.int) "sorted deduped" [ 1; 2; 5 ]
    (Itemset.to_list (Itemset.of_list [ 5; 1; 2; 1 ]))

let test_itemset_subset () =
  let s = Itemset.of_list in
  check Alcotest.bool "subset" true (Itemset.subset (s [ 1; 3 ]) (s [ 1; 2; 3 ]));
  check Alcotest.bool "not subset" false (Itemset.subset (s [ 1; 4 ]) (s [ 1; 2; 3 ]));
  check Alcotest.bool "empty subset" true (Itemset.subset (s []) (s [ 1 ]))

let test_itemset_union () =
  check (Alcotest.list Alcotest.int) "union" [ 1; 2; 3; 4 ]
    (Itemset.to_list (Itemset.union (Itemset.of_list [ 1; 3 ]) (Itemset.of_list [ 2; 3; 4 ])))

let test_itemset_mem () =
  let s = Itemset.of_list [ 2; 4; 6; 8 ] in
  check Alcotest.bool "mem" true (Itemset.mem 6 s);
  check Alcotest.bool "not mem" false (Itemset.mem 5 s)

let test_itemset_support () =
  let txs = [| Itemset.of_list [ 1; 2 ]; Itemset.of_list [ 2; 3 ]; Itemset.of_list [ 1; 2; 3 ] |] in
  check Alcotest.int "support {2}" 3 (Itemset.support txs (Itemset.of_list [ 2 ]));
  check Alcotest.int "support {1,2}" 2 (Itemset.support txs (Itemset.of_list [ 1; 2 ]));
  check Alcotest.int "support {1,3}" 1 (Itemset.support txs (Itemset.of_list [ 1; 3 ]))

let test_itemset_join () =
  let s = Itemset.of_list in
  check (Alcotest.option (Alcotest.list Alcotest.int)) "joinable" (Some [ 1; 2; 3 ])
    (Option.map Itemset.to_list (Itemset.join (s [ 1; 2 ]) (s [ 1; 3 ])));
  check Alcotest.bool "different prefix" true (Itemset.join (s [ 1; 2 ]) (s [ 2; 3 ]) = None);
  check Alcotest.bool "wrong order" true (Itemset.join (s [ 1; 3 ]) (s [ 1; 2 ]) = None)

let test_itemset_subsets_k_minus_1 () =
  let subs =
    List.map Itemset.to_list (Itemset.subsets_k_minus_1 (Itemset.of_list [ 1; 2; 3 ]))
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "all k-1 subsets"
    [ [ 2; 3 ]; [ 1; 3 ]; [ 1; 2 ] ]
    subs

let prop_union_commutative =
  let gen = QCheck.Gen.(list_size (int_range 0 8) (int_range 0 15)) in
  QCheck.Test.make ~name:"itemset union commutative" ~count:300
    (QCheck.make QCheck.Gen.(pair gen gen))
    (fun (a, b) ->
      let sa = Itemset.of_list a and sb = Itemset.of_list b in
      Itemset.to_list (Itemset.union sa sb) = Itemset.to_list (Itemset.union sb sa))

let prop_subset_of_union =
  let gen = QCheck.Gen.(list_size (int_range 0 8) (int_range 0 15)) in
  QCheck.Test.make ~name:"operands subset of union" ~count:300
    (QCheck.make QCheck.Gen.(pair gen gen))
    (fun (a, b) ->
      let sa = Itemset.of_list a and sb = Itemset.of_list b in
      let u = Itemset.union sa sb in
      Itemset.subset sa u && Itemset.subset sb u)

(* --- known-answer mining -------------------------------------------------- *)

(* The classic example: transactions over {bread, milk, diaper, beer}. *)
let bread = 0
let milk = 1
let diaper = 2
let beer = 3

let market =
  [| Itemset.of_list [ bread; milk ];
     Itemset.of_list [ bread; diaper; beer ];
     Itemset.of_list [ milk; diaper; beer ];
     Itemset.of_list [ bread; milk; diaper; beer ];
     Itemset.of_list [ bread; milk; diaper ] |]

let sorted_frequent result =
  List.sort compare
    (List.map (fun (s, c) -> (Itemset.to_list s, c)) result)

let test_apriori_known_answer () =
  let r = Apriori.mine ~min_support:3 market in
  check Alcotest.bool "no overflow" false r.Apriori.overflowed;
  let f = sorted_frequent r.Apriori.frequent in
  check Alcotest.bool "{diaper,beer} support 3" true (List.mem ([ diaper; beer ], 3) f);
  check Alcotest.bool "{bread,milk} support 3" true (List.mem ([ bread; milk ], 3) f);
  check Alcotest.bool "{bread,beer} infrequent" true
    (not (List.mem_assoc [ bread; beer ] f))

let test_fpgrowth_known_answer () =
  let r = Fpgrowth.mine ~min_support:3 market in
  check Alcotest.bool "no overflow" false r.Fpgrowth.overflowed;
  let f = sorted_frequent r.Fpgrowth.frequent in
  check Alcotest.bool "{diaper,beer} support 3" true (List.mem ([ diaper; beer ], 3) f)

let test_apriori_fpgrowth_agree_market () =
  let a = Apriori.mine ~min_support:2 market in
  let f = Fpgrowth.mine ~min_support:2 market in
  check
    (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.int) Alcotest.int))
    "same frequent sets"
    (sorted_frequent a.Apriori.frequent)
    (sorted_frequent f.Fpgrowth.frequent)

let test_count_only_matches_mine () =
  let r = Fpgrowth.mine ~min_support:2 market in
  let n, overflow = Fpgrowth.count_only ~min_support:2 market in
  check Alcotest.bool "no overflow" false overflow;
  check Alcotest.int "same count" (List.length r.Fpgrowth.frequent) n

let test_overflow_cap () =
  (* 12 universal items force 2^12-1 frequent itemsets, over the cap *)
  let txs = Array.make 4 (Itemset.of_list (List.init 12 Fun.id)) in
  let n, overflow = Fpgrowth.count_only ~max_itemsets:100 ~min_support:2 txs in
  check Alcotest.bool "overflowed" true overflow;
  check Alcotest.bool "stopped near cap" true (n <= 101);
  let r = Apriori.mine ~max_itemsets:100 ~min_support:2 txs in
  check Alcotest.bool "apriori overflowed" true r.Apriori.overflowed

(* The cap truncates the walk, not a reordered result: a capped [mine]
   is the first [k] itemsets the uncapped one emits, in order. *)
let test_capped_mine_is_prefix () =
  (* 1,260 frequent itemsets over 12 items, 6 transactions *)
  let txs =
    Array.init 6 (fun i ->
        Itemset.of_list
          (List.filter (fun x -> (x + i) mod 5 <> 0) (List.init 12 Fun.id)))
  in
  let as_lists = List.map (fun (s, c) -> (Itemset.to_list s, c)) in
  let all = as_lists (Fpgrowth.mine ~min_support:2 txs).Fpgrowth.frequent in
  List.iter
    (fun k ->
      let r = Fpgrowth.mine ~max_itemsets:k ~min_support:2 txs in
      check Alcotest.bool (Printf.sprintf "overflowed at %d" k) true
        r.Fpgrowth.overflowed;
      check
        (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.int) Alcotest.int))
        (Printf.sprintf "first %d itemsets" k)
        (List.filteri (fun i _ -> i < k) all)
        (as_lists r.Fpgrowth.frequent))
    [ 1; 7; 100; List.length all - 1 ]

let test_empty_transactions () =
  let r = Apriori.mine ~min_support:1 [||] in
  check Alcotest.int "nothing frequent" 0 (List.length r.Apriori.frequent);
  let n, _ = Fpgrowth.count_only ~min_support:1 [||] in
  check Alcotest.int "fp nothing" 0 n

let prop_apriori_fpgrowth_agree =
  let tx_gen =
    QCheck.Gen.(list_size (int_range 1 10)
                  (list_size (int_range 0 6) (int_range 0 9)))
  in
  QCheck.Test.make ~name:"apriori = fpgrowth on random databases" ~count:60
    (QCheck.make tx_gen)
    (fun txs ->
      let db = Array.of_list (List.map Itemset.of_list txs) in
      let min_support = 2 in
      let a = Apriori.mine ~min_support db in
      let f = Fpgrowth.mine ~min_support db in
      sorted_frequent a.Apriori.frequent = sorted_frequent f.Fpgrowth.frequent)

let prop_fpgrowth_supports_correct =
  let tx_gen =
    QCheck.Gen.(list_size (int_range 1 8)
                  (list_size (int_range 0 5) (int_range 0 7)))
  in
  QCheck.Test.make ~name:"fpgrowth support counts are exact" ~count:60
    (QCheck.make tx_gen)
    (fun txs ->
      let db = Array.of_list (List.map Itemset.of_list txs) in
      let f = Fpgrowth.mine ~min_support:1 db in
      List.for_all
        (fun (itemset, support) -> Itemset.support db itemset = support)
        f.Fpgrowth.frequent)

(* The count stops one past the cap: [count_only] reports the uncapped
   total up to [k] and [k + 1] with the overflow flag beyond it. *)
let prop_count_only_cap =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 10) (list_size (int_range 0 8) (int_range 0 9)))
        (int_range 0 60))
  in
  QCheck.Test.make ~name:"count_only stops one past the cap" ~count:100
    (QCheck.make gen)
    (fun (txs, k) ->
      let db = Array.of_list (List.map Itemset.of_list txs) in
      let total = List.length (Fpgrowth.mine ~min_support:1 db).Fpgrowth.frequent in
      Fpgrowth.count_only ~max_itemsets:k ~min_support:1 db
      = (min total (k + 1), total > k))

let () =
  Alcotest.run "encore_mining"
    [
      ( "itemset",
        [
          Alcotest.test_case "of_list" `Quick test_itemset_of_list_sorts_dedups;
          Alcotest.test_case "subset" `Quick test_itemset_subset;
          Alcotest.test_case "union" `Quick test_itemset_union;
          Alcotest.test_case "mem" `Quick test_itemset_mem;
          Alcotest.test_case "support" `Quick test_itemset_support;
          Alcotest.test_case "join" `Quick test_itemset_join;
          Alcotest.test_case "k-1 subsets" `Quick test_itemset_subsets_k_minus_1;
          qtest prop_union_commutative;
          qtest prop_subset_of_union;
        ] );
      ( "mining",
        [
          Alcotest.test_case "apriori known answer" `Quick test_apriori_known_answer;
          Alcotest.test_case "fpgrowth known answer" `Quick test_fpgrowth_known_answer;
          Alcotest.test_case "algorithms agree (market)" `Quick test_apriori_fpgrowth_agree_market;
          Alcotest.test_case "count_only consistent" `Quick test_count_only_matches_mine;
          Alcotest.test_case "overflow cap" `Quick test_overflow_cap;
          Alcotest.test_case "capped mine is a prefix" `Quick test_capped_mine_is_prefix;
          Alcotest.test_case "empty database" `Quick test_empty_transactions;
          qtest prop_apriori_fpgrowth_agree;
          qtest prop_fpgrowth_supports_correct;
          qtest prop_count_only_cap;
        ] );
    ]
