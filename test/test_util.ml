(* Tests for encore_util: PRNG, statistics, string helpers, CSV, tables. *)

module Prng = Encore_util.Prng
module Stats = Encore_util.Stats
module Strutil = Encore_util.Strutil
module Csvio = Encore_util.Csvio
module Texttab = Encore_util.Texttab
module Symtab = Encore_util.Symtab

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Prng --------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_changes_stream () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let da = List.init 10 (fun _ -> Prng.bits64 a) in
  let db = List.init 10 (fun _ -> Prng.bits64 b) in
  check Alcotest.bool "different streams" true (da <> db)

let test_prng_int_bounds () =
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    check Alcotest.bool "in bounds" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_nonpositive () =
  let rng = Prng.create 3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_int_in_inclusive () =
  let rng = Prng.create 5 in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 500 do
    let v = Prng.int_in rng 2 4 in
    check Alcotest.bool "in range" true (v >= 2 && v <= 4);
    Hashtbl.replace seen v ()
  done;
  check Alcotest.int "all values reached" 3 (Hashtbl.length seen)

let test_prng_float_bounds () =
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    check Alcotest.bool "in bounds" true (v >= 0.0 && v < 2.5)
  done

let test_prng_pick_singleton () =
  let rng = Prng.create 1 in
  check Alcotest.int "singleton" 42 (Prng.pick rng [ 42 ])

let test_prng_pick_empty () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick rng []))

let test_prng_weighted_heavy () =
  let rng = Prng.create 2 in
  let heavy = ref 0 in
  for _ = 1 to 1000 do
    if Prng.weighted rng [ (99.0, `A); (1.0, `B) ] = `A then incr heavy
  done;
  check Alcotest.bool "heavy side dominates" true (!heavy > 900)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 9 in
  let xs = List.init 50 Fun.id in
  let shuffled = Prng.shuffle rng xs in
  check (Alcotest.list Alcotest.int) "same multiset" xs (List.sort compare shuffled)

let test_prng_sample_distinct () =
  let rng = Prng.create 13 in
  let s = Prng.sample rng 5 (List.init 20 Fun.id) in
  check Alcotest.int "five drawn" 5 (List.length s);
  check Alcotest.int "distinct" 5 (List.length (List.sort_uniq compare s))

let test_prng_copy_replays () =
  let a = Prng.create 21 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues the stream" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_weighted_rejects_zero () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "no positive weight"
    (Invalid_argument "Prng.weighted: no positive weight")
    (fun () -> ignore (Prng.weighted rng [ (0.0, `A) ]))

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xs = List.init 5 (fun _ -> Prng.bits64 a) in
  let ys = List.init 5 (fun _ -> Prng.bits64 b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let prop_prng_int_nonnegative =
  QCheck.Test.make ~name:"prng int always in [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

(* --- Stats -------------------------------------------------------------- *)

let test_entropy_empty () = check (Alcotest.float 1e-9) "0" 0.0 (Stats.entropy [])

let test_entropy_constant () =
  check (Alcotest.float 1e-9) "0" 0.0 (Stats.entropy [ "x"; "x"; "x" ])

let test_entropy_uniform_two () =
  check (Alcotest.float 1e-6) "ln 2" (log 2.0) (Stats.entropy [ "a"; "b" ])

let test_entropy_90_10 () =
  let values = List.init 9 (fun _ -> "a") @ [ "b" ] in
  check (Alcotest.float 1e-3) "threshold value" 0.325 (Stats.entropy values)

let test_counts_order () =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "first appearance order"
    [ ("b", 2); ("a", 1) ]
    (Stats.counts [ "b"; "a"; "b" ])

let test_majority () =
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.int))
    "majority" (Some ("x", 3))
    (Stats.majority [ "y"; "x"; "x"; "z"; "x" ])

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.percentile 0.5 xs);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.percentile 1.0 xs)

let prop_entropy_nonnegative =
  QCheck.Test.make ~name:"entropy >= 0" ~count:300
    QCheck.(list (string_of_size (Gen.return 1)))
    (fun values -> Stats.entropy values >= 0.0)

let prop_entropy_bounded_by_log_n =
  QCheck.Test.make ~name:"entropy <= ln(distinct)" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 30) (string_of_size (Gen.return 1)))
    (fun values ->
      let distinct = List.length (Stats.distinct values) in
      Stats.entropy values <= log (float_of_int (max 1 distinct)) +. 1e-9)

(* --- Strutil ------------------------------------------------------------ *)

let dl = Strutil.damerau_levenshtein

let test_dl_identity () = check Alcotest.int "0" 0 (dl "datadir" "datadir")
let test_dl_empty () = check Alcotest.int "len" 4 (dl "" "abcd")
let test_dl_substitution () = check Alcotest.int "1" 1 (dl "kitten" "sitten")
let test_dl_transposition () = check Alcotest.int "1" 1 (dl "datadir" "datadri")
let test_dl_insert_delete () =
  check Alcotest.int "1 ins" 1 (dl "port" "porrt");
  check Alcotest.int "1 del" 1 (dl "socket" "ocket")

let prop_dl_symmetric =
  QCheck.Test.make ~name:"edit distance symmetric" ~count:300
    QCheck.(pair (string_of_size (Gen.int_range 0 8)) (string_of_size (Gen.int_range 0 8)))
    (fun (a, b) -> dl a b = dl b a)

let prop_dl_triangle =
  QCheck.Test.make ~name:"edit distance triangle inequality" ~count:200
    QCheck.(triple (string_of_size (Gen.int_range 0 8))
              (string_of_size (Gen.int_range 0 8)) (string_of_size (Gen.int_range 0 8)))
    (fun (a, b, c) -> dl a c <= dl a b + dl b c)

(* Small alphabets make near strings common, so distances land on both
   sides of the limit and the early cut-off is exercised. *)
let prop_dl_below =
  let gen =
    QCheck.Gen.(
      int_range 3 4 >>= fun k ->
      let s =
        string_size
          ~gen:(map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound (k - 1)))
          (int_range 0 12)
      in
      triple s s (int_range 0 14))
  in
  QCheck.Test.make ~name:"bounded edit distance = exact below limit"
    ~count:3000
    (QCheck.make ~print:QCheck.Print.(triple string string int) gen)
    (fun (a, b, limit) ->
      let d = dl a b in
      Strutil.damerau_levenshtein_below ~limit a b
      = if d < limit then Some d else None)

let test_path_join () =
  check Alcotest.string "plain" "/var/lib/mysql" (Strutil.path_join "/var/lib" "mysql");
  check Alcotest.string "trailing slash" "/var/lib/mysql" (Strutil.path_join "/var/lib/" "mysql");
  check Alcotest.string "leading slash" "/var/lib/mysql" (Strutil.path_join "/var/lib" "/mysql");
  check Alcotest.string "root" "/etc" (Strutil.path_join "/" "etc")

let test_dirname_basename () =
  check Alcotest.string "dirname" "/var/lib" (Strutil.dirname "/var/lib/mysql");
  check Alcotest.string "top" "/" (Strutil.dirname "/etc");
  check Alcotest.string "basename" "mysql" (Strutil.basename "/var/lib/mysql")

let test_parse_size () =
  let s v = Strutil.parse_size v in
  check (Alcotest.option Alcotest.int) "bare" (Some 300) (s "300");
  check (Alcotest.option Alcotest.int) "K" (Some 8192) (s "8K");
  check (Alcotest.option Alcotest.int) "M" (Some (16 * 1024 * 1024)) (s "16M");
  check (Alcotest.option Alcotest.int) "lowercase g" (Some (1024 * 1024 * 1024)) (s "1g");
  check (Alcotest.option Alcotest.int) "junk" None (s "eight");
  check (Alcotest.option Alcotest.int) "negative" None (s "-5M");
  check (Alcotest.option Alcotest.int) "suffix only" None (s "M")

let prop_size_roundtrip =
  QCheck.Test.make ~name:"format_size/parse_size roundtrip" ~count:500
    QCheck.(int_range 0 (1 lsl 40))
    (fun bytes ->
      match Strutil.parse_size (Strutil.format_size bytes) with
      | Some v -> v = bytes
      | None -> false)

let test_split_once () =
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "found" (Some ("a ", " b")) (Strutil.split_once "a -- b" "--");
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "missing" None (Strutil.split_once "a b" "--")

let test_contains_sub () =
  check Alcotest.bool "yes" true (Strutil.contains_sub "datadir.owner" "datadir");
  check Alcotest.bool "no" false (Strutil.contains_sub "data" "datadir");
  check Alcotest.bool "empty" true (Strutil.contains_sub "x" "")

(* --- Csvio -------------------------------------------------------------- *)

let test_csv_escape () =
  check Alcotest.string "comma" "\"a,b\"" (Csvio.escape_field "a,b");
  check Alcotest.string "quote" "\"a\"\"b\"" (Csvio.escape_field "a\"b");
  check Alcotest.string "plain" "ab" (Csvio.escape_field "ab")

let test_csv_roundtrip_simple () =
  let rows = [ [ "a"; "b" ]; [ "c"; "d" ] ] in
  let text = Csvio.to_string ~header:[ "x"; "y" ] rows in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "roundtrip" ([ "x"; "y" ] :: rows) (Csvio.parse text)

let test_csv_quoted_content () =
  let rows = [ [ "a,b"; "c\nd"; "e\"f" ] ] in
  let text = Csvio.to_string ~header:[ "1"; "2"; "3" ] rows in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "quoted roundtrip" ([ "1"; "2"; "3" ] :: rows) (Csvio.parse text)

let prop_csv_roundtrip =
  let field = QCheck.Gen.string_size ~gen:QCheck.Gen.printable (QCheck.Gen.int_range 0 12) in
  QCheck.Test.make ~name:"csv roundtrip arbitrary fields" ~count:300
    QCheck.(make (Gen.list_size (Gen.int_range 1 5)
                    (Gen.list_size (Gen.int_range 1 5) field)))
    (fun rows ->
      (* normalize: every row padded to header length is not required;
         generate uniform width instead *)
      let width = List.length (List.hd rows) in
      let rows = List.map (fun r ->
          let r = if List.length r > width then List.filteri (fun i _ -> i < width) r
                  else r @ List.init (width - List.length r) (fun _ -> "") in
          (* CR characters are canonicalized away by the reader *)
          List.map (fun f -> String.concat "" (String.split_on_char '\r' f)) r)
          rows
      in
      let header = List.init width string_of_int in
      Csvio.parse (Csvio.to_string ~header rows) = header :: rows)

(* --- Symtab ------------------------------------------------------------- *)

let test_symtab_dense_ids () =
  let t = Symtab.create () in
  check Alcotest.int "first" 0 (Symtab.intern t "a");
  check Alcotest.int "second" 1 (Symtab.intern t "b");
  check Alcotest.int "re-intern stable" 0 (Symtab.intern t "a");
  check Alcotest.int "size" 2 (Symtab.size t)

let test_symtab_find_and_name () =
  let t = Symtab.create ~size:1 () in
  ignore (Symtab.intern t "x");
  check (Alcotest.option Alcotest.int) "found" (Some 0) (Symtab.find t "x");
  check (Alcotest.option Alcotest.int) "absent" None (Symtab.find t "y");
  check Alcotest.string "inverse" "x" (Symtab.name t 0);
  check Alcotest.bool "bad id raises" true
    (try ignore (Symtab.name t 1); false with Invalid_argument _ -> true)

let test_symtab_to_array_order () =
  let t = Symtab.create ~size:2 () in
  let names = List.init 100 (fun i -> "s" ^ string_of_int i) in
  List.iter (fun s -> ignore (Symtab.intern t s)) names;
  check (Alcotest.list Alcotest.string) "interning order" names
    (Array.to_list (Symtab.to_array t))

let prop_symtab_bijection =
  QCheck.Test.make ~name:"symtab id/name bijection" ~count:200
    QCheck.(small_list (string_of_size (Gen.int_range 0 6)))
    (fun names ->
      let t = Symtab.create () in
      List.for_all
        (fun s -> Symtab.name t (Symtab.intern t s) = s)
        names)

(* --- Texttab ------------------------------------------------------------ *)

let test_texttab_contains_cells () =
  let out = Texttab.render ~header:[ "App"; "N" ] [ [ "mysql"; "42" ] ] in
  check Alcotest.bool "has header" true (Strutil.contains_sub out "App");
  check Alcotest.bool "has cell" true (Strutil.contains_sub out "mysql")

let test_texttab_ragged_rows () =
  let out = Texttab.render ~header:[ "a" ] [ [ "1"; "2"; "3" ] ] in
  check Alcotest.bool "extra columns rendered" true (Strutil.contains_sub out "3")

let test_texttab_right_align () =
  let out =
    Texttab.render ~aligns:[ Texttab.Right ] ~header:[ "n" ] [ [ "7" ] ]
  in
  check Alcotest.bool "padded number" true (Strutil.contains_sub out "| 7 |")

let () =
  Alcotest.run "encore_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick test_prng_seed_changes_stream;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int rejects bound<=0" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "int_in inclusive" `Quick test_prng_int_in_inclusive;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "pick singleton" `Quick test_prng_pick_singleton;
          Alcotest.test_case "pick empty raises" `Quick test_prng_pick_empty;
          Alcotest.test_case "weighted favors heavy" `Quick test_prng_weighted_heavy;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_prng_sample_distinct;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_prng_copy_replays;
          Alcotest.test_case "weighted rejects zero" `Quick test_prng_weighted_rejects_zero;
          qtest prop_prng_int_nonnegative;
        ] );
      ( "stats",
        [
          Alcotest.test_case "entropy empty" `Quick test_entropy_empty;
          Alcotest.test_case "entropy constant" `Quick test_entropy_constant;
          Alcotest.test_case "entropy uniform two" `Quick test_entropy_uniform_two;
          Alcotest.test_case "entropy 90/10 is Ht" `Quick test_entropy_90_10;
          Alcotest.test_case "counts order" `Quick test_counts_order;
          Alcotest.test_case "majority" `Quick test_majority;
          Alcotest.test_case "percentile" `Quick test_percentile;
          qtest prop_entropy_nonnegative;
          qtest prop_entropy_bounded_by_log_n;
        ] );
      ( "strutil",
        [
          Alcotest.test_case "dl identity" `Quick test_dl_identity;
          Alcotest.test_case "dl empty" `Quick test_dl_empty;
          Alcotest.test_case "dl substitution" `Quick test_dl_substitution;
          Alcotest.test_case "dl transposition" `Quick test_dl_transposition;
          Alcotest.test_case "dl insert/delete" `Quick test_dl_insert_delete;
          Alcotest.test_case "path_join" `Quick test_path_join;
          Alcotest.test_case "dirname/basename" `Quick test_dirname_basename;
          Alcotest.test_case "parse_size" `Quick test_parse_size;
          Alcotest.test_case "split_once" `Quick test_split_once;
          Alcotest.test_case "contains_sub" `Quick test_contains_sub;
          qtest prop_dl_symmetric;
          qtest prop_dl_triangle;
          qtest prop_dl_below;
          qtest prop_size_roundtrip;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "roundtrip simple" `Quick test_csv_roundtrip_simple;
          Alcotest.test_case "roundtrip quoted" `Quick test_csv_quoted_content;
          qtest prop_csv_roundtrip;
        ] );
      ( "symtab",
        [
          Alcotest.test_case "dense ids" `Quick test_symtab_dense_ids;
          Alcotest.test_case "find and name" `Quick test_symtab_find_and_name;
          Alcotest.test_case "to_array order" `Quick test_symtab_to_array_order;
          qtest prop_symtab_bijection;
        ] );
      ( "texttab",
        [
          Alcotest.test_case "cells rendered" `Quick test_texttab_contains_cells;
          Alcotest.test_case "ragged rows" `Quick test_texttab_ragged_rows;
          Alcotest.test_case "right align" `Quick test_texttab_right_align;
        ] );
    ]
