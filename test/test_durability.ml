(* Durability tests: the atomic snapshot layer and its typed errors,
   the versioned model store with rollback, deadline tokens and their
   propagation through the pool, a learn run that times out gracefully,
   and the model-store drill. *)

module Snapshot = Encore_util.Snapshot
module Deadline = Encore_util.Deadline
module Pool = Encore_util.Pool
module Res = Encore_util.Resilience
module Prng = Encore_util.Prng
module Image = Encore_sysenv.Image
module Model_io = Encore_detect.Model_io
module Chaos = Encore_inject.Chaos
module Pipeline = Encore.Pipeline
module Chaosrun = Encore.Chaosrun
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile

let check = Alcotest.check

(* --- scratch directories -------------------------------------------------- *)

let fresh_dir () =
  let path = Filename.temp_file "encore-durability" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let header_length raw =
  match String.index_opt raw '\n' with
  | Some i -> i + 1
  | None -> String.length raw

(* --- snapshot envelope ---------------------------------------------------- *)

let test_snapshot_roundtrip () =
  with_dir @@ fun dir ->
  Snapshot.mkdir_p dir;
  let path = Filename.concat dir "blob.snap" in
  Snapshot.write_atomic ~kind:"blob" path "hello durable world\n";
  match Snapshot.read ~kind:"blob" path with
  | Ok payload -> check Alcotest.string "payload" "hello durable world\n" payload
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

let test_snapshot_kind_mismatch () =
  with_dir @@ fun dir ->
  Snapshot.mkdir_p dir;
  let path = Filename.concat dir "blob.snap" in
  Snapshot.write_atomic ~kind:"blob" path "payload\n";
  match Snapshot.read ~kind:"other" path with
  | Error (Snapshot.Version_mismatch _) -> ()
  | Error e ->
      Alcotest.failf "expected Version_mismatch, got %s"
        (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "foreign kind verified"

let test_snapshot_missing_file () =
  match Snapshot.read ~kind:"blob" "/nonexistent/encore.snap" with
  | Error (Snapshot.Io_error _) -> ()
  | Error e ->
      Alcotest.failf "expected Io_error, got %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "missing file verified"

let test_snapshot_truncation_detected () =
  with_dir @@ fun dir ->
  Snapshot.mkdir_p dir;
  let path = Filename.concat dir "blob.snap" in
  Snapshot.write_atomic ~kind:"blob" path "0123456789abcdef\n";
  let raw = read_raw path in
  let cut = header_length raw + 4 in
  write_raw path (String.sub raw 0 cut);
  match Snapshot.read ~kind:"blob" path with
  | Error (Snapshot.Truncated { offset; expected; actual; _ }) ->
      check Alcotest.int "offset = where the data stops" cut offset;
      check Alcotest.int "expected full payload" 17 expected;
      check Alcotest.int "actual bytes present" 4 actual
  | Error e ->
      Alcotest.failf "expected Truncated, got %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "torn snapshot verified"

let test_snapshot_bitflip_detected () =
  with_dir @@ fun dir ->
  Snapshot.mkdir_p dir;
  let path = Filename.concat dir "blob.snap" in
  Snapshot.write_atomic ~kind:"blob" path "0123456789abcdef\n";
  let raw = read_raw path in
  let flip_at = header_length raw + 3 in
  let bytes = Bytes.of_string raw in
  Bytes.set bytes flip_at (Char.chr (Char.code (Bytes.get bytes flip_at) lxor 1));
  write_raw path (Bytes.to_string bytes);
  match Snapshot.read ~kind:"blob" path with
  | Error (Snapshot.Corrupt _) -> ()
  | Error e ->
      Alcotest.failf "expected Corrupt, got %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "bit-flipped snapshot verified"

let test_snapshot_trailing_bytes_detected () =
  with_dir @@ fun dir ->
  Snapshot.mkdir_p dir;
  let path = Filename.concat dir "blob.snap" in
  Snapshot.write_atomic ~kind:"blob" path "payload\n";
  write_raw path (read_raw path ^ "junk");
  match Snapshot.read ~kind:"blob" path with
  | Error (Snapshot.Corrupt { offset; _ }) ->
      check Alcotest.bool "offset past the payload" true (offset > 0)
  | Error e ->
      Alcotest.failf "expected Corrupt, got %s" (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.fail "trailing bytes verified"

let test_error_strings_name_variants () =
  List.iter
    (fun (err, needle) ->
      let s = Snapshot.error_to_string err in
      check Alcotest.bool (needle ^ " named in: " ^ s) true
        (Encore_util.Strutil.contains_sub s needle))
    [
      (Snapshot.Io_error { path = "p"; detail = "d" }, "Io_error");
      ( Snapshot.Truncated { path = "p"; offset = 3; expected = 9; actual = 3 },
        "Truncated" );
      (Snapshot.Corrupt { path = "p"; offset = 7; detail = "d" }, "Corrupt");
      ( Snapshot.Version_mismatch { path = "p"; found = "f"; expected = "e" },
        "Version_mismatch" );
      (Snapshot.Malformed { path = "p"; offset = 11; detail = "d" }, "Malformed");
    ]

(* --- generic snapshot store ------------------------------------------------ *)

let test_store_prunes_and_tracks_latest () =
  with_dir @@ fun dir ->
  let store = Snapshot.Store.create ~keep:2 ~kind:"blob" ~dir () in
  List.iter
    (fun p -> ignore (Snapshot.Store.save store (p ^ "\n")))
    [ "a"; "b"; "c"; "d" ];
  check Alcotest.int "pruned to keep" 2
    (List.length (Snapshot.Store.snapshots store));
  match Snapshot.Store.load_latest store with
  | Ok (payload, path) ->
      check Alcotest.string "latest payload" "d\n" payload;
      check Alcotest.bool "latest pointer agrees" true
        (Snapshot.Store.latest_path store = Some path)
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

let test_store_rolls_back_past_corrupt_head () =
  with_dir @@ fun dir ->
  let store = Snapshot.Store.create ~keep:3 ~kind:"blob" ~dir () in
  ignore (Snapshot.Store.save store "older\n");
  let head = Snapshot.Store.save store "newer\n" in
  Chaos.truncate_file ~rng:(Prng.create 11) head;
  (match Snapshot.Store.load_latest store with
   | Ok (payload, path) ->
       check Alcotest.string "older payload restored" "older\n" payload;
       check Alcotest.bool "not the torn head" true (path <> head);
       check Alcotest.bool "latest repointed" true
         (Snapshot.Store.latest_path store = Some path)
   | Error e -> Alcotest.fail (Snapshot.error_to_string e))

let test_store_all_corrupt_is_error () =
  with_dir @@ fun dir ->
  let store = Snapshot.Store.create ~keep:3 ~kind:"blob" ~dir () in
  let rng = Prng.create 13 in
  ignore (Snapshot.Store.save store "one\n");
  ignore (Snapshot.Store.save store "two\n");
  List.iter (Chaos.truncate_file ~rng) (Snapshot.Store.snapshots store);
  check Alcotest.bool "no verifiable snapshot left" true
    (Result.is_error (Snapshot.Store.load_latest store))

(* --- model persistence ------------------------------------------------------ *)

let clean_profile = { Profile.ec2 with Profile.latent_error_rate = 0.0 }

let training ?(seed = 7) n =
  Population.images
    (Population.generate ~profile:clean_profile ~seed Image.Mysql ~n)

let small_model =
  lazy
    (match Pipeline.learn_result (training 8) with
     | Ok m -> m
     | Error d -> Alcotest.fail d.Encore_util.Resilience.detail)

let test_model_save_load_roundtrip () =
  with_dir @@ fun dir ->
  Snapshot.mkdir_p dir;
  let model = Lazy.force small_model in
  let path = Filename.concat dir "model.snap" in
  Model_io.save path model;
  match Model_io.load path with
  | Ok m ->
      check Alcotest.string "byte-identical" (Model_io.to_string model)
        (Model_io.to_string m)
  | Error e -> Alcotest.fail (Model_io.load_error_to_string e)

let test_model_legacy_payload_loads () =
  with_dir @@ fun dir ->
  Snapshot.mkdir_p dir;
  let model = Lazy.force small_model in
  let path = Filename.concat dir "legacy.model" in
  (* a pre-envelope save: the bare payload, no snapshot header *)
  write_raw path (Model_io.to_string model);
  match Model_io.load path with
  | Ok m ->
      check Alcotest.string "legacy load byte-identical"
        (Model_io.to_string model) (Model_io.to_string m)
  | Error e -> Alcotest.fail (Model_io.load_error_to_string e)

let test_model_malformed_payload_offset () =
  with_dir @@ fun dir ->
  Snapshot.mkdir_p dir;
  let path = Filename.concat dir "bad.snap" in
  (* the envelope verifies, the payload is not a model *)
  Snapshot.write_atomic ~kind:Model_io.snapshot_kind path "not a model\n";
  match Model_io.load path with
  | Error (Snapshot.Malformed { offset; _ }) ->
      check Alcotest.bool "offset anchored" true (offset >= 0)
  | Error e ->
      Alcotest.failf "expected Malformed, got %s"
        (Model_io.load_error_to_string e)
  | Ok _ -> Alcotest.fail "garbage parsed as a model"

let test_model_store_rollback_returns_model () =
  with_dir @@ fun dir ->
  let model = Lazy.force small_model in
  let store = Model_io.Store.create ~keep:3 ~dir () in
  ignore (Model_io.Store.save store model);
  let head = Model_io.Store.save store model in
  Chaos.bitflip_file ~rng:(Prng.create 5) head;
  match Model_io.Store.load_latest store with
  | Ok (m, path) ->
      check Alcotest.bool "rolled past the damaged head" true (path <> head);
      check Alcotest.string "model intact" (Model_io.to_string model)
        (Model_io.to_string m)
  | Error e -> Alcotest.fail (Model_io.load_error_to_string e)

(* --- deadlines -------------------------------------------------------------- *)

let test_deadline_after_polls () =
  let d = Deadline.after_polls 2 in
  check Alcotest.bool "poll 1 alive" true (Deadline.status d = None);
  check Alcotest.bool "poll 2 alive" true (Deadline.status d = None);
  check Alcotest.bool "poll 3 expired" true
    (Deadline.status d = Some Deadline.Timed_out);
  Alcotest.check_raises "raise_if_expired" (Deadline.Expired Deadline.Timed_out)
    (fun () -> Deadline.raise_if_expired d)

let test_deadline_cancel_wins () =
  let d = Deadline.after_polls 0 in
  Deadline.cancel d;
  check Alcotest.bool "cancellation wins over timeout" true
    (Deadline.status d = Some Deadline.Cancelled)

let test_deadline_budgets () =
  check Alcotest.bool "non-positive budget is expired" true
    (Deadline.expired (Deadline.of_budget_s 0.0));
  let d = Deadline.of_budget_s 3600.0 in
  check Alcotest.bool "hour budget alive" false (Deadline.expired d);
  (match Deadline.remaining_ns d with
   | Some ns -> check Alcotest.bool "budget remaining" true (ns > 0L)
   | None -> Alcotest.fail "clock budget reports no remaining time");
  check Alcotest.bool "none is unlimited" true (Deadline.is_unlimited Deadline.none);
  check Alcotest.bool "budget is not unlimited" false (Deadline.is_unlimited d)

let test_pool_deadline_aborts_map () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let d = Deadline.after_polls 3 in
          let ran = Atomic.make 0 in
          let aborted =
            match
              Pool.with_deadline pool d (fun () ->
                  Pool.map pool
                    (fun x ->
                      Atomic.incr ran;
                      x * 2)
                    [ 1; 2; 3; 4; 5; 6; 7; 8 ])
            with
            | _results -> false
            | exception Deadline.Expired Deadline.Timed_out -> true
          in
          check Alcotest.bool
            (Printf.sprintf "map aborted with Expired (jobs=%d)" jobs)
            true aborted;
          check Alcotest.bool
            (Printf.sprintf "not every item ran (jobs=%d)" jobs)
            true
            (Atomic.get ran < 8);
          (* the pool stays usable after an abort, without the token *)
          check
            Alcotest.(list int)
            "pool usable afterwards" [ 2; 4 ]
            (Pool.map pool (fun x -> x * 2) [ 1; 2 ])))
    [ 1; 4 ]

(* --- timed-out runs ---------------------------------------------------------- *)

(* Sequential poll schedule (jobs=1): one guard per stage plus one poll
   per probed image, so [after_polls (1 + n)] survives the ingest stage
   and expires at the assemble guard.  Nothing of the timed-out run
   persists, and a rerun without a deadline learns the reference model. *)
let test_deadline_degrades_then_rerun_completes () =
  let images = training 6 in
  let model_text () =
    match Pipeline.learn_durable images with
    | Ok { Pipeline.model = Some m; _ } -> Model_io.to_string m
    | Ok { Pipeline.model = None; _ } ->
        Alcotest.fail "run without a deadline timed out"
    | Error d -> Alcotest.failf "run failed: %s" (Res.diagnostic_to_string d)
  in
  let reference = model_text () in
  let deadline = Deadline.after_polls (1 + List.length images) in
  (match Pipeline.learn_durable ~deadline images with
   | Ok o ->
       check Alcotest.bool "no model" true (o.Pipeline.model = None);
       check Alcotest.bool "timed out at assemble" true
         (o.Pipeline.report.Pipeline.status
         = Pipeline.Timed_out_at Pipeline.Assemble);
       check Alcotest.int "timed-out exit code" 3 (Pipeline.exit_code (Ok o));
       check Alcotest.bool "timed-out diagnostic in histogram" true
         (List.assoc Res.Timed_out o.Pipeline.report.Pipeline.histogram = 1)
   | Error d ->
       Alcotest.failf "timed-out run must degrade, not fail: %s"
         (Res.diagnostic_to_string d));
  check Alcotest.string "rerun model = uninterrupted model" reference
    (model_text ())

let test_durability_drill_converges () =
  with_dir @@ fun dir ->
  match Chaosrun.durability ~n:10 ~dir ~seed:42 () with
  | Error d -> Alcotest.failf "drill failed: %s" (Res.diagnostic_to_string d)
  | Ok o ->
      check Alcotest.bool "torn snapshot detected" true
        o.Chaosrun.truncate_detected;
      check Alcotest.bool "bit-flip detected" true o.Chaosrun.bitflip_detected;
      check Alcotest.bool "store rollback ok" true o.Chaosrun.rollback_ok;
      check Alcotest.(list string) "no discrepancies" []
        o.Chaosrun.durability_notes

let () =
  Alcotest.run "encore_durability"
    [
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "kind mismatch" `Quick test_snapshot_kind_mismatch;
          Alcotest.test_case "missing file" `Quick test_snapshot_missing_file;
          Alcotest.test_case "truncation detected" `Quick test_snapshot_truncation_detected;
          Alcotest.test_case "bit flip detected" `Quick test_snapshot_bitflip_detected;
          Alcotest.test_case "trailing bytes detected" `Quick test_snapshot_trailing_bytes_detected;
          Alcotest.test_case "errors name their variant" `Quick test_error_strings_name_variants;
        ] );
      ( "store",
        [
          Alcotest.test_case "prunes and tracks latest" `Quick test_store_prunes_and_tracks_latest;
          Alcotest.test_case "rolls back past corrupt head" `Quick test_store_rolls_back_past_corrupt_head;
          Alcotest.test_case "all corrupt is error" `Quick test_store_all_corrupt_is_error;
        ] );
      ( "model io",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_model_save_load_roundtrip;
          Alcotest.test_case "legacy payload loads" `Quick test_model_legacy_payload_loads;
          Alcotest.test_case "malformed payload offset" `Quick test_model_malformed_payload_offset;
          Alcotest.test_case "store rollback returns model" `Quick test_model_store_rollback_returns_model;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "after_polls" `Quick test_deadline_after_polls;
          Alcotest.test_case "cancel wins" `Quick test_deadline_cancel_wins;
          Alcotest.test_case "budgets" `Quick test_deadline_budgets;
          Alcotest.test_case "pool map aborts" `Quick test_pool_deadline_aborts_map;
        ] );
      ( "resume",
        [
          Alcotest.test_case "deadline degrades, rerun completes" `Quick
            test_deadline_degrades_then_rerun_completes;
          Alcotest.test_case "durability drill" `Slow test_durability_drill_converges;
        ] );
    ]
