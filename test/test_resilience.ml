(* Chaos-property tests for the resilient ingestion pipeline: the
   retry/breaker substrate, content-integrity scanning, diagnostic
   lens parsing, the flaky-environment simulator, and the end-to-end
   guarantee that pipeline faults are quarantined — never raised. *)

module Res = Encore_util.Resilience
module Prng = Encore_util.Prng
module Fs = Encore_sysenv.Fs
module Image = Encore_sysenv.Image
module Flaky = Encore_sysenv.Flaky
module Registry = Encore_confparse.Registry
module Ini = Encore_confparse.Ini
module Apache_lens = Encore_confparse.Apache_lens
module Sshd_lens = Encore_confparse.Sshd_lens
module Fault = Encore_inject.Fault
module Chaos = Encore_inject.Chaos
module Conferr = Encore_inject.Conferr
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Detector = Encore_detect.Detector
module Pipeline = Encore.Pipeline
module Chaosrun = Encore.Chaosrun

let check = Alcotest.check

let clean_profile = { Profile.ec2 with Profile.latent_error_rate = 0.0 }

let training ?(app = Image.Mysql) ~seed n =
  Population.images (Population.generate ~profile:clean_profile ~seed app ~n)

(* --- retry combinator --------------------------------------------------- *)

let flaky_fn succeed_at ~attempt =
  if attempt >= succeed_at then Ok attempt
  else Error (Res.diag Res.Probe_failure ~subject:"probe" "flap")

let test_retry_eventually_succeeds () =
  let att = Res.with_retries ~rng:(Prng.create 1) (flaky_fn 2) in
  check Alcotest.(result int reject) "succeeds on third attempt" (Ok 2)
    (Result.map_error (fun _ -> "") att.Res.outcome);
  check Alcotest.int "two retries" 2 att.Res.retries;
  check Alcotest.bool "backoff accumulated" true (att.Res.backoff_ms > 0)

let test_retry_deterministic () =
  let run () = Res.with_retries ~rng:(Prng.create 99) (flaky_fn 3) in
  let a = run () and b = run () in
  check Alcotest.int "same retries" a.Res.retries b.Res.retries;
  check Alcotest.int "same virtual backoff" a.Res.backoff_ms b.Res.backoff_ms

let test_retry_exhaustion () =
  let att = Res.with_retries ~max_retries:2 ~rng:(Prng.create 5) (flaky_fn 10) in
  (match att.Res.outcome with
  | Error d -> check Alcotest.string "kind" "probe-failure" (Res.kind_to_string d.Res.kind)
  | Ok _ -> Alcotest.fail "expected exhaustion");
  check Alcotest.int "all retries spent" 2 att.Res.retries

let test_retry_on_filters_kinds () =
  (* a corrupt payload will not heal: no retries spent on it *)
  let att =
    Res.with_retries ~rng:(Prng.create 3) (fun ~attempt:_ ->
        (Error (Res.diag Res.Corrupt_image ~subject:"img" "garbage")
          : (int, Res.diagnostic) result))
  in
  check Alcotest.int "not retried" 0 att.Res.retries;
  check Alcotest.int "no backoff" 0 att.Res.backoff_ms

let test_backoff_grows_exponentially () =
  (* with jitter in [0, base), attempt n costs at least base * 2^n *)
  let att =
    Res.with_retries ~max_retries:3 ~base_delay_ms:10 ~rng:(Prng.create 7)
      (flaky_fn 10)
  in
  check Alcotest.bool "at least the exponential floor" true
    (att.Res.backoff_ms >= 10 + 20 + 40)

let test_backoff_jitter_bounded () =
  (* attempt n costs base*2^n plus jitter drawn from [0, base), so the
     whole schedule is bounded by [sum base*2^n, sum (base*2^n + base)).
     Check the bound across many seeds, not just one. *)
  let base = 10 and retries = 3 in
  let floor_ms = base * ((1 lsl retries) - 1) in
  let ceil_ms = floor_ms + (retries * base) in
  for seed = 0 to 49 do
    let att =
      Res.with_retries ~max_retries:retries ~base_delay_ms:base
        ~rng:(Prng.create seed) (flaky_fn 10)
    in
    check Alcotest.int "exhausted every retry" retries att.Res.retries;
    check Alcotest.bool
      (Printf.sprintf "backoff %d within [%d, %d) for seed %d"
         att.Res.backoff_ms floor_ms ceil_ms seed)
      true
      (att.Res.backoff_ms >= floor_ms && att.Res.backoff_ms < ceil_ms)
  done

(* --- circuit breaker ----------------------------------------------------- *)

let test_breaker_trips_at_threshold () =
  let b = Res.breaker ~threshold:2 () in
  let d = Res.diag Res.Probe_failure ~subject:"img-1" "flap" in
  Res.record_failure b ~subject:"img-1" d;
  check Alcotest.bool "below threshold" false (Res.tripped b ~subject:"img-1");
  Res.record_failure b ~subject:"img-1" d;
  check Alcotest.bool "tripped" true (Res.tripped b ~subject:"img-1");
  check Alcotest.(list string) "quarantined" [ "img-1" ]
    (List.map fst (Res.quarantined b))

let test_breaker_success_closes_circuit () =
  let b = Res.breaker ~threshold:2 () in
  let d = Res.diag Res.Probe_failure ~subject:"img-1" "flap" in
  Res.record_failure b ~subject:"img-1" d;
  Res.record_success b ~subject:"img-1";
  Res.record_failure b ~subject:"img-1" d;
  check Alcotest.bool "count was reset" false (Res.tripped b ~subject:"img-1")

let breaker_state_t =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Res.breaker_state_to_string s))
    ( = )

(* drive an open circuit through its cooldown: [allow] denies
   [cooldown - 1] probes, then the [cooldown]-th call flips the
   circuit to half-open and admits that probe as the trial *)
let drain_cooldown b ~subject ~cooldown =
  for i = 1 to cooldown - 1 do
    check Alcotest.bool
      (Printf.sprintf "denial %d/%d while open" i (cooldown - 1))
      false (Res.allow b ~subject)
  done;
  check Alcotest.bool "trial probe admitted" true (Res.allow b ~subject);
  check breaker_state_t "half-open for the trial" Res.Half_open
    (Res.state b ~subject)

let test_breaker_half_open_success_closes () =
  let b = Res.breaker ~threshold:2 ~cooldown:3 () in
  let d = Res.diag Res.Probe_failure ~subject:"img-1" "flap" in
  Res.record_failure b ~subject:"img-1" d;
  Res.record_failure b ~subject:"img-1" d;
  check breaker_state_t "open at threshold" Res.Open (Res.state b ~subject:"img-1");
  drain_cooldown b ~subject:"img-1" ~cooldown:3;
  Res.record_success b ~subject:"img-1";
  check breaker_state_t "trial success closes" Res.Closed
    (Res.state b ~subject:"img-1");
  check Alcotest.bool "closed circuit admits" true (Res.allow b ~subject:"img-1")

let test_breaker_half_open_failure_reopens () =
  let b = Res.breaker ~threshold:2 ~cooldown:2 () in
  let d = Res.diag Res.Probe_failure ~subject:"img-1" "flap" in
  Res.record_failure b ~subject:"img-1" d;
  Res.record_failure b ~subject:"img-1" d;
  drain_cooldown b ~subject:"img-1" ~cooldown:2;
  Res.record_failure b ~subject:"img-1" d;
  check breaker_state_t "trial failure re-opens" Res.Open
    (Res.state b ~subject:"img-1");
  (* the re-opened circuit starts a fresh cooldown *)
  check Alcotest.bool "denied again after re-open" false
    (Res.allow b ~subject:"img-1")

let test_breaker_transitions_counted_as_metrics () =
  (* every state transition lands on its own counter, so a dashboard
     can see circuits opening and recovering without scraping logs *)
  let count name =
    Encore_obs.Metrics.count (Encore_obs.Metrics.counter name)
  in
  let opened0 = count "resilience.breaker_to_open" in
  let half0 = count "resilience.breaker_to_half_open" in
  let closed0 = count "resilience.breaker_to_closed" in
  let b = Res.breaker ~threshold:2 ~cooldown:2 () in
  let d = Res.diag Res.Probe_failure ~subject:"img-1" "flap" in
  Res.record_failure b ~subject:"img-1" d;
  check Alcotest.int "no transition below threshold" opened0
    (count "resilience.breaker_to_open");
  Res.record_failure b ~subject:"img-1" d;
  check Alcotest.int "closed -> open counted" (opened0 + 1)
    (count "resilience.breaker_to_open");
  drain_cooldown b ~subject:"img-1" ~cooldown:2;
  check Alcotest.int "open -> half-open counted" (half0 + 1)
    (count "resilience.breaker_to_half_open");
  Res.record_failure b ~subject:"img-1" d;
  check Alcotest.int "trial failure re-opens and counts" (opened0 + 2)
    (count "resilience.breaker_to_open");
  drain_cooldown b ~subject:"img-1" ~cooldown:2;
  Res.record_success b ~subject:"img-1";
  check Alcotest.int "half-open -> closed counted" (closed0 + 1)
    (count "resilience.breaker_to_closed");
  (* a success on an already-closed circuit is not a transition *)
  Res.record_success b ~subject:"img-1";
  check Alcotest.int "steady closed state not re-counted" (closed0 + 1)
    (count "resilience.breaker_to_closed")

let test_breaker_quarantine_excludes_reclosed () =
  let b = Res.breaker ~threshold:1 ~cooldown:1 () in
  let d subject = Res.diag Res.Probe_failure ~subject "flap" in
  Res.record_failure b ~subject:"img-1" (d "img-1");
  Res.record_failure b ~subject:"img-2" (d "img-2");
  check Alcotest.(list string) "both quarantined" [ "img-1"; "img-2" ]
    (List.map fst (Res.quarantined b));
  (* img-1 recovers through its half-open trial; img-2 stays open *)
  drain_cooldown b ~subject:"img-1" ~cooldown:1;
  Res.record_success b ~subject:"img-1";
  check Alcotest.(list string) "recovered circuit excluded" [ "img-2" ]
    (List.map fst (Res.quarantined b))

(* --- integrity scanning --------------------------------------------------- *)

let test_scan_text_clean () =
  check Alcotest.int "clean text has no diagnostics" 0
    (List.length (Res.scan_text ~subject:"f" "key = value\n"))

let test_scan_text_garbage () =
  match Res.scan_text ~subject:"f" "key = va\x00\x01lue\n" with
  | [ d ] ->
      check Alcotest.string "corrupt" "corrupt-image" (Res.kind_to_string d.Res.kind)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_scan_text_truncated () =
  match Res.scan_text ~subject:"f" "key = value\npartial li" with
  | [ d ] ->
      check Alcotest.string "truncation is a parse error" "parse-error"
        (Res.kind_to_string d.Res.kind)
  | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds)

let test_histogram_shape () =
  let diags =
    [ Res.diag Res.Parse_error ~subject:"a" "x";
      Res.diag Res.Parse_error ~subject:"b" "y";
      Res.diag Res.Overflow ~subject:"c" "z" ]
  in
  let h = Res.histogram diags in
  check Alcotest.int "all kinds present" (List.length Res.all_kinds) (List.length h);
  check Alcotest.int "total" 3 (Res.histogram_total h);
  check Alcotest.int "parse errors" 2 (List.assoc Res.Parse_error h);
  check Alcotest.int "zero-filled" 0 (List.assoc Res.Corrupt_image h)

(* --- Fs path canonicalization (satellite: relative-path handling) -------- *)

let test_canonicalize_absorbs_noise () =
  let ok = Alcotest.(result string string) in
  check ok "trailing slash" (Ok "/etc/mysql") (Fs.canonicalize "/etc/mysql/");
  check ok "dot component" (Ok "/etc/mysql") (Fs.canonicalize "/etc/./mysql");
  check ok "dotdot resolved" (Ok "/etc/passwd")
    (Fs.canonicalize "/var/../etc/passwd");
  check ok "doubled slash" (Ok "/etc/mysql") (Fs.canonicalize "//etc//mysql");
  check ok "leading ./ before absolute" (Ok "/etc/mysql")
    (Fs.canonicalize ".//etc/mysql");
  check ok "root" (Ok "/") (Fs.canonicalize "/")

let test_canonicalize_rejects_unsafe () =
  let bad p =
    match Fs.canonicalize p with
    | Error _ -> true
    | Ok _ -> false
  in
  check Alcotest.bool "empty" true (bad "");
  check Alcotest.bool "relative" true (bad "etc/passwd");
  check Alcotest.bool "relative after ./" true (bad "./etc/passwd");
  check Alcotest.bool "escapes root" true (bad "/../etc")

let test_add_still_raises () =
  (* the raising path stays for internal callers with known-good paths *)
  Alcotest.check_raises "relative path raises"
    (Invalid_argument "Fs: path must be absolute: etc")
    (fun () -> ignore (Fs.add_file Fs.empty "etc"))

let test_fs_lookup_tolerates_bad_paths () =
  let fs = Fs.add_file Fs.empty "/etc/passwd" in
  check Alcotest.bool "bad path lookup is None, not an exception" true
    (Fs.lookup fs "not-a-path" = None)

(* --- diagnostic lens parsing ---------------------------------------------- *)

let test_ini_parse_diag () =
  let text = "[mysqld]\nport = 3306\n[broken\n= novalue\nuser = mysql\n" in
  let kvs, diags = Ini.parse_diag ~app:"mysql" text in
  check Alcotest.int "two good entries survive" 2 (List.length kvs);
  check Alcotest.int "two diagnostics" 2 (List.length diags);
  check Alcotest.(list int) "line numbers" [ 3; 4 ] (List.map fst diags);
  (* the plain parser is the diagnostic parser with diags dropped *)
  check Alcotest.int "parse agrees" (List.length (Ini.parse ~app:"mysql" text)) 2

let test_apache_parse_diag () =
  let text = "Listen 80\n</Directory>\n<Directory /var/www>\nOptions None\n" in
  let _, diags = Apache_lens.parse_diag ~app:"apache" text in
  let messages = List.map snd diags in
  check Alcotest.bool "unmatched closing tag reported" true
    (List.exists
       (fun m -> Encore_util.Strutil.contains_sub m "unmatched closing tag")
       messages);
  check Alcotest.bool "unclosed section reported" true
    (List.exists
       (fun m -> Encore_util.Strutil.contains_sub m "unclosed section")
       messages)

let test_sshd_parse_diag () =
  let kvs, diags = Sshd_lens.parse_diag ~app:"sshd" "Port 22\nFragment\n" in
  check Alcotest.int "good entry kept" 1 (List.length kvs);
  check Alcotest.(list int) "bad line reported" [ 2 ] (List.map fst diags)

let test_registry_parse_image_diag_clean () =
  let img = List.hd (training ~seed:3 1) in
  let parsed = Registry.parse_image_diag img in
  check Alcotest.int "no fatal diagnostics" 0 (List.length parsed.Registry.fatal);
  check Alcotest.int "kvs agree with the strict parser"
    (List.length (Registry.parse_image img))
    (List.length parsed.Registry.kvs)

let test_registry_parse_image_diag_corrupt () =
  let img = List.hd (training ~seed:3 1) in
  let cf =
    match Image.config_for img Image.Mysql with
    | Some cf -> cf
    | None -> Alcotest.fail "mysql image lost its config"
  in
  let img = Image.set_config img Image.Mysql (cf.Image.text ^ "\x00\x01") in
  let parsed = Registry.parse_image_diag img in
  check Alcotest.bool "fatal diagnostics" true (parsed.Registry.fatal <> []);
  check Alcotest.int "damaged file contributes no kvs" 0
    (List.length parsed.Registry.kvs)

(* --- flaky environment simulator ------------------------------------------ *)

let test_flaky_reliable_passthrough () =
  let img = List.hd (training ~seed:4 1) in
  let sim = Flaky.reliable ~rng:(Prng.create 1) in
  match Flaky.collect sim img with
  | Ok (records, diags) ->
      check Alcotest.bool "records collected" true (records <> []);
      check Alcotest.int "no diagnostics" 0 (List.length diags)
  | Error _ -> Alcotest.fail "reliable simulator flapped"

let test_flaky_permanent_flap_exhausts_retries () =
  let img = Image.with_flakiness (List.hd (training ~seed:4 1)) 1.0 in
  let sim = Flaky.reliable ~rng:(Prng.create 1) in
  let att = Flaky.collect_with_retries ~max_retries:2 sim img in
  (match att.Res.outcome with
  | Error d ->
      check Alcotest.string "probe failure" "probe-failure"
        (Res.kind_to_string d.Res.kind)
  | Ok _ -> Alcotest.fail "flakiness 1.0 cannot succeed");
  check Alcotest.int "retries spent" 2 att.Res.retries

let test_flaky_drops_records_with_diags () =
  let img = List.hd (training ~seed:4 1) in
  let sim = Flaky.make ~drop_record:1.0 ~rng:(Prng.create 1) () in
  match Flaky.collect sim img with
  | Ok (records, diags) ->
      check Alcotest.int "everything dropped" 0 (List.length records);
      check Alcotest.bool "one diagnostic per drop" true (diags <> [])
  | Error _ -> Alcotest.fail "drop_record does not flap the pass"

(* --- resilient learning ---------------------------------------------------- *)

(* [learn_durable] without a deadline: the model and its ingest report. *)
let learn_with_report ?mode images =
  match Pipeline.learn_durable ?mode images with
  | Ok { Pipeline.model = Some model; report; _ } -> Ok (model, report)
  | Ok { Pipeline.model = None; _ } -> Alcotest.fail "no deadline, yet no model"
  | Error d -> Error d

let learn images =
  match Pipeline.learn_result images with
  | Ok model -> model
  | Error d -> Alcotest.failf "learn failed: %s" (Res.diagnostic_to_string d)

let test_durable_clean_matches_learn () =
  let images = training ~seed:7 10 in
  let strict = learn images in
  match learn_with_report images with
  | Error d -> Alcotest.failf "clean learn failed: %s" (Res.diagnostic_to_string d)
  | Ok (model, report) ->
      check Alcotest.int "same rules" (List.length strict.Detector.rules)
        (List.length model.Detector.rules);
      check Alcotest.int "same types" (List.length strict.Detector.types)
        (List.length model.Detector.types);
      check Alcotest.int "all images ingested" report.Pipeline.total
        report.Pipeline.ok;
      check Alcotest.int "nothing quarantined" 0
        (List.length report.Pipeline.quarantined)

let test_learn_result_custom_file_error () =
  match Pipeline.learn_result ~custom:"$$Template\nbogus %%\n" (training ~seed:7 3) with
  | Error d ->
      check Alcotest.string "typed custom-rule error" "custom-rule-error"
        (Res.kind_to_string d.Res.kind)
  | Ok _ -> Alcotest.fail "malformed customization file must be rejected"

let storm_and_learn ~fault ~seed ~n ~fraction =
  let images = training ~seed n in
  let rng = Prng.create (seed + 1) in
  let stormed = Chaos.storm ~fraction ~faults:[ fault ] ~rng images in
  (stormed, learn_with_report stormed.Chaos.images)

let assert_chaos_contained fault seed =
  let stormed, outcome = storm_and_learn ~fault ~seed ~n:10 ~fraction:0.3 in
  match outcome with
  | Error d ->
      Alcotest.failf "%s storm killed the run: %s"
        (Fault.fault_to_string (Fault.Pipeline_fault fault))
        (Res.diagnostic_to_string d)
  | Ok (_model, report) ->
      let victim_ids =
        List.sort_uniq compare
          (List.map (fun (v : Chaos.victim) -> v.Chaos.image_id)
             stormed.Chaos.victims)
      in
      let quarantined_ids =
        List.sort_uniq compare (List.map fst report.Pipeline.quarantined)
      in
      check Alcotest.(list string)
        (Printf.sprintf "%s: quarantined exactly the victims (seed %d)"
           (Fault.fault_to_string (Fault.Pipeline_fault fault)) seed)
        victim_ids quarantined_ids;
      check Alcotest.int "ok + quarantined = total"
        report.Pipeline.total
        (report.Pipeline.ok + List.length report.Pipeline.quarantined);
      (* every diagnostic of the run is accounted for in the histogram *)
      let fatal =
        List.length (List.concat_map snd report.Pipeline.quarantined)
      in
      check Alcotest.int "histogram reconciles"
        (fatal + List.length report.Pipeline.warnings)
        (Res.histogram_total report.Pipeline.histogram)

let test_chaos_truncated_file () =
  List.iter (assert_chaos_contained Fault.Truncated_file) [ 11; 12; 13 ]

let test_chaos_garbage_bytes () =
  List.iter (assert_chaos_contained Fault.Garbage_bytes) [ 21; 22; 23 ]

let test_chaos_probe_flap () =
  List.iter (assert_chaos_contained Fault.Probe_flap) [ 31; 32; 33 ]

let test_chaos_probe_flap_retries_counted () =
  let _, outcome = storm_and_learn ~fault:Fault.Probe_flap ~seed:31 ~n:10 ~fraction:0.3 in
  match outcome with
  | Ok (_, report) ->
      check Alcotest.bool "retries were spent on flapping probes" true
        (report.Pipeline.retried > 0);
      check Alcotest.bool "virtual backoff accumulated" true
        (report.Pipeline.total_backoff_ms > 0)
  | Error _ -> Alcotest.fail "keep-going run cannot fail"

let test_fail_fast_surfaces_first_fault () =
  let images = training ~seed:41 10 in
  let rng = Prng.create 42 in
  let stormed =
    Chaos.storm ~fraction:0.3 ~faults:[ Fault.Garbage_bytes ] ~rng images
  in
  match
    learn_with_report ~mode:Pipeline.Fail_fast stormed.Chaos.images
  with
  | Error d ->
      check Alcotest.string "fatal kind surfaced" "corrupt-image"
        (Res.kind_to_string d.Res.kind)
  | Ok _ -> Alcotest.fail "fail-fast must stop on the first damaged image"

let test_all_quarantined_is_error_not_raise () =
  let images = List.map (fun img -> Image.with_flakiness img 1.0) (training ~seed:43 4) in
  match learn_with_report images with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a fully-flapping population cannot train"

let test_conferr_ignores_pipeline_faults () =
  let img = List.hd (training ~seed:44 1) in
  let rng = Prng.create 1 in
  check Alcotest.bool "pipeline faults are not ConfErr faults" true
    (Conferr.inject_one rng Image.Mysql img
       (Fault.Pipeline_fault Fault.Garbage_bytes)
    = None)

let test_model_io_roundtrips_overflowed () =
  let images = training ~seed:7 6 in
  let model = { (learn images) with Detector.overflowed = true } in
  match Encore_detect.Model_io.of_string (Encore_detect.Model_io.to_string model) with
  | Ok restored ->
      check Alcotest.bool "overflowed preserved" true restored.Detector.overflowed
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

(* --- acceptance: 50-image storm, bounded quality loss (Slow) --------------- *)

let test_chaos_harness_acceptance () =
  match Chaosrun.run ~n:50 ~fraction:0.3 ~seed:42 () with
  | Error d -> Alcotest.failf "harness failed: %s" (Res.diagnostic_to_string d)
  | Ok o ->
      check Alcotest.bool "at least 30%% of the population damaged" true
        (List.length o.Chaosrun.victims >= 15);
      check Alcotest.bool "quarantine exact" true o.Chaosrun.quarantine_exact;
      check Alcotest.bool "chaos-trained model keeps its detection power" true
        (o.Chaosrun.chaos_detected >= o.Chaosrun.clean_detected);
      check Alcotest.bool "degraded-mode notes emitted" true
        (o.Chaosrun.notes <> []);
      check
        Alcotest.(list string)
        "telemetry reconciles with the ingest report" []
        o.Chaosrun.telemetry_notes;
      check Alcotest.bool "telemetry consistent" true
        o.Chaosrun.telemetry_consistent

let () =
  Alcotest.run "encore_resilience"
    [
      ( "retry",
        [
          Alcotest.test_case "eventually succeeds" `Quick test_retry_eventually_succeeds;
          Alcotest.test_case "deterministic" `Quick test_retry_deterministic;
          Alcotest.test_case "exhaustion" `Quick test_retry_exhaustion;
          Alcotest.test_case "retry_on filters kinds" `Quick test_retry_on_filters_kinds;
          Alcotest.test_case "exponential backoff" `Quick test_backoff_grows_exponentially;
          Alcotest.test_case "jitter bounded" `Quick test_backoff_jitter_bounded;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick test_breaker_trips_at_threshold;
          Alcotest.test_case "success closes circuit" `Quick test_breaker_success_closes_circuit;
          Alcotest.test_case "half-open trial success closes" `Quick test_breaker_half_open_success_closes;
          Alcotest.test_case "half-open trial failure re-opens" `Quick test_breaker_half_open_failure_reopens;
          Alcotest.test_case "quarantine excludes re-closed" `Quick test_breaker_quarantine_excludes_reclosed;
          Alcotest.test_case "transitions counted as metrics" `Quick test_breaker_transitions_counted_as_metrics;
        ] );
      ( "scan",
        [
          Alcotest.test_case "clean" `Quick test_scan_text_clean;
          Alcotest.test_case "garbage bytes" `Quick test_scan_text_garbage;
          Alcotest.test_case "truncation" `Quick test_scan_text_truncated;
          Alcotest.test_case "histogram shape" `Quick test_histogram_shape;
        ] );
      ( "fs",
        [
          Alcotest.test_case "absorbs noise" `Quick test_canonicalize_absorbs_noise;
          Alcotest.test_case "rejects unsafe" `Quick test_canonicalize_rejects_unsafe;
          Alcotest.test_case "add raises" `Quick test_add_still_raises;
          Alcotest.test_case "lookup tolerates bad paths" `Quick test_fs_lookup_tolerates_bad_paths;
        ] );
      ( "lens-diag",
        [
          Alcotest.test_case "ini" `Quick test_ini_parse_diag;
          Alcotest.test_case "apache" `Quick test_apache_parse_diag;
          Alcotest.test_case "sshd" `Quick test_sshd_parse_diag;
          Alcotest.test_case "registry clean" `Quick test_registry_parse_image_diag_clean;
          Alcotest.test_case "registry corrupt" `Quick test_registry_parse_image_diag_corrupt;
        ] );
      ( "flaky",
        [
          Alcotest.test_case "reliable passthrough" `Quick test_flaky_reliable_passthrough;
          Alcotest.test_case "permanent flap exhausts" `Quick test_flaky_permanent_flap_exhausts_retries;
          Alcotest.test_case "dropped records" `Quick test_flaky_drops_records_with_diags;
        ] );
      ( "resilient-learn",
        [
          Alcotest.test_case "clean matches strict learn" `Quick test_durable_clean_matches_learn;
          Alcotest.test_case "custom file typed error" `Quick test_learn_result_custom_file_error;
          Alcotest.test_case "truncated-file storm" `Quick test_chaos_truncated_file;
          Alcotest.test_case "garbage-bytes storm" `Quick test_chaos_garbage_bytes;
          Alcotest.test_case "probe-flap storm" `Quick test_chaos_probe_flap;
          Alcotest.test_case "flap retries counted" `Quick test_chaos_probe_flap_retries_counted;
          Alcotest.test_case "fail-fast surfaces fault" `Quick test_fail_fast_surfaces_first_fault;
          Alcotest.test_case "all-quarantined is Error" `Quick test_all_quarantined_is_error_not_raise;
          Alcotest.test_case "conferr ignores pipeline faults" `Quick test_conferr_ignores_pipeline_faults;
          Alcotest.test_case "model io roundtrips overflow" `Quick test_model_io_roundtrips_overflowed;
        ] );
      ( "acceptance",
        [ Alcotest.test_case "50-image storm" `Slow test_chaos_harness_acceptance ] );
    ]
