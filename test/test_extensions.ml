(* Tests for the adoption-grade extensions: model serialization, the
   repair advisor, rule-guided test generation, collector restore and
   the ablation harness. *)

module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Model_io = Encore_detect.Model_io
module Advisor = Encore_detect.Advisor
module Warning = Encore_detect.Warning
module Testgen = Encore.Testgen
module Collector = Encore_sysenv.Collector
module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Prng = Encore_util.Prng
module Strutil = Encore_util.Strutil

let check = Alcotest.check

let trained =
  lazy
    (let images = Population.clean (Population.generate ~seed:11 Image.Mysql ~n:40) in
     match Encore.Pipeline.learn_result images with
     | Ok m -> (m, Engine.compile m)
     | Error d -> Alcotest.fail d.Encore_util.Resilience.detail)

let model () = fst (Lazy.force trained)
let engine () = snd (Lazy.force trained)
let warnings_of img = Engine.check (engine ()) img

(* --- Model_io ------------------------------------------------------------- *)

let test_model_roundtrip () =
  let m = model () in
  match Model_io.of_string (Model_io.to_string m) with
  | Error e -> Alcotest.fail e
  | Ok m2 ->
      check Alcotest.int "training count" m.Detector.training_count
        m2.Detector.training_count;
      check Alcotest.int "rules" (List.length m.Detector.rules)
        (List.length m2.Detector.rules);
      check Alcotest.int "types" (List.length m.Detector.types)
        (List.length m2.Detector.types);
      check Alcotest.int "value stats" (List.length m.Detector.value_stats)
        (List.length m2.Detector.value_stats);
      check (Alcotest.list Alcotest.string) "attrs" m.Detector.known_attrs
        m2.Detector.known_attrs;
      (* rule payloads identical, rendered form is canonical *)
      check (Alcotest.list Alcotest.string) "rules content"
        (List.map Encore_rules.Template.rule_to_string m.Detector.rules)
        (List.map Encore_rules.Template.rule_to_string m2.Detector.rules)

let test_model_restored_detects () =
  (* a restored model must behave identically on a faulted target *)
  let m = model () in
  let m2 = Result.get_ok (Model_io.of_string (Model_io.to_string m)) in
  let rng = Prng.create 1234 in
  let target = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"restored" in
  let datadir =
    Option.get
      (Encore_confparse.Kv.find
         (Encore_confparse.Registry.parse_image target)
         "mysql/mysqld/datadir")
  in
  let broken =
    Image.with_fs target (Fs.chown target.Image.fs datadir ~owner:"root" ~group:"root")
  in
  let w1 = List.map (fun w -> w.Warning.message) (warnings_of broken) in
  let w2 =
    List.map (fun w -> w.Warning.message) (Engine.check (Engine.compile m2) broken)
  in
  check (Alcotest.list Alcotest.string) "identical reports" w1 w2;
  check Alcotest.bool "fault detected" true (w1 <> [])

let test_model_io_rejects_garbage () =
  check Alcotest.bool "empty" true (Result.is_error (Model_io.of_string ""));
  check Alcotest.bool "bad header" true
    (Result.is_error (Model_io.of_string "NOT-A-MODEL 9\n"));
  check Alcotest.bool "truncated" true
    (Result.is_error (Model_io.of_string "ENCORE-MODEL 1\n@meta\n5\n"))

let test_model_io_file_roundtrip () =
  let m = model () in
  let path = Filename.temp_file "encore" ".model" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Model_io.save path m;
      match Model_io.load path with
      | Ok m2 ->
          check Alcotest.int "rules over file" (List.length m.Detector.rules)
            (List.length m2.Detector.rules)
      | Error e -> Alcotest.fail (Model_io.load_error_to_string e))

(* --- Advisor -------------------------------------------------------------- *)

let faulted_target () =
  let rng = Prng.create 77 in
  let target = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"advice" in
  let datadir =
    Option.get
      (Encore_confparse.Kv.find
         (Encore_confparse.Registry.parse_image target)
         "mysql/mysqld/datadir")
  in
  ( Image.with_fs target
      (Fs.chown target.Image.fs datadir ~owner:"root" ~group:"root"),
    datadir )

let test_advisor_ownership_fix () =
  let m = model () in
  let broken, datadir = faulted_target () in
  let warnings = warnings_of broken in
  let suggestions = Advisor.advise m broken warnings in
  check Alcotest.int "one suggestion per warning" (List.length warnings)
    (List.length suggestions);
  let chown =
    List.find_opt
      (fun s -> Strutil.starts_with ~prefix:"chown " s.Advisor.action)
      suggestions
  in
  match chown with
  | Some s ->
      check Alcotest.bool "names the path" true
        (Strutil.contains_sub s.Advisor.action datadir)
  | None -> Alcotest.fail "no chown suggestion for an ownership violation"

let test_advisor_name_fix () =
  let m = model () in
  let rng = Prng.create 78 in
  let target = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"typo" in
  let broken =
    match Image.config_for target Image.Mysql with
    | Some cf ->
        Image.set_config target Image.Mysql
          (cf.Image.text ^ "datdir = /var/lib/mysql\n")
    | None -> target
  in
  let warnings = warnings_of broken in
  let suggestions = Advisor.advise m broken warnings in
  check Alcotest.bool "rename suggestion" true
    (List.exists
       (fun s ->
         Strutil.starts_with ~prefix:"rename " s.Advisor.action
         && Strutil.contains_sub s.Advisor.action "datadir")
       suggestions)

let test_advisor_report_renders () =
  let m = model () in
  let broken, _ = faulted_target () in
  let out = Advisor.to_string (Advisor.advise m broken (warnings_of broken)) in
  check Alcotest.bool "has fix lines" true (Strutil.contains_sub out "fix:");
  check Alcotest.bool "has why lines" true (Strutil.contains_sub out "why:")

(* --- Testgen -------------------------------------------------------------- *)

let test_testgen_generates_cases () =
  let m = model () in
  let rng = Prng.create 501 in
  let img = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"testgen" in
  let cases = Testgen.generate m img in
  check Alcotest.bool "cases produced" true (List.length cases > 5);
  (* each case mutates the image *)
  List.iter
    (fun (c : Testgen.test_case) ->
      check Alcotest.bool "image differs" true
        (c.Testgen.image <> img || c.Testgen.description <> ""))
    cases

let test_testgen_cases_detected () =
  (* the self-test loop: the detector must re-flag the targeted rule in
     a very high fraction of generated cases *)
  let m = model () in
  let rng = Prng.create 502 in
  let img = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"loop" in
  let cases = Testgen.generate m img in
  let verified = List.filter (Testgen.verify_detected (engine ())) cases in
  check Alcotest.bool
    (Printf.sprintf "most cases re-detected (%d/%d)" (List.length verified)
       (List.length cases))
    true
    (List.length verified * 10 >= List.length cases * 7)

let test_testgen_verify_compiles_once () =
  (* every case of one model is verified against one compiled engine,
     as [encore-cli testgen] does: one compile, not one per case *)
  let m = model () in
  let rng = Prng.create 502 in
  let img = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"loop" in
  let cases = Testgen.generate m img in
  let compiles = Encore_obs.Metrics.counter "detect.compiles" in
  let before = Encore_obs.Metrics.count compiles in
  let engine = Engine.compile m in
  let verified = List.filter (Testgen.verify_detected engine) cases in
  check Alcotest.bool "several cases, some verified" true
    (List.length cases > 5 && verified <> []);
  check Alcotest.int "one compile for every case" 1
    (Encore_obs.Metrics.count compiles - before)

let test_testgen_skips_inapplicable () =
  (* an image with no config entries yields no cases *)
  let m = model () in
  let empty = Image.make ~id:"empty" [] in
  check Alcotest.int "no cases" 0 (List.length (Testgen.generate m empty))

(* --- Collector restore ------------------------------------------------------ *)

(* An image shipped as its collector dump and decoded on arrival. *)
let shipped img =
  match Collector.image_of_text (Collector.image_to_text img) with
  | Ok restored -> restored
  | Error e -> Alcotest.failf "%s: %s" img.Image.image_id e

let test_collector_restore_roundtrip () =
  let rng = Prng.create 91 in
  let img = Population.generator_for Image.Mysql Profile.private_cloud rng ~id:"rt" in
  let restored = shipped img in
  check Alcotest.string "hostname" img.Image.hostname restored.Image.hostname;
  check Alcotest.string "ip" img.Image.ip_address restored.Image.ip_address;
  check Alcotest.bool "hardware" true (restored.Image.hardware = img.Image.hardware);
  (* filesystem equivalence over all paths *)
  let paths = Fs.all_paths img.Image.fs in
  check (Alcotest.list Alcotest.string) "paths" paths (Fs.all_paths restored.Image.fs);
  List.iter
    (fun p ->
      let m1 = Option.get (Fs.lookup img.Image.fs p) in
      let m2 = Option.get (Fs.lookup restored.Image.fs p) in
      check Alcotest.string ("owner " ^ p) m1.Fs.owner m2.Fs.owner;
      check Alcotest.int ("perm " ^ p) m1.Fs.perm m2.Fs.perm)
    paths;
  (* accounts and services preserved *)
  check Alcotest.bool "mysql user" true
    (Encore_sysenv.Accounts.user_exists restored.Image.accounts "mysql");
  check Alcotest.bool "3306 known" true
    (Encore_sysenv.Services.known_port restored.Image.services 3306)

let test_collector_restore_checks_identically () =
  (* the whole point: a dump shipped from a remote machine must check
     exactly like the original image *)
  let broken, _ = faulted_target () in
  let restored = shipped broken in
  let w1 = List.map (fun w -> w.Warning.message) (warnings_of broken) in
  let w2 = List.map (fun w -> w.Warning.message) (warnings_of restored) in
  check (Alcotest.list Alcotest.string) "same verdicts" w1 w2

(* --- Ablation -------------------------------------------------------------- *)

let test_ablation_tables_render () =
  let scale = Encore.Experiments.test_scale in
  let tables = Encore.Ablation.all ~scale () in
  check Alcotest.int "five ablations" 5 (List.length tables);
  List.iter
    (fun (t : Encore.Experiments.table) ->
      check Alcotest.bool (t.Encore.Experiments.exp_id ^ " has rows") true
        (t.Encore.Experiments.rows <> []);
      check Alcotest.bool "renders" true
        (String.length (Encore.Experiments.render t) > 0))
    tables

let test_ablation_type_selection_reduces () =
  let t = Encore.Ablation.type_selection ~scale:Encore.Experiments.test_scale () in
  List.iter
    (fun row ->
      match row with
      | [ _; _; typed; untyped; _ ] ->
          check Alcotest.bool "typed < untyped" true
            (int_of_string typed < int_of_string untyped)
      | _ -> Alcotest.fail "bad row")
    t.Encore.Experiments.rows

let () =
  Alcotest.run "encore_extensions"
    [
      ( "model-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_model_roundtrip;
          Alcotest.test_case "restored model detects" `Quick test_model_restored_detects;
          Alcotest.test_case "rejects garbage" `Quick test_model_io_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick test_model_io_file_roundtrip;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "ownership fix" `Quick test_advisor_ownership_fix;
          Alcotest.test_case "rename fix" `Quick test_advisor_name_fix;
          Alcotest.test_case "report renders" `Quick test_advisor_report_renders;
        ] );
      ( "testgen",
        [
          Alcotest.test_case "generates cases" `Quick test_testgen_generates_cases;
          Alcotest.test_case "cases re-detected" `Quick test_testgen_cases_detected;
          Alcotest.test_case "skips inapplicable" `Quick test_testgen_skips_inapplicable;
          Alcotest.test_case "one compile per model" `Quick
            test_testgen_verify_compiles_once;
        ] );
      ( "collector-restore",
        [
          Alcotest.test_case "environment roundtrip" `Quick test_collector_restore_roundtrip;
          Alcotest.test_case "checks identically" `Quick
            test_collector_restore_checks_identically;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "tables render" `Slow test_ablation_tables_render;
          Alcotest.test_case "type selection reduces" `Slow
            test_ablation_type_selection_reduces;
        ] );
    ]
