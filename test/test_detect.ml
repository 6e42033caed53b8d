(* Tests for encore_detect: the four anomaly checks, the baselines,
   ranking and report helpers. *)

module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Baseline = Encore_detect.Baseline
module Warning = Encore_detect.Warning
module Report = Encore_detect.Report
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Image = Encore_sysenv.Image

let check = Alcotest.check

(* A tiny but realistic MySQL-ish world: user owns datadir, two sizes
   ordered, a port and a constant charset.  Training varies the
   rule-bearing columns so they pass the entropy filter, as customized
   real-world populations do. *)
let make_image ?(user = "mysql") ?(owner = "mysql")
    ?(datadir = "/var/lib/mysql") ?(port = "3306") ?(small = "8M")
    ?(big = "32M") ?(charset = "utf8") ?(extra = "") id =
  let fs = Fs.add_dir ~owner ~group:owner Fs.empty datadir in
  let accounts = Accounts.add_service_account Accounts.base "mysql" in
  let accounts = Accounts.add_service_account accounts "dbadmin" in
  let text =
    Printf.sprintf
      "[mysqld]\nuser = %s\ndatadir = %s\nport = %s\n\
       net_buffer_length = %s\nmax_allowed_packet = %s\n\
       character_set_server = %s\n%s"
      user datadir port small big charset extra
  in
  Image.make ~id ~fs ~accounts
    [ { Image.app = Image.Mysql; path = "/etc/my.cnf"; text } ]

let training_images n =
  List.init n (fun i ->
      let port = if i mod 4 = 0 then "3307" else "3306" in
      let datadir = if i mod 3 = 0 then "/srv/mysql" else "/var/lib/mysql" in
      let user = if i mod 5 = 0 then "dbadmin" else "mysql" in
      let owner = user in
      let small = if i mod 2 = 0 then "8M" else "16M" in
      let big = if i mod 3 = 0 then "64M" else "32M" in
      make_image ~user ~owner ~datadir ~port ~small ~big
        (Printf.sprintf "train-%d" i))

let engine () =
  match Encore.Pipeline.learn_result (training_images 20) with
  | Ok m -> Engine.compile m
  | Error d -> Alcotest.fail d.Encore_util.Resilience.detail

let warnings_for img = Engine.check (engine ()) img

let has_kind kind_label warnings attr_needle =
  List.exists
    (fun w ->
      Warning.kind_label w = kind_label
      && List.exists
           (fun a -> Encore_util.Strutil.contains_sub a attr_needle)
           w.Warning.attrs)
    warnings

(* --- the four checks ------------------------------------------------------- *)

let test_clean_image_is_quiet () =
  let ws = warnings_for (make_image "clean") in
  check (Alcotest.list Alcotest.string) "no warnings" []
    (List.map (fun w -> w.Warning.message) ws)

let test_name_violation_on_misspelling () =
  let img = make_image ~extra:"datdir = /var/lib/mysql\n" "typo" in
  let ws = warnings_for img in
  check Alcotest.bool "misspelling flagged" true (has_kind "name" ws "datdir");
  (* a close misspelling must rank with high score *)
  let w =
    List.find (fun w -> Warning.kind_label w = "name") ws
  in
  check Alcotest.bool "high score" true (w.Warning.score >= 0.7);
  check Alcotest.bool "names the original" true
    (Encore_util.Strutil.contains_sub w.Warning.message "datadir")

let test_correlation_violation_on_chown () =
  let img = make_image ~owner:"dbadmin" "chown" in
  let ws = warnings_for img in
  check Alcotest.bool "ownership violated" true (has_kind "correlation" ws "datadir")

let test_correlation_violation_on_size_inversion () =
  let img = make_image ~small:"64M" ~big:"32M" "sizes" in
  let ws = warnings_for img in
  check Alcotest.bool "ordering violated" true
    (has_kind "correlation" ws "net_buffer_length")

let test_type_violation_on_broken_path () =
  let img = make_image "badpath" in
  let img =
    Image.set_config img Image.Mysql
      "[mysqld]\nuser = mysql\ndatadir = /no/such/dir\nport = 3306\n\
       net_buffer_length = 8M\nmax_allowed_packet = 32M\ncharacter_set_server = utf8\n"
  in
  let ws = warnings_for img in
  check Alcotest.bool "type violated" true (has_kind "type" ws "datadir")

let test_suspicious_value_on_unseen () =
  let img = make_image ~charset:"latin5" "value" in
  let ws = warnings_for img in
  check Alcotest.bool "unseen value flagged" true (has_kind "value" ws "character_set_server");
  (* constant column -> ICF gives the top of the value-score range *)
  let w = List.find (fun w -> Warning.kind_label w = "value") ws in
  check Alcotest.bool "strong score" true (w.Warning.score >= 0.7)

let test_rule_skipped_when_attr_absent () =
  (* remove the user entry entirely: the ownership rule must be skipped,
     not reported as violated *)
  let img = make_image "absent" in
  let img =
    Image.set_config img Image.Mysql
      "[mysqld]\ndatadir = /var/lib/mysql\nport = 3306\n\
       net_buffer_length = 8M\nmax_allowed_packet = 32M\ncharacter_set_server = utf8\n"
  in
  let ws = warnings_for img in
  check Alcotest.bool "no ownership violation" true
    (not (List.exists
            (fun w ->
              Warning.kind_label w = "correlation"
              && List.exists (fun a -> Encore_util.Strutil.contains_sub a "user") w.Warning.attrs)
            ws))

let test_checks_toggle () =
  let img = make_image ~owner:"dbadmin" ~charset:"latin5" "toggle" in
  let only_values =
    { Engine.check_names = false; check_rules = false; check_types = false;
      check_values = true }
  in
  let ws = Engine.check ~checks:only_values (engine ()) img in
  check Alcotest.bool "no correlation kind" true
    (List.for_all (fun w -> Warning.kind_label w = "value") ws)

let test_warnings_ranked_descending () =
  let img = make_image ~owner:"dbadmin" ~charset:"latin5" ~small:"64M" "rank" in
  let ws = warnings_for img in
  let scores = List.map (fun w -> w.Warning.score) ws in
  check Alcotest.bool "sorted descending" true
    (List.sort (fun a b -> compare b a) scores = scores)

(* --- baselines ----------------------------------------------------------------- *)

let test_baseline_no_rules_no_env () =
  let bl = Baseline.baseline_model (training_images 20) in
  check Alcotest.int "no rules" 0 (List.length (Engine.model bl).Detector.rules);
  check Alcotest.int "no types" 0 (List.length (Engine.model bl).Detector.types);
  (* environment-only fault invisible to the baseline *)
  let img = make_image ~owner:"dbadmin" "bl-chown" in
  let ws = Baseline.baseline_check bl img in
  check (Alcotest.list Alcotest.string) "chown invisible" []
    (List.map (fun w -> w.Warning.message) ws)

let test_baseline_env_sees_environment () =
  let ble = Baseline.baseline_env_model (training_images 20) in
  (* daemon never owns the datadir in training: the augmented
     .owner column carries an unseen value *)
  let img = make_image ~owner:"daemon" "ble-chown" in
  let ws = Baseline.baseline_env_check ble img in
  check Alcotest.bool "owner attribute flagged" true
    (List.exists
       (fun w ->
         List.exists (fun a -> Encore_util.Strutil.contains_sub a "datadir.owner") w.Warning.attrs)
       ws)

let test_baseline_env_no_correlations () =
  let ble = Baseline.baseline_env_model (training_images 20) in
  let img = make_image ~small:"64M" ~big:"32M" "ble-sizes" in
  let ws = Baseline.baseline_env_check ble img in
  check Alcotest.bool "no correlation kind" true
    (List.for_all (fun w -> Warning.kind_label w <> "correlation") ws)

(* --- report -------------------------------------------------------------------- *)

let w score attrs message =
  { Warning.kind = Warning.Suspicious_value { attr = "x"; value = "v"; training_cardinality = 1 };
    attrs; message; score }

let test_report_rank_of_attr () =
  let ws = [ w 0.9 [ "a/x" ] "first"; w 0.5 [ "b/y" ] "second" ] in
  check (Alcotest.option Alcotest.int) "rank 2" (Some 2) (Report.rank_of_attr ws "b/y");
  check (Alcotest.option Alcotest.int) "missing" None (Report.rank_of_attr ws "zzz")

let test_report_merge_by_attr () =
  let ws =
    [ w 0.9 [ "m/datadir" ] "rule"; w 0.8 [ "m/datadir.owner" ] "value";
      w 0.7 [ "m/other" ] "other" ]
  in
  let merged = Report.merge_by_attr ws in
  check Alcotest.int "merged to two" 2 (List.length merged);
  check Alcotest.string "best kept" "rule" (List.hd merged).Warning.message

let test_report_to_string_numbered () =
  let out = Report.to_string [ w 0.9 [ "a" ] "first"; w 0.5 [ "b" ] "second" ] in
  check Alcotest.bool "numbered" true (Encore_util.Strutil.contains_sub out " 1. ");
  check Alcotest.bool "second line" true (Encore_util.Strutil.contains_sub out " 2. ")

let test_report_detected_of () =
  let ws = [ w 0.9 [ "m/datadir" ] "x" ] in
  let hit, missed = Report.detected_of ws ~expected:[ "datadir"; "user" ] in
  check (Alcotest.list Alcotest.string) "hit" [ "datadir" ] hit;
  check (Alcotest.list Alcotest.string) "missed" [ "user" ] missed

let () =
  Alcotest.run "encore_detect"
    [
      ( "checks",
        [
          Alcotest.test_case "clean image quiet" `Quick test_clean_image_is_quiet;
          Alcotest.test_case "name violation" `Quick test_name_violation_on_misspelling;
          Alcotest.test_case "correlation: chown" `Quick test_correlation_violation_on_chown;
          Alcotest.test_case "correlation: size inversion" `Quick
            test_correlation_violation_on_size_inversion;
          Alcotest.test_case "type violation" `Quick test_type_violation_on_broken_path;
          Alcotest.test_case "suspicious value" `Quick test_suspicious_value_on_unseen;
          Alcotest.test_case "rule skipped when absent" `Quick test_rule_skipped_when_attr_absent;
          Alcotest.test_case "check toggles" `Quick test_checks_toggle;
          Alcotest.test_case "ranked descending" `Quick test_warnings_ranked_descending;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "baseline blind to env" `Quick test_baseline_no_rules_no_env;
          Alcotest.test_case "baseline+env sees env" `Quick test_baseline_env_sees_environment;
          Alcotest.test_case "baseline+env no correlations" `Quick
            test_baseline_env_no_correlations;
        ] );
      ( "report",
        [
          Alcotest.test_case "rank_of_attr" `Quick test_report_rank_of_attr;
          Alcotest.test_case "merge_by_attr" `Quick test_report_merge_by_attr;
          Alcotest.test_case "to_string numbered" `Quick test_report_to_string_numbered;
          Alcotest.test_case "detected_of" `Quick test_report_detected_of;
        ] );
    ]
