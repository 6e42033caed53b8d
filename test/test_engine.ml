(* Tests for the compiled detection engine and the fleet serving path:
   the equivalence contract against a reference interpreted checker,
   pool-size independence of fleet reports, deadline degradation,
   degraded-check annotations, advisor output, and the collector image
   dump round-trip. *)

module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Warning = Encore_detect.Warning
module Advisor = Encore_detect.Advisor
module Pipeline = Encore.Pipeline
module Config = Encore.Config
module Testgen = Encore.Testgen
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Image = Encore_sysenv.Image
module Collector = Encore_sysenv.Collector
module Row = Encore_dataset.Row
module Assemble = Encore_dataset.Assemble
module Augment = Encore_dataset.Augment
module Tinfer = Encore_typing.Infer
module Ctype = Encore_typing.Ctype
module Syntactic = Encore_typing.Syntactic
module Semantic = Encore_typing.Semantic
module Template = Encore_rules.Template
module Relation = Encore_rules.Relation
module Strutil = Encore_util.Strutil
module Kv = Encore_confparse.Kv
module Pool = Encore_util.Pool
module Deadline = Encore_util.Deadline
module Prng = Encore_util.Prng

let check = Alcotest.check

(* --- reference interpreted checker ---------------------------------------

   A direct port of the pre-engine [Detector.check]: linear assoc-list
   walks over the model, no compiled indices, no telemetry.  The
   equivalence property below pins [Engine.check] (and the thin
   [Detector.check] wrapper) to this implementation — comparing the
   wrapper against [Engine.check] alone would be vacuous now that the
   wrapper delegates. *)

let ref_config_attrs row =
  List.filter
    (fun attr ->
      (not (Augment.is_augmented attr)) && Strutil.contains_char attr '/')
    (Row.attrs row)

let ref_name_warnings (model : Detector.model) row =
  let known = Hashtbl.create 256 in
  List.iter (fun a -> Hashtbl.add known a ()) model.known_attrs;
  List.filter_map
    (fun attr ->
      if Hashtbl.mem known attr then None
      else
        let base = Kv.key_basename attr in
        let nearest =
          List.fold_left
            (fun best candidate ->
              let cbase = Kv.key_basename candidate in
              let d = Strutil.damerau_levenshtein base cbase in
              match best with
              | Some (_, bd) when bd <= d -> best
              | _ -> Some (candidate, d))
            None model.known_attrs
        in
        let nearest_name, distance =
          match nearest with
          | Some (n, d) -> (Some n, d)
          | None -> (None, max_int)
        in
        let score =
          if distance <= 2 then 0.9 -. (0.1 *. float_of_int distance) else 0.3
        in
        let message =
          match nearest_name with
          | Some n when distance <= 2 ->
              Printf.sprintf "unknown entry '%s': possible misspelling of '%s'"
                attr n
          | Some _ | None ->
              Printf.sprintf "unknown entry '%s': never seen in training" attr
        in
        Some
          {
            Warning.kind =
              Warning.Entry_name_violation { unseen = attr; nearest = nearest_name };
            attrs = [ attr ];
            message;
            score;
          })
    (ref_config_attrs row)

let ref_rule_warnings (model : Detector.model) ctx =
  List.filter_map
    (fun (rule : Template.rule) ->
      match Template.rule_holds rule ctx with
      | Some false ->
          Some
            {
              Warning.kind = Warning.Correlation_violation rule;
              attrs = [ rule.Template.attr_a; rule.Template.attr_b ];
              message =
                Printf.sprintf "correlation violated: %s"
                  (Template.rule_to_string rule);
              score = 0.5 +. (0.5 *. rule.Template.confidence);
            }
      | Some true | None -> None)
    model.rules

let ref_type_warnings (model : Detector.model) row img =
  List.concat_map
    (fun (attr, value) ->
      match Tinfer.find model.types attr with
      | None -> []
      | Some decision ->
          let t = decision.Tinfer.ctype in
          if Ctype.equal t Ctype.String_t then []
          else if Syntactic.matches t value && Semantic.verify img t value then
            []
          else
            [
              {
                Warning.kind = Warning.Type_violation { attr; expected = t; value };
                attrs = [ attr ];
                message =
                  Printf.sprintf "type violation: %s='%s' fails %s check" attr
                    value (Ctype.to_string t);
                score = 0.4 +. (0.5 *. decision.Tinfer.agreement);
              };
            ])
    (Row.to_list row)

let ref_value_warnings (model : Detector.model) row =
  List.filter_map
    (fun (attr, value) ->
      match List.assoc_opt attr model.value_stats with
      | None -> None
      | Some seen ->
          if List.mem value seen then None
          else
            let cardinality = List.length seen in
            let icf = 1.0 /. float_of_int (max 1 cardinality) in
            Some
              {
                Warning.kind =
                  Warning.Suspicious_value
                    { attr; value; training_cardinality = cardinality };
                attrs = [ attr ];
                message =
                  Printf.sprintf
                    "suspicious value: %s='%s' unseen in training (%d distinct \
                     values seen)"
                    attr value cardinality;
                score = 0.2 +. (0.6 *. icf);
              })
    (Row.to_list row)

let ref_check ?(checks = Detector.all_checks) (model : Detector.model) img =
  let row = Assemble.assemble_target ~types:model.types img in
  let ctx = { Relation.image = img; row } in
  let warnings =
    (if checks.Detector.check_names then ref_name_warnings model row else [])
    @ (if checks.Detector.check_rules then ref_rule_warnings model ctx else [])
    @ (if checks.Detector.check_types then ref_type_warnings model row img
       else [])
    @ (if checks.Detector.check_values then ref_value_warnings model row
       else [])
  in
  List.sort Warning.compare_rank warnings

(* --- fixtures -------------------------------------------------------------- *)

let training () = Population.clean (Population.generate ~seed:11 Image.Mysql ~n:40)
let model () = Detector.learn (training ())

let targets seed n =
  List.init n (fun i ->
      Population.generator_for Image.Mysql Profile.ec2
        (Prng.create (seed + i))
        ~id:(Printf.sprintf "target-%03d" i))

let warning_str (w : Warning.t) =
  Printf.sprintf "%s score=%.9f attrs=[%s] %s" (Warning.kind_label w)
    w.Warning.score
    (String.concat "," w.Warning.attrs)
    w.Warning.message

let check_equivalent ~ctx m img =
  let expected = ref_check m img in
  let engine = Engine.check (Engine.compile m) img in
  let wrapper = Detector.check m img in
  check
    Alcotest.(list string)
    (ctx ^ ": engine = reference")
    (List.map warning_str expected)
    (List.map warning_str engine);
  check Alcotest.bool
    (ctx ^ ": engine structurally equal")
    true (expected = engine);
  check Alcotest.bool
    (ctx ^ ": Detector.check = Engine.check")
    true (engine = wrapper)

(* --- equivalence property -------------------------------------------------- *)

let test_equivalence_clean_targets () =
  let m = model () in
  List.iter
    (fun img -> check_equivalent ~ctx:img.Image.image_id m img)
    (targets 500 15)

let test_equivalence_testgen_mutants () =
  (* Testgen derives, per learned rule, a mutated image violating that
     rule — ideal adversarial inputs for the equivalence contract *)
  let m = model () in
  let base =
    Population.generator_for Image.Mysql Profile.ec2 (Prng.create 77) ~id:"base"
  in
  let cases = Testgen.generate m base in
  check Alcotest.bool "testgen produced cases" true (cases <> []);
  List.iter
    (fun (c : Testgen.test_case) ->
      check_equivalent ~ctx:c.Testgen.description m c.Testgen.image)
    cases

let test_equivalence_partial_checks () =
  let m = model () in
  let img =
    Population.generator_for Image.Mysql Profile.ec2 (Prng.create 42)
      ~id:"partial"
  in
  List.iter
    (fun (label, checks) ->
      let expected = ref_check ~checks m img in
      let engine = Engine.check ~checks (Engine.compile m) img in
      check
        Alcotest.(list string)
        (Printf.sprintf "%s subset identical" label)
        (List.map warning_str expected)
        (List.map warning_str engine))
    [
      ("names", { Detector.all_checks with check_rules = false;
                  check_types = false; check_values = false });
      ("rules", { Detector.all_checks with check_names = false;
                  check_types = false; check_values = false });
      ("types", { Detector.all_checks with check_names = false;
                  check_rules = false; check_values = false });
      ("values", { Detector.all_checks with check_names = false;
                   check_rules = false; check_types = false });
      ("none", { Detector.check_names = false; check_rules = false;
                 check_types = false; check_values = false });
    ]

(* --- fleet checking -------------------------------------------------------- *)

let fleet_with_jobs jobs =
  let m = model () in
  let imgs = targets 900 12 in
  let lines = ref [] in
  let report =
    Pool.with_pool ~jobs (fun pool ->
        Pipeline.check_fleet ~pool ~stream:(fun l -> lines := l :: !lines) m
          imgs)
  in
  (report, List.rev !lines)

let test_fleet_jobs_byte_identical () =
  let r1, s1 = fleet_with_jobs 1 in
  let r4, s4 = fleet_with_jobs 4 in
  check Alcotest.(list string) "streamed JSONL identical" s1 s4;
  check Alcotest.bool "reports structurally identical" true (r1 = r4);
  check
    Alcotest.(list string)
    "rendered lines match report order"
    (List.map Pipeline.fleet_image_line r1.Pipeline.fleet_images)
    s1;
  check Alcotest.string "rendered summary identical"
    (Pipeline.fleet_report_to_string r1)
    (Pipeline.fleet_report_to_string r4)

let test_fleet_report_accounting () =
  let m = model () in
  let imgs = targets 1300 8 in
  let r = Pipeline.check_fleet m imgs in
  check Alcotest.int "total" 8 r.Pipeline.fleet_total;
  check Alcotest.int "checked" 8 r.Pipeline.fleet_checked;
  check Alcotest.bool "completed" true
    (r.Pipeline.fleet_status = Pipeline.Fleet_completed);
  check Alcotest.int "exit code 0" 0 (Pipeline.fleet_exit_code r);
  check Alcotest.int "warning count is the sum" r.Pipeline.fleet_warning_count
    (List.fold_left
       (fun acc (fi : Pipeline.fleet_image_report) ->
         acc + List.length fi.Pipeline.fi_warnings)
       0 r.Pipeline.fleet_images);
  List.iter2
    (fun (img : Image.t) (fi : Pipeline.fleet_image_report) ->
      check Alcotest.string "target order" img.Image.image_id
        fi.Pipeline.fi_image)
    imgs r.Pipeline.fleet_images

let test_fleet_deadline_degrades () =
  let m = model () in
  let imgs = targets 1700 10 in
  (* expires after a handful of polls: the run must degrade to a
     completed prefix, not raise *)
  let r = Pipeline.check_fleet ~deadline:(Deadline.after_polls 3) m imgs in
  check Alcotest.bool "timed out" true
    (r.Pipeline.fleet_status = Pipeline.Fleet_timed_out);
  check Alcotest.bool "prefix only" true (r.Pipeline.fleet_checked < 10);
  check Alcotest.int "prefix length matches" r.Pipeline.fleet_checked
    (List.length r.Pipeline.fleet_images);
  check Alcotest.int "exit code 3" 3 (Pipeline.fleet_exit_code r)

(* --- degraded-check annotations -------------------------------------------- *)

let test_degraded_notes_quarantine () =
  let m = model () in
  let img =
    Population.generator_for Image.Mysql Profile.ec2 (Prng.create 3) ~id:"deg"
  in
  let report =
    {
      Pipeline.total = 5;
      ok = 3;
      quarantined =
        [ ("bad-1", []); ("bad-2", []) ];
      retried = 0;
      total_backoff_ms = 0;
      warnings = [];
      histogram = [];
      status = Pipeline.Completed;
    }
  in
  let d = Pipeline.check_degraded ~report m img in
  let has needle =
    List.exists (fun n -> Strutil.contains_sub n needle) d.Pipeline.notes
  in
  check Alcotest.bool "quarantine note" true (has "2 of 5 training image(s)");
  check Alcotest.bool "missing template classes note" true
    (has "no rules learned for template class(es)");
  check Alcotest.bool "result matches plain check" true
    (d.Pipeline.result = Detector.check m img)

let test_degraded_no_spurious_notes () =
  let m = model () in
  let img =
    Population.generator_for Image.Mysql Profile.ec2 (Prng.create 4) ~id:"ok"
  in
  let d = Pipeline.check_degraded m img in
  check Alcotest.bool "no quarantine note without report" false
    (List.exists
       (fun n -> Strutil.contains_sub n "quarantined")
       d.Pipeline.notes)

(* --- advisor ---------------------------------------------------------------- *)

let test_advisor_covers_every_warning () =
  let m = model () in
  let base =
    Population.generator_for Image.Mysql Profile.ec2 (Prng.create 55) ~id:"adv"
  in
  let img =
    match Testgen.generate m base with
    | c :: _ -> c.Testgen.image
    | [] -> base
  in
  let warnings = Detector.check m img in
  check Alcotest.bool "mutant raises warnings" true (warnings <> []);
  let suggestions = Advisor.advise m img warnings in
  check Alcotest.int "one suggestion per warning" (List.length warnings)
    (List.length suggestions);
  List.iter2
    (fun (w : Warning.t) (s : Advisor.suggestion) ->
      check Alcotest.string "suggestion order follows warnings" w.Warning.message
        s.Advisor.warning.Warning.message;
      check Alcotest.bool "action is non-empty" true (s.Advisor.action <> "");
      check Alcotest.bool "rationale is non-empty" true
        (s.Advisor.rationale <> ""))
    warnings suggestions;
  let rendered = Advisor.to_string suggestions in
  check Alcotest.bool "report mentions the first action" true
    (Strutil.contains_sub rendered (List.hd suggestions).Advisor.action)

(* --- collector image dumps -------------------------------------------------- *)

let test_image_dump_roundtrip () =
  List.iter
    (fun (img : Image.t) ->
      let text = Collector.image_to_text img in
      match Collector.image_of_text text with
      | Error e -> Alcotest.failf "round trip failed for %s: %s" img.Image.image_id e
      | Ok restored ->
          check Alcotest.string "id preserved" img.Image.image_id
            restored.Image.image_id;
          check (Alcotest.float 1e-9) "flakiness preserved" img.Image.flakiness
            restored.Image.flakiness;
          (* restore canonicalizes the environment (e.g. implied
             primary groups), so the fixed point is reached after one
             round: serializing the restored image must be stable *)
          let text' = Collector.image_to_text restored in
          (match Collector.image_of_text text' with
          | Error e -> Alcotest.failf "second round trip failed: %s" e
          | Ok again ->
              check Alcotest.string "dump is byte-stable after restore" text'
                (Collector.image_to_text again));
          check Alcotest.bool "same warnings from restored image" true
            (Detector.check (model ()) img = Detector.check (model ()) restored))
    (targets 2100 3)

let test_image_dump_framing_survives_at_lines () =
  (* a config payload whose lines mimic the dump's own directives must
     survive: the byte-count framing, not line shape, delimits it *)
  let tricky = "@env fake 1\n@config evil 0 /x\nkey = value\n@flakiness 9\n" in
  let img =
    Image.make ~id:"tricky" ~fs:Encore_sysenv.Fs.empty
      ~accounts:Encore_sysenv.Accounts.base
      [ { Image.app = Image.Mysql; path = "/etc/my.cnf"; text = tricky } ]
  in
  match Collector.image_of_text (Collector.image_to_text img) with
  | Error e -> Alcotest.failf "framing broke: %s" e
  | Ok restored -> (
      match restored.Image.configs with
      | [ c ] -> check Alcotest.string "payload intact" tricky c.Image.text
      | cs -> Alcotest.failf "expected one config, got %d" (List.length cs))

let test_image_dump_rejects_garbage () =
  List.iter
    (fun text ->
      match Collector.image_of_text text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage: %S" text)
    [ ""; "not a dump"; "ENCORE-IMAGE 2 future"; "ENCORE-IMAGE 1 x\n@config a b c\n" ]

let () =
  Alcotest.run "encore_engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "clean targets" `Quick test_equivalence_clean_targets;
          Alcotest.test_case "testgen mutants" `Quick
            test_equivalence_testgen_mutants;
          Alcotest.test_case "partial check subsets" `Quick
            test_equivalence_partial_checks;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "jobs 1 vs 4 byte-identical" `Quick
            test_fleet_jobs_byte_identical;
          Alcotest.test_case "report accounting" `Quick
            test_fleet_report_accounting;
          Alcotest.test_case "deadline degrades to prefix" `Quick
            test_fleet_deadline_degrades;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "notes for quarantine" `Quick
            test_degraded_notes_quarantine;
          Alcotest.test_case "no spurious notes" `Quick
            test_degraded_no_spurious_notes;
        ] );
      ( "advisor",
        [
          Alcotest.test_case "covers every warning" `Quick
            test_advisor_covers_every_warning;
        ] );
      ( "collector-dump",
        [
          Alcotest.test_case "round trip" `Quick test_image_dump_roundtrip;
          Alcotest.test_case "framing survives @-lines" `Quick
            test_image_dump_framing_survives_at_lines;
          Alcotest.test_case "rejects garbage" `Quick
            test_image_dump_rejects_garbage;
        ] );
    ]
