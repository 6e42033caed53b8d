(* Golden pins on learning and fleet-check output.  Each case hashes
   the exact bytes a user can observe — the [Model_io] payload of a
   learned model, the JSONL lines of a fleet check — for fixed seeds,
   so any refactor of the learning core that changes a single rule,
   type, value statistic or warning fails here.  The pins were
   computed with [Pipeline.learn_result]; every other learning entry
   point must produce the same bytes.  The paper tables that count
   rules straight from the candidate evaluator, the itemset counts of
   the frequent-itemset mining tables, and the detection tables 9 and
   10 are pinned cell by cell. *)

module Pipeline = Encore.Pipeline
module Config = Encore.Config
module Experiments = Encore.Experiments
module Ablation = Encore.Ablation
module Model_io = Encore_detect.Model_io
module Image = Encore_sysenv.Image
module Population = Encore_workloads.Population
module Collector = Encore_sysenv.Collector
module Conferr = Encore_inject.Conferr
module Synthfleet = Encore_workloads.Synthfleet
module Prng = Encore_util.Prng

let check = Alcotest.check
let seed = 42
let md5 s = Digest.to_hex (Digest.string s)

let training app ~n = Population.clean (Population.generate ~seed app ~n)

let model_or_fail = function
  | Ok m -> m
  | Error d ->
      Alcotest.failf "learning failed: %s"
        (Encore_util.Resilience.diagnostic_to_string d)

(* (app, population size before cleaning, MD5 of the model bytes):
   the paper's training-set sizes (section 7), 100 for sshd.  The mysql
   digest is the one the benchmark pins for its learn-paper workload. *)
let model_pins =
  [
    (Image.Mysql, 187, "122f823cf94b42a61ce5673ffce8b16d");
    (Image.Apache, 127, "3cee10ff9fee5c71ae1ee9ba55c39903");
    (Image.Php, 123, "7b7c960b3d897d08266680f6ef08adf9");
    (Image.Sshd, 100, "b92ba49a7e4bba98bfd834bcb1d1acd6");
  ]

let test_model_pin (app, n, pin) () =
  let model = model_or_fail (Pipeline.learn_result (training app ~n)) in
  check Alcotest.string
    (Printf.sprintf "%s model bytes" (Image.app_to_string app))
    pin
    (md5 (Model_io.to_string model))

(* The batch learner with ingest and the mergeable-statistics learner,
   each against the same pin. *)
let test_entry_points (app, n, pin) () =
  let images = training app ~n in
  let durable =
    match model_or_fail (Pipeline.learn_durable images) with
    | { Pipeline.model = Some m; _ } -> m
    | { Pipeline.model = None; _ } -> Alcotest.fail "learn_durable: no model"
  in
  let merged =
    Pipeline.model_of_learner
      (model_or_fail (Pipeline.learner_result (Pipeline.stats_of_images images)))
  in
  List.iter
    (fun (name, model) ->
      check Alcotest.string
        (Printf.sprintf "%s %s model bytes" (Image.app_to_string app) name)
        pin
        (md5 (Model_io.to_string model)))
    [ ("learn_durable", durable); ("suffstats learner", merged) ]

(* A model per app checked against held-out images, every third
   carrying one ConfErr error; the pin covers every streamed report
   line.  The same targets round-tripped through their collector dumps
   must stream the same bytes: that is the route the CLI's
   [check --fleet], the serve daemon and the benchmark all take. *)
let fleet_pins =
  [
    (Image.Mysql, "281f6796c2866a5f4134f3c3087d97a4");
    (Image.Apache, "8caa45c2e24271ee018ff2749afdf2d2");
    (Image.Php, "d5e76397718038364247708f23f5d842");
  ]

let fleet_jsonl model targets =
  let buf = Buffer.create 4096 in
  let report =
    Pipeline.check_fleet
      ~stream:(fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      model targets
  in
  check Alcotest.int "every target checked" (List.length targets)
    report.Pipeline.fleet_checked;
  md5 (Buffer.contents buf)

let test_fleet_pin (app, pin) () =
  let model = model_or_fail (Pipeline.learn_result (training app ~n:60)) in
  let rng = Prng.create (seed + 4099) in
  let targets =
    List.mapi
      (fun i img ->
        if i mod 3 = 0 then (Conferr.inject rng app img ~n:1).Conferr.image
        else img)
      (Population.images (Population.generate ~seed:(seed + 7919) app ~n:45))
  in
  check Alcotest.string "fleet JSONL" pin (fleet_jsonl model targets);
  let decoded =
    List.map
      (fun img ->
        match Collector.image_of_text (Collector.image_to_text img) with
        | Ok img -> img
        | Error e -> Alcotest.failf "%s: %s" img.Image.image_id e)
      targets
  in
  check Alcotest.string "fleet JSONL of decoded dumps" pin
    (fleet_jsonl model decoded)

(* The wide, sparse 1k synthetic fleet (one generic INI config per
   image) through the batch learner. *)
let synthfleet_pin = "a93624288db673ebd3efd30fb1ee936d"

let test_synthfleet_pin () =
  let model =
    model_or_fail (Pipeline.learn_result (Synthfleet.generate ~seed ~n:1000 ()))
  in
  check Alcotest.string "synthfleet model bytes" synthfleet_pin
    (md5 (Model_io.to_string model))

(* The cells of [keep], in that order, of every row: the pins leave
   out the timing columns. *)
let columns keep (t : Experiments.table) =
  List.map (fun row -> List.map (List.nth row) keep) t.Experiments.rows

let all_columns (t : Experiments.table) = t.Experiments.rows

(* Paper-table cells at paper scale and seed 42 (the [Config.default]
   seed): every count of the frequent-itemset tables, the rule counts
   of the candidate evaluator, and the ranks and detections that the
   learned models give the real-world cases (table 9) and the fresh
   images (table 10). *)
let table_pins =
  let scale = Experiments.paper_scale in
  [
    ( "table3",
      (fun () -> columns [ 0; 1; 3 ] (Experiments.table3 ~scale ())),
      [ [ "Apache"; "60"; "127" ]; [ "Apache"; "120"; "16383" ];
        [ "Apache"; "180"; ">200000 (OOM)" ];
        [ "Apache"; "250"; ">200000 (OOM)" ];
        [ "MySQL"; "60"; "7" ]; [ "MySQL"; "120"; "111" ];
        [ "MySQL"; "180"; "2559" ]; [ "MySQL"; "250"; "94207" ];
        [ "PHP"; "60"; "175" ]; [ "PHP"; "120"; "10495" ];
        [ "PHP"; "180"; "60415" ]; [ "PHP"; "250"; ">200000 (OOM)" ] ] );
    ( "ablation miners",
      (fun () -> columns [ 0; 2; 4 ] (Ablation.miners ~scale ())),
      [ [ "60"; "47"; "47" ]; [ "120"; "511"; "511" ];
        [ "180"; "12031"; "12031" ] ] );
    ( "table9",
      (fun () -> columns [ 0; 3 ] (Experiments.table9 ~scale ())),
      [ [ "1"; "1(2)" ]; [ "2"; "1(1)" ]; [ "3"; "1(1)" ]; [ "4"; "1(1)" ];
        [ "5"; "1(1)" ]; [ "6"; "2(3)" ]; [ "7"; "2(2)" ]; [ "8"; "-" ];
        [ "9"; "1(4)" ]; [ "10"; "1(2)" ] ] );
    ( "table10",
      (fun () -> all_columns (Experiments.table10 ~scale ())),
      [ [ "EC2"; "12"; "20"; "6"; "38"; "38" ];
        [ "PrivateCloud"; "6"; "13"; "3"; "22"; "22" ] ] );
    ( "table12",
      (fun () -> all_columns (Experiments.table12 ~scale ())),
      [ [ "Apache"; "23"; "10" ]; [ "MySQL"; "65"; "16" ]; [ "PHP"; "5"; "2" ] ] );
    ( "table13",
      (fun () -> all_columns (Experiments.table13 ~scale ())),
      [ [ "Apache"; "110"; "82"; "5" ]; [ "MySQL"; "209"; "129"; "15" ];
        [ "PHP"; "64"; "59"; "0" ] ] );
    ( "ablation confidence",
      (fun () -> all_columns (Ablation.confidence_sweep ~scale ())),
      [ [ "0.80"; "892"; "208"; "66"; "142" ];
        [ "0.90"; "864"; "209"; "65"; "144" ];
        [ "0.95"; "839"; "214"; "65"; "149" ];
        [ "1.00"; "812"; "221"; "66"; "155" ] ] );
  ]

let test_table_pin (name, cells, rows) () =
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    (name ^ " rows") rows (cells ())

let () =
  Alcotest.run "golden"
    [
      ( "model-bytes",
        List.map
          (fun ((app, _, _) as pin) ->
            Alcotest.test_case (Image.app_to_string app) `Quick
              (test_model_pin pin))
          model_pins );
      ( "entry-points",
        List.map
          (fun ((app, _, _) as pin) ->
            Alcotest.test_case (Image.app_to_string app) `Quick
              (test_entry_points pin))
          model_pins );
      ( "fleet-check",
        List.map
          (fun ((app, _) as pin) ->
            Alcotest.test_case
              (Image.app_to_string app ^ " jsonl")
              `Quick (test_fleet_pin pin))
          fleet_pins );
      ("synthfleet", [ Alcotest.test_case "1k model" `Quick test_synthfleet_pin ]);
      ( "paper-tables",
        List.map
          (fun ((name, _, _) as pin) ->
            Alcotest.test_case name `Quick (test_table_pin pin))
          table_pins );
    ]
