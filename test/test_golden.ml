(* Golden pins on learning and fleet-check output.  Each case hashes
   the exact bytes a user can observe — the [Model_io] payload of a
   learned model, the JSONL lines of a fleet check — for fixed seeds,
   so any refactor of the learning core that changes a single rule,
   type, value statistic or warning fails here.  The pins were
   computed with [Pipeline.learn_result]; every other learning entry
   point must produce the same bytes. *)

module Pipeline = Encore.Pipeline
module Config = Encore.Config
module Model_io = Encore_detect.Model_io
module Image = Encore_sysenv.Image
module Population = Encore_workloads.Population
module Conferr = Encore_inject.Conferr
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

(* The batch learner with ingest, the resilient wrapper and the
   mergeable-statistics learner, each against the same pin. *)
let test_entry_points (app, n, pin) () =
  let images = training app ~n in
  let durable =
    match model_or_fail (Pipeline.learn_durable images) with
    | { Pipeline.model = Some m; _ } -> m
    | { Pipeline.model = None; _ } -> Alcotest.fail "learn_durable: no model"
  in
  let resilient, _report = model_or_fail (Pipeline.learn_resilient images) in
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
    [ ("learn_durable", durable); ("learn_resilient", resilient);
      ("suffstats learner", merged) ]

(* A mysql model checked against held-out images, every third carrying
   one ConfErr error; the pin covers every streamed report line. *)
let fleet_pin = "281f6796c2866a5f4134f3c3087d97a4"

let test_fleet_pin () =
  let model =
    model_or_fail (Pipeline.learn_result (training Image.Mysql ~n:60))
  in
  let rng = Prng.create (seed + 4099) in
  let targets =
    List.mapi
      (fun i img ->
        if i mod 3 = 0 then (Conferr.inject rng Image.Mysql img ~n:1).Conferr.image
        else img)
      (Population.images
         (Population.generate ~seed:(seed + 7919) Image.Mysql ~n:45))
  in
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
  check Alcotest.string "fleet JSONL" fleet_pin (md5 (Buffer.contents buf))

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
      ("fleet-check", [ Alcotest.test_case "mysql jsonl" `Quick test_fleet_pin ]);
    ]
