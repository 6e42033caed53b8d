(* Quickstart: the minimal EnCore workflow.

   1. obtain a training set of configured system images
   2. learn a model (types + correlation rules + value statistics)
   3. compile the model once, then check target images and read the
      ranked warnings

   Run with: dune exec examples/quickstart.exe *)

module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Engine = Encore_detect.Engine

let () =
  (* 1. a deterministic population of 60 MySQL system images standing in
     for a crawl of cloud templates *)
  let training =
    Population.clean (Population.generate ~seed:2014 Image.Mysql ~n:60)
  in
  Printf.printf "training on %d clean MySQL images\n" (List.length training);

  (* 2. learn: parse every config, infer entry types, integrate the
     environment, and mine correlation rules through the 11 templates *)
  let model =
    match Encore.Pipeline.learn_result training with
    | Ok model -> model
    | Error d -> failwith (Encore_util.Resilience.diagnostic_to_string d)
  in
  Printf.printf "learned %d correlation rules, for example:\n"
    (List.length model.Encore_detect.Detector.rules);
  List.iteri
    (fun i rule ->
      if i < 5 then
        Printf.printf "  %s\n" (Encore_rules.Template.rule_to_string rule))
    model.Encore_detect.Detector.rules;

  (* 3. take a held-out image and break it: give the data directory to
     the wrong owner (the paper's Figure 1(b) misconfiguration) *)
  let rng = Encore_util.Prng.create 7 in
  let target = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"prod-db-01" in
  let datadir =
    match
      Encore_confparse.Kv.find
        (Encore_confparse.Registry.parse_image target)
        "mysql/mysqld/datadir"
    with
    | Some d -> d
    | None -> failwith "no datadir in generated image"
  in
  let broken =
    Image.with_fs target (Fs.chown target.Image.fs datadir ~owner:"root" ~group:"root")
  in

  (* compile once; keep the warnings at or above the detection score *)
  let engine = Engine.compile model in
  let detections img =
    List.filter
      (fun w ->
        w.Encore_detect.Warning.score
        >= Encore.Config.default.Encore.Config.detection_score)
      (Engine.check engine img)
  in
  print_endline "\nchecking the misconfigured image:";
  let warnings = detections broken in
  print_string (Encore_detect.Report.to_string warnings);

  (* the clean version stays quiet *)
  let quiet = detections target in
  Printf.printf "\nand the clean original produces %d warning(s)\n"
    (List.length quiet)
