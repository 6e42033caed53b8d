(* Fleet audit: scan a batch of fresh Apache images for latent
   misconfigurations, the Table 10 workflow.

   Trains on one population of template images, then sweeps a second
   batch the model has never seen — a fraction of which carries one real
   seeded problem (wrong ownership, broken path, permission flip...).
   Prints a per-image audit summary with precision/recall against the
   seeded ground truth.

   Run with: dune exec examples/apache_audit.exe *)

module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Report = Encore_detect.Report
module Fault = Encore_inject.Fault
module Image = Encore_sysenv.Image

let detection_threshold = 0.45

let () =
  let training =
    Population.clean (Population.generate ~seed:61 Image.Apache ~n:100)
  in
  let model =
    match Encore.Pipeline.learn_result training with
    | Ok model -> model
    | Error d -> failwith (Encore_util.Resilience.diagnostic_to_string d)
  in
  let engine = Engine.compile model in
  Printf.printf "trained on %d images (%d rules)\n\n" (List.length training)
    (List.length model.Detector.rules);

  let batch = Population.generate ~seed:62 Image.Apache ~n:40 in
  let flagged = ref 0 and seeded = ref 0 and hits = ref 0 and false_alarms = ref 0 in
  List.iter
    (fun (labeled : Population.labeled) ->
      let img = labeled.Population.image in
      let warnings =
        Report.merge_by_attr
          (List.filter
             (fun w -> w.Encore_detect.Warning.score >= detection_threshold)
             (Engine.check engine img))
      in
      let has_latent = labeled.Population.latent <> [] in
      if has_latent then incr seeded;
      if warnings <> [] then begin
        incr flagged;
        let truth =
          match labeled.Population.latent with
          | inj :: _ ->
              let hit =
                Report.rank_of_attr warnings
                  (Encore_confparse.Kv.key_basename inj.Fault.target_attr)
                <> None
              in
              if hit then incr hits else incr false_alarms;
              Printf.sprintf "seeded: %s%s"
                (Fault.injection_to_string inj)
                (if hit then "  [caught]" else "  [seeded fault not implicated]")
          | [] ->
              incr false_alarms;
              "no seeded fault (spurious or pre-existing oddity)"
        in
        Printf.printf "%-14s %d warning(s); %s\n" img.Image.image_id
          (List.length warnings) truth;
        List.iteri
          (fun i w ->
            if i < 2 then
              Printf.printf "    - %s\n" w.Encore_detect.Warning.message)
          warnings
      end)
    batch;
  Printf.printf
    "\naudit summary: %d/%d images flagged; %d seeded faults, %d caught, %d \
     image-level false alarms\n"
    !flagged (List.length batch) !seeded !hits !false_alarms
