(* The paper's Figure 1(b) scenario, end to end.

   MySQL requires the user named in the `user` entry to own the data
   directory named in `datadir`.  Neither value is anomalous on its own
   (both are common in the training set) — only the *correlation*
   between the two entries and the filesystem exposes the error.  The
   example shows the three detector generations side by side:

   - Baseline (PeerPressure-style value comparison):  blind
   - Baseline+Env (adds environment integration):     sees the owner flip
   - EnCore (adds correlation rules):                 names the rule

   Run with: dune exec examples/mysql_ownership.exe *)

module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Baseline = Encore_detect.Baseline
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Report = Encore_detect.Report
module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Kv = Encore_confparse.Kv

let section title =
  Printf.printf "\n=== %s ===\n" title

let () =
  let training =
    Population.clean (Population.generate ~seed:31 Image.Mysql ~n:80)
  in

  (* reproduce Figure 1(b): datadir owned by someone other than `user` *)
  let rng = Encore_util.Prng.create 99 in
  let target = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"fig1b" in
  let kvs = Encore_confparse.Registry.parse_image target in
  let datadir = Option.get (Kv.find kvs "mysql/mysqld/datadir") in
  let user = Option.get (Kv.find kvs "mysql/mysqld/user") in
  Printf.printf "image has datadir=%s user=%s\n" datadir user;
  let broken =
    Image.with_fs target
      (Fs.chown target.Image.fs datadir ~owner:"daemon" ~group:"daemon")
  in
  Printf.printf "misconfiguration applied: chown daemon:daemon %s\n" datadir;

  section "Baseline (value comparison only)";
  let bl = Baseline.baseline_model training in
  let ws = Baseline.baseline_check bl broken in
  if ws = [] then print_endline "no warnings - the fault is invisible to value comparison"
  else print_string (Report.to_string ws);

  section "Baseline+Env (environment integration, no correlations)";
  let ble = Baseline.baseline_env_model training in
  let ws = List.filter (fun w -> w.Encore_detect.Warning.score >= 0.45)
      (Baseline.baseline_env_check ble broken) in
  print_string (Report.to_string ws);

  section "EnCore (environment + correlation rules)";
  let model =
    match Encore.Pipeline.learn_result training with
    | Ok model -> model
    | Error d -> failwith (Encore_util.Resilience.diagnostic_to_string d)
  in
  let engine = Engine.compile model in
  let ws = List.filter (fun w -> w.Encore_detect.Warning.score >= 0.45)
      (Engine.check engine broken) in
  print_string (Report.to_string ws);

  (* show the concrete rule that fired, as learned from the templates *)
  section "the learned rule behind the detection";
  List.iter
    (fun (r : Encore_rules.Template.rule) ->
      if r.Encore_rules.Template.attr_a = "mysql/mysqld/datadir" then
        print_endline (Encore_rules.Template.rule_to_string r))
    model.Detector.rules
