(* Customization (paper section 5.3, Figure 6): declare a new type with
   its syntactic inference and semantic validation, add a template over
   it, and watch the learner instantiate a concrete rule.

   The scenario: an organization's policy says every PID-file path must
   live under /var/run.  A PidPath type plus an ownership template turn
   the policy into learnable, checkable rules without touching EnCore's
   source.

   Run with: dune exec examples/custom_rules.exe *)

module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Report = Encore_detect.Report
module Image = Encore_sysenv.Image
module Kv = Encore_confparse.Kv

let customization = {|
# organization-specific types and rules (Figure 6 format)
$$TypeDeclaration
RunPath
$$TypeInference
RunPath: regex /var/run/.+
$$TypeValidation
RunPath: exists_in_fs
$$Template
[A:RunPath] => [B:UserName] -- 90%
|}

let () =
  print_endline "customization file:";
  print_endline customization;

  Encore_typing.Custom_registry.clear ();
  let training = Population.clean (Population.generate ~seed:88 Image.Mysql ~n:80) in
  let model =
    match Encore.Pipeline.learn_result ~custom:customization training with
    | Ok model -> model
    | Error d -> failwith (Encore_util.Resilience.diagnostic_to_string d)
  in

  print_endline "rules instantiated from the custom template:";
  let custom_rules =
    List.filter
      (fun (r : Encore_rules.Template.rule) ->
        Encore_util.Strutil.starts_with ~prefix:"custom:"
          r.Encore_rules.Template.template.Encore_rules.Template.tname)
      model.Detector.rules
  in
  List.iter
    (fun r -> print_endline ("  " ^ Encore_rules.Template.rule_to_string r))
    custom_rules;

  (* violate the learned custom rule: give the pid file to root *)
  let rng = Encore_util.Prng.create 12 in
  let target = Population.generator_for Image.Mysql Profile.ec2 rng ~id:"custom-check" in
  match
    Kv.find (Encore_confparse.Registry.parse_image target) "mysql/mysqld/pid-file"
  with
  | Some pid_file when Encore_util.Strutil.starts_with ~prefix:"/var/run" pid_file ->
      let broken =
        Image.with_fs target
          (Encore_sysenv.Fs.chown target.Image.fs pid_file ~owner:"root" ~group:"root")
      in
      Printf.printf "\nchown root %s, then re-check:\n" pid_file;
      let ws =
        List.filter
          (fun w -> w.Encore_detect.Warning.score >= 0.45)
          (Engine.check (Engine.compile model) broken)
      in
      print_string (Report.to_string ws);
      Encore_typing.Custom_registry.clear ()
  | Some pid_file ->
      Printf.printf "\n(generated image keeps its pid file at %s; rule not applicable)\n"
        pid_file
  | None -> print_endline "no pid-file entry in the generated image"
