(* Cross-application correlation, the paper's "future work" direction
   (section 9): the configuration of one component is an environment
   factor for another.

   On LAMP images carrying Apache + MySQL + PHP together, PHP's
   mysql.default_socket must equal MySQL's mysqld/socket.  Training on
   multi-application images lets the equal template discover the
   cross-application rule, which then catches a stale socket path left
   behind after a MySQL move.

   Run with: dune exec examples/lamp_cross_app.exe *)

module Population = Encore_workloads.Population
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Report = Encore_detect.Report
module Image = Encore_sysenv.Image
module Kv = Encore_confparse.Kv

let () =
  let training =
    Population.images (Population.generate_lamp ~seed:301 ~n:60 ())
  in
  Printf.printf "training on %d LAMP images\n" (List.length training);
  let model =
    match Encore.Pipeline.learn_result training with
    | Ok model -> model
    | Error d -> failwith (Encore_util.Resilience.diagnostic_to_string d)
  in
  let engine = Engine.compile model in

  let cross_app =
    List.filter
      (fun (r : Encore_rules.Template.rule) ->
        let app_of = Encore_confparse.Kv.app_of_key in
        app_of r.Encore_rules.Template.attr_a
        <> app_of r.Encore_rules.Template.attr_b)
      model.Detector.rules
  in
  Printf.printf "cross-application rules discovered: %d; the strongest:\n"
    (List.length cross_app);
  List.iteri
    (fun i r ->
      if i < 12 then print_endline ("  " ^ Encore_rules.Template.rule_to_string r))
    cross_app;

  (* break the link on a fresh image: PHP keeps the old socket path.
     mysql.default_socket is optional, so scan a few generated images
     for one that carries it *)
  let candidate =
    List.find_opt
      (fun (l : Population.labeled) ->
        match Image.config_for l.Population.image Image.Php with
        | Some cf ->
            Encore_util.Strutil.contains_sub cf.Image.text "mysql.default_socket"
        | None -> false)
      (Population.generate_lamp ~seed:302 ~n:10 ())
  in
  match candidate with
  | Some labeled ->
      let img = labeled.Population.image in
      let cf = Option.get (Image.config_for img Image.Php) in
      let kvs = Encore_confparse.Ini.parse ~app:"php" cf.Image.text in
      let kvs =
        List.map
          (fun (kv : Kv.t) ->
            if kv.Kv.key = "php/MySQL/mysql.default_socket" then
              Kv.make kv.Kv.key "/var/run/mysqld-old/mysqld.sock"
            else kv)
          kvs
      in
      let broken =
        Image.set_config img Image.Php (Encore_confparse.Ini.render ~app:"php" kvs)
      in
      print_endline "\nstale php socket path injected; re-checking:";
      let ws =
        List.filter
          (fun w ->
            w.Encore_detect.Warning.score >= 0.55
            && List.exists
                 (fun a -> Encore_util.Strutil.contains_sub a "socket")
                 w.Encore_detect.Warning.attrs)
          (Engine.check engine broken)
      in
      print_string (Report.to_string ws)
  | None ->
      print_endline "\n(no generated image carried the optional socket entry)"
