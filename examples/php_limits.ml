(* The paper's PHP upload-limit case (Table 9 problem #10, section 7.1.3).

   PHP bounds uploads with two entries: post_max_size has priority over
   upload_max_filesize, so the latter must stay smaller or large uploads
   fail with a confusing error.  PHP itself never warns about the
   inversion.  EnCore learns the ordering from the training set through
   the size-less template and flags the violation.

   Also demonstrates Figure 1(a): extension_dir pointing at a regular
   file instead of a directory, detectable only through the environment.

   Run with: dune exec examples/php_limits.exe *)

module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Report = Encore_detect.Report
module Image = Encore_sysenv.Image
module Kv = Encore_confparse.Kv

let strong ws = List.filter (fun w -> w.Encore_detect.Warning.score >= 0.45) ws

let edit_value img key value =
  match Image.config_for img Image.Php with
  | None -> img
  | Some cf ->
      let kvs = Encore_confparse.Ini.parse ~app:"php" cf.Image.text in
      let kvs =
        List.map
          (fun (kv : Kv.t) -> if kv.Kv.key = key then Kv.make key value else kv)
          kvs
      in
      Image.set_config img Image.Php (Encore_confparse.Ini.render ~app:"php" kvs)

let () =
  let training = Population.clean (Population.generate ~seed:47 Image.Php ~n:80) in
  let model =
    match Encore.Pipeline.learn_result training with
    | Ok model -> model
    | Error d -> failwith (Encore_util.Resilience.diagnostic_to_string d)
  in
  let engine = Engine.compile model in
  Printf.printf "model: %d rules learned from %d images\n"
    (List.length model.Detector.rules) (List.length training);

  let rng = Encore_util.Prng.create 5 in
  let target = Population.generator_for Image.Php Profile.ec2 rng ~id:"web-42" in
  let kvs = Encore_confparse.Registry.parse_image target in
  Printf.printf "post_max_size=%s upload_max_filesize=%s\n"
    (Option.value ~default:"?" (Kv.find kvs "php/PHP/post_max_size"))
    (Option.value ~default:"?" (Kv.find kvs "php/PHP/upload_max_filesize"));

  (* problem #10: upload_max_filesize raised above post_max_size *)
  print_endline "\n--- invert the upload limits (upload_max_filesize = 1G) ---";
  let inverted = edit_value target "php/PHP/upload_max_filesize" "1G" in
  print_string (Report.to_string (strong (Engine.check engine inverted)));

  (* Figure 1(a): extension_dir points at a file *)
  print_endline "\n--- point extension_dir at a regular file ---";
  let ext_dir = Option.get (Kv.find kvs "php/PHP/extension_dir") in
  let some_file =
    match Encore_sysenv.Fs.children target.Image.fs ext_dir with
    | child :: _ -> Encore_util.Strutil.path_join ext_dir child
    | [] -> failwith "extension dir empty"
  in
  let fig1a = edit_value target "php/PHP/extension_dir" some_file in
  print_string (Report.to_string (strong (Engine.check engine fig1a)));

  (* and a wrong location entirely (problem #5) *)
  print_endline "\n--- point extension_dir at a missing location ---";
  let missing = edit_value target "php/PHP/extension_dir" "/usr/lib/php5/20131226" in
  print_string (Report.to_string (strong (Engine.check engine missing)))
