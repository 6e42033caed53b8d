module Image = Encore_sysenv.Image
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Warning = Encore_detect.Warning
module Report = Encore_detect.Report
module Conferr = Encore_inject.Conferr
module Fault = Encore_inject.Fault
module Rinfer = Encore_rules.Infer
module Filters = Encore_rules.Filters
module Template = Encore_rules.Template
module Assemble = Encore_dataset.Assemble
module Table_ds = Encore_dataset.Table
module Prng = Encore_util.Prng

(* one fixed injection campaign per app, reused across model variants so
   only the model changes between rows *)
let campaign ~config app =
  let rng = Prng.create (config.Config.seed + 7777) in
  let target =
    Population.generator_for app Profile.ec2 rng
      ~id:("ablate-" ^ Image.app_to_string app)
  in
  Conferr.inject ~env_fault_fraction:0.0 rng app target ~n:15

let needles_of (inj : Fault.injection) =
  match inj.Fault.fault with
  | Fault.Config_fault Fault.Key_typo ->
      [ Encore_confparse.Kv.key_basename inj.Fault.after;
        Encore_confparse.Kv.key_basename inj.Fault.target_attr ]
  | _ -> [ Encore_confparse.Kv.key_basename inj.Fault.target_attr ]

let detected_count ~config ?checks engine campaign =
  let warnings = Engine.check ?checks engine campaign.Conferr.image in
  let strong =
    List.filter
      (fun w -> w.Warning.score >= config.Config.detection_score)
      warnings
  in
  List.length
    (List.filter
       (fun inj ->
         List.exists (fun n -> Report.rank_of_attr strong n <> None) (needles_of inj))
       campaign.Conferr.injections)

(* Learn from a clean population, compiled for checking. *)
let learn_engine ~config images =
  match Pipeline.learn_result ~config images with
  | Ok model -> Engine.compile model
  | Error _ -> assert false (* only a customization file can fail *)

let training_size ?(config = Config.default) ?(sizes = [ 10; 25; 50; 100; 187 ]) () =
  let app = Image.Mysql in
  let campaign = campaign ~config app in
  let rows =
    List.map
      (fun n ->
        let images =
          Population.clean
            (Population.generate ~seed:config.Config.seed app ~n)
        in
        let engine = learn_engine ~config images in
        [ string_of_int n;
          string_of_int (List.length images);
          string_of_int (List.length (Engine.model engine).Detector.rules);
          Printf.sprintf "%d/15" (detected_count ~config engine campaign) ])
      sizes
  in
  {
    Experiments.exp_id = "ablation-training-size";
    title = "Detection quality vs training-set size (MySQL)";
    header = [ "Generated"; "Clean"; "Rules"; "Injected detected" ];
    rows;
    notes =
      "Expected: rule count and detection coverage rise steeply with the \
       first tens of images, then saturate — the paper's 127-187-image \
       training sets sit on the plateau.";
  }

let app_label = function
  | Image.Apache -> "Apache"
  | Image.Mysql -> "MySQL"
  | Image.Php -> "PHP"
  | Image.Sshd -> "sshd"

let assembled_training ~config ~scale app =
  let n =
    if scale.Experiments.training > 0 then scale.Experiments.training
    else
      Option.value ~default:100
        (List.assoc_opt app Population.paper_training_sizes)
  in
  let images =
    Population.clean (Population.generate ~seed:config.Config.seed app ~n)
  in
  let assembled = Assemble.assemble_training images in
  let training =
    List.map2
      (fun img (_, row) -> (img, row))
      images
      (Table_ds.rows assembled.Assemble.table)
  in
  (assembled, training)

let confidence_sweep ?(config = Config.default)
    ?(scale = Experiments.paper_scale) ?(confidences = [ 0.80; 0.90; 0.95; 1.00 ]) () =
  let app = Image.Mysql in
  let assembled, training = assembled_training ~config ~scale app in
  let rows =
    List.map
      (fun min_confidence ->
        let params =
          { Rinfer.min_support_frac = config.Config.min_support_frac; min_confidence }
        in
        let judged =
          Rinfer.infer ~params ~types:assembled.Assemble.types training
        in
        let rules = Filters.reduce_redundant judged in
        let kept, dropped =
          Filters.entropy_filter ~threshold:config.Config.entropy_threshold
            training rules
        in
        [ Printf.sprintf "%.2f" min_confidence;
          string_of_int (List.length judged);
          string_of_int (List.length rules);
          string_of_int (List.length kept);
          string_of_int (List.length dropped) ])
      confidences
  in
  {
    Experiments.exp_id = "ablation-confidence";
    title = "Rule population vs confidence threshold (MySQL)";
    header =
      [ "MinConfidence"; "Judged"; "Reduced"; "Kept (after entropy)";
        "Entropy-dropped" ];
    rows;
    notes =
      "Judged: rules passing support, confidence and lift; Reduced: after \
       redundancy reduction.  Shape at paper scale: lowering the floor from \
       1.00 to 0.80 judges more rules (812 to 892) yet leaves fewer after \
       reduction (221 to 208), and the entropy filter keeps 65-66 at every \
       floor.";
  }

let type_selection ?(config = Config.default) ?(scale = Experiments.paper_scale) () =
  let rows =
    List.map
      (fun app ->
        let assembled, training = assembled_training ~config ~scale app in
        let attrs =
          let seen = Hashtbl.create 256 in
          List.iter
            (fun (_, row) ->
              List.iter
                (fun a -> Hashtbl.replace seen a ())
                (Encore_dataset.Row.attrs row))
            training;
          Hashtbl.fold (fun a () acc -> a :: acc) seen []
        in
        let n = List.length attrs in
        let with_types =
          List.fold_left
            (fun acc t ->
              acc
              + List.length (Rinfer.instantiations ~types:assembled.Assemble.types t attrs))
            0
            (Rinfer.expand_polarities Template.predefined)
        in
        (* without type-based selection every ordered pair is a candidate
           for every template (the regime that breaks the miners) *)
        let without_types =
          List.length (Rinfer.expand_polarities Template.predefined) * n * (n - 1)
        in
        [ app_label app; string_of_int n; string_of_int with_types;
          string_of_int without_types;
          Printf.sprintf "%.1fx" (float_of_int without_types /. float_of_int (max 1 with_types)) ])
      [ Image.Apache; Image.Mysql; Image.Php ]
  in
  {
    Experiments.exp_id = "ablation-type-selection";
    title = "Candidate instantiations with and without type-based selection";
    header = [ "App"; "Attrs"; "Typed candidates"; "Untyped candidates"; "Reduction" ];
    rows;
    notes =
      "Expected: type-based attribute selection cuts the candidate space by \
       one to two orders of magnitude — the mechanism that lets template \
       learning run in milliseconds where the Table 3 miners blow up.";
  }

let check_breakdown ?(config = Config.default) ?(scale = Experiments.paper_scale) () =
  let rows =
    List.concat_map
      (fun app ->
        let n =
          if scale.Experiments.training > 0 then scale.Experiments.training
          else
            Option.value ~default:100
              (List.assoc_opt app Population.paper_training_sizes)
        in
        let images =
          Population.clean (Population.generate ~seed:config.Config.seed app ~n)
        in
        let engine = learn_engine ~config images in
        let campaign = campaign ~config app in
        let variants =
          [ ("names", { Engine.all_checks with check_rules = false;
                        check_types = false; check_values = false });
            ("rules", { Engine.all_checks with check_names = false;
                        check_types = false; check_values = false });
            ("types", { Engine.all_checks with check_names = false;
                        check_rules = false; check_values = false });
            ("values", { Engine.all_checks with check_names = false;
                         check_rules = false; check_types = false });
            ("all", Engine.all_checks) ]
        in
        List.map
          (fun (label, checks) ->
            let hits = detected_count ~config ~checks engine campaign in
            [ app_label app; label; Printf.sprintf "%d/15" hits ])
          variants)
      [ Image.Apache; Image.Mysql; Image.Php ]
  in
  {
    Experiments.exp_id = "ablation-checks";
    title = "Contribution of each detector check to injected-fault coverage";
    header = [ "App"; "Check"; "Detected" ];
    rows;
    notes =
      "Expected: no single check covers the fault mix; the union (all) \
       dominates every individual pass, with correlation and type checks \
       supplying the detections value comparison cannot.";
  }

let miners ?(config = Config.default) ?(scale = Experiments.paper_scale) () =
  let assembled, _ = assembled_training ~config ~scale Image.Mysql in
  let transactions, dict =
    Encore_dataset.Discretize.transactions assembled.Assemble.table
  in
  let min_support = max 2 (Array.length transactions * 6 / 10) in
  let cap = scale.Experiments.mining_cap in
  let restrict =
    Experiments.first_items ~seed:(config.Config.seed + 5)
      ~items:(Array.length dict) transactions
  in
  let rows =
    List.map
      (fun n_attrs ->
        let restricted = restrict n_attrs in
        let time f =
          let t0 = Sys.time () in
          let r = f () in
          (Sys.time () -. t0, r)
        in
        let fp_t, (fp_n, fp_over) =
          time (fun () ->
              Encore_mining.Fpgrowth.count_only ~max_itemsets:cap ~min_support
                restricted)
        in
        let ap_t, ap =
          time (fun () ->
              Encore_mining.Apriori.mine ~max_itemsets:cap ~min_support restricted)
        in
        let show n over = if over then Printf.sprintf ">%d (cap)" cap else string_of_int n in
        [ string_of_int n_attrs;
          Printf.sprintf "%.3f" fp_t; show fp_n fp_over;
          Printf.sprintf "%.3f" ap_t;
          show (List.length ap.Encore_mining.Apriori.frequent) ap.Encore_mining.Apriori.overflowed ])
      [ 60; 120; 180 ]
  in
  {
    Experiments.exp_id = "ablation-miners";
    title = "Apriori vs FP-Growth on the assembled MySQL data";
    header = [ "Attrs"; "FPGrowth(s)"; "FP itemsets"; "Apriori(s)"; "Apriori itemsets" ];
    rows;
    notes =
      "Expected: identical frequent populations, with Apriori's candidate \
       generation paying a growing constant factor over FP-Growth as the \
       attribute count rises (paper section 2.2: Apriori does not scale, \
       which is why the reported numbers use FP-Growth).";
  }

let all ?(config = Config.default) ?(scale = Experiments.paper_scale) () =
  [ training_size ~config ();
    confidence_sweep ~config ~scale ();
    type_selection ~config ~scale ();
    check_breakdown ~config ~scale ();
    miners ~config ~scale () ]
