module Image = Encore_sysenv.Image
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Cases = Encore_workloads.Cases
module Study = Encore_workloads.Study
module Spec = Encore_workloads.Spec
module Assemble = Encore_dataset.Assemble
module Table_ds = Encore_dataset.Table
module Discretize = Encore_dataset.Discretize
module Fpgrowth = Encore_mining.Fpgrowth
module Engine = Encore_detect.Engine
module Baseline = Encore_detect.Baseline
module Warning = Encore_detect.Warning
module Report = Encore_detect.Report
module Rinfer = Encore_rules.Infer
module Filters = Encore_rules.Filters
module Template = Encore_rules.Template
module Conferr = Encore_inject.Conferr
module Fault = Encore_inject.Fault
module Prng = Encore_util.Prng
module Strutil = Encore_util.Strutil
module Ctype = Encore_typing.Ctype
module Tinfer = Encore_typing.Infer

type table = {
  exp_id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string;
}

let render t =
  Encore_util.Texttab.render ~title:(t.exp_id ^ ": " ^ t.title) ~header:t.header
    t.rows
  ^ (if t.notes = "" then "" else "\n" ^ t.notes ^ "\n")

type scale = {
  training : int;
  ec2_targets : int;
  cloud_targets : int;
  mining_cap : int;
}

let paper_scale =
  { training = 0; ec2_targets = 120; cloud_targets = 300; mining_cap = 200_000 }

let test_scale =
  { training = 25; ec2_targets = 20; cloud_targets = 30; mining_cap = 20_000 }

let eval_apps = [ Image.Apache; Image.Mysql; Image.Php ]

let app_label = function
  | Image.Apache -> "Apache"
  | Image.Mysql -> "MySQL"
  | Image.Php -> "PHP"
  | Image.Sshd -> "sshd"

let training_size scale app =
  if scale.training > 0 then scale.training
  else
    match List.assoc_opt app Population.paper_training_sizes with
    | Some n -> n
    | None -> 100

(* Memoize trained populations and models per (seed, app, size): several
   experiments share them, and learning is the expensive step. *)
let population_cache : (string, Population.labeled list) Hashtbl.t =
  Hashtbl.create 8

let training_population ~seed ~scale app =
  let n = training_size scale app in
  let key = Printf.sprintf "%d/%s/%d" seed (Image.app_to_string app) n in
  match Hashtbl.find_opt population_cache key with
  | Some p -> p
  | None ->
      let p = Population.generate ~profile:Profile.ec2 ~seed app ~n in
      Hashtbl.add population_cache key p;
      p

(* The compiled engine of each trained model, so every check of a
   table (and of every table sharing the model) reuses one compile. *)
let engine_cache : (string, Engine.t) Hashtbl.t = Hashtbl.create 8

let trained_engine ~config ~scale app =
  let seed = config.Config.seed in
  let n = training_size scale app in
  let key = Printf.sprintf "%d/%s/%d" seed (Image.app_to_string app) n in
  match Hashtbl.find_opt engine_cache key with
  | Some e -> e
  | None ->
      let images = Population.clean (training_population ~seed ~scale app) in
      let e =
        match Pipeline.learn_result ~config images with
        | Ok model -> Engine.compile model
        | Error _ -> assert false (* only a customization file can fail *)
      in
      Hashtbl.add engine_cache key e;
      e

let assembled_cache : (string, Assemble.assembled) Hashtbl.t = Hashtbl.create 8

let assembled_training ~config ~scale app =
  let seed = config.Config.seed in
  let n = training_size scale app in
  let key = Printf.sprintf "%d/%s/%d" seed (Image.app_to_string app) n in
  match Hashtbl.find_opt assembled_cache key with
  | Some a -> a
  | None ->
      let images = Population.clean (training_population ~seed ~scale app) in
      let a = Assemble.assemble_training images in
      Hashtbl.add assembled_cache key a;
      a

(* ---------------------------------------------------------------- T1 *)

let table1 () =
  let ours = Study.rows () in
  let pct part total =
    if total = 0 then "0%" else Printf.sprintf "%d%%" (100 * part / total)
  in
  let rows =
    List.map2
      (fun (r : Study.row) (pname, ptotal, penv, pcorr) ->
        [ app_label r.Study.app;
          string_of_int r.Study.total;
          Printf.sprintf "%d (%s)" r.Study.env_related
            (pct r.Study.env_related r.Study.total);
          Printf.sprintf "%d (%s)" r.Study.correlated
            (pct r.Study.correlated r.Study.total);
          Printf.sprintf "%s: %d / %d (%s) / %d (%s)" pname ptotal penv
            (pct penv ptotal) pcorr (pct pcorr ptotal) ])
      ours Study.paper_rows
  in
  {
    exp_id = "table1";
    title = "Configuration parameters associated with environment and correlations";
    header = [ "App"; "Total"; "Env-Related"; "Correlated"; "Paper (total/env/corr)" ];
    rows;
    notes =
      "Shape: >=17% of entries env-related and >=27% correlated per app, \
       as in the paper's manual study.";
  }

(* ---------------------------------------------------------------- T2 *)

let table2 ?(config = Config.default) ?(scale = paper_scale) () =
  let rows =
    List.map
      (fun app ->
        let assembled = assembled_training ~config ~scale app in
        let table = assembled.Assemble.table in
        let augmented = Table_ds.column_count table in
        let original =
          List.length
            (List.filter
               (fun col ->
                 Strutil.contains_char col '/'
                 && not (Encore_dataset.Augment.is_augmented col))
               (Table_ds.columns table))
        in
        let binomial = Discretize.binomial_count table in
        [ app_label app; string_of_int original; string_of_int augmented;
          string_of_int binomial ])
      eval_apps
  in
  {
    exp_id = "table2";
    title = "Attributes generated by the data-mining pipeline";
    header = [ "App"; "Original"; "Augmented"; "Binomial" ];
    rows;
    notes =
      "Shape: environment integration grows the attribute count and boolean \
       discretization grows it again (paper: Apache 5773/9853/12921, MySQL \
       175/555/859, PHP 1672/1942/2374; magnitudes differ with the synthetic \
       populations, ordering must hold).";
  }

(* ---------------------------------------------------------------- T3 *)

let first_items ~seed ~items transactions =
  let order = Prng.shuffle (Prng.create seed) (List.init items Fun.id) in
  fun n ->
    let allowed = Hashtbl.create n in
    List.iteri (fun i item -> if i < n then Hashtbl.replace allowed item ()) order;
    Array.map
      (fun tx -> Array.of_list (List.filter (Hashtbl.mem allowed) (Array.to_list tx)))
      transactions

let table3 ?(config = Config.default) ?(scale = paper_scale) () =
  let attr_steps = [ 60; 120; 180; 250 ] in
  let rows =
    List.concat_map
      (fun app ->
        let assembled = assembled_training ~config ~scale app in
        let transactions, dict = Discretize.transactions assembled.Assemble.table in
        let min_support = max 2 (Array.length transactions * 6 / 10) in
        let restrict =
          first_items ~seed:(config.Config.seed + 3) ~items:(Array.length dict)
            transactions
        in
        List.map
          (fun n_attrs ->
            let restricted = restrict n_attrs in
            let t0 = Sys.time () in
            let count, overflowed =
              Fpgrowth.count_only ~max_itemsets:scale.mining_cap ~min_support
                restricted
            in
            let elapsed = Sys.time () -. t0 in
            [ app_label app; string_of_int n_attrs;
              Printf.sprintf "%.3f" elapsed;
              (if overflowed then Printf.sprintf ">%d (OOM)" scale.mining_cap
               else string_of_int count) ])
          attr_steps)
      eval_apps
  in
  {
    exp_id = "table3";
    title = "FP-Growth cost vs number of attributes";
    header = [ "App"; "Attrs"; "Time(s)"; "FrequentItemsets" ];
    rows;
    notes =
      "Shape: the frequent-item-set population grows super-linearly with the \
       attribute count and blows past the memory cap (the paper's OOM) at \
       the largest sizes.";
  }

(* ---------------------------------------------------------------- T8 *)

let needles_of_injection (inj : Fault.injection) =
  let base = Encore_confparse.Kv.key_basename inj.Fault.target_attr in
  match inj.Fault.fault with
  | Fault.Config_fault Fault.Key_typo ->
      [ Encore_confparse.Kv.key_basename inj.Fault.after; base ]
  | _ -> [ base ]

let injection_detected ~config warnings inj =
  let strong =
    List.filter
      (fun w -> w.Warning.score >= config.Config.detection_score)
      warnings
  in
  List.exists
    (fun needle -> Report.rank_of_attr strong needle <> None)
    (needles_of_injection inj)

let table8 ?(config = Config.default) ?(scale = paper_scale) () =
  let n_faults = 15 in
  let rows =
    List.map
      (fun app ->
        let engine = trained_engine ~config ~scale app in
        let bl_engine =
          Baseline.baseline_model
            (Population.clean (training_population ~seed:config.Config.seed ~scale app))
        in
        let ble_engine =
          Baseline.baseline_env_model
            (Population.clean (training_population ~seed:config.Config.seed ~scale app))
        in
        (* held-out target image, different seed stream *)
        let rng = Prng.create (config.Config.seed + 7777) in
        let target =
          Population.generator_for app Profile.ec2 rng
            ~id:("inject-target-" ^ Image.app_to_string app)
        in
        let campaign =
          Conferr.inject ~env_fault_fraction:0.0 rng app target ~n:n_faults
        in
        let count check_fn engine =
          let warnings = check_fn engine campaign.Conferr.image in
          List.length
            (List.filter (injection_detected ~config warnings)
               campaign.Conferr.injections)
        in
        let bl = count Baseline.baseline_check bl_engine in
        let ble = count Baseline.baseline_env_check ble_engine in
        let enc = count Engine.check engine in
        [ app_label app;
          string_of_int (List.length campaign.Conferr.injections);
          string_of_int bl; string_of_int ble; string_of_int enc ])
      eval_apps
  in
  {
    exp_id = "table8";
    title = "Injected misconfigurations detected";
    header = [ "App"; "Total"; "Baseline"; "Baseline+Env"; "EnCore" ];
    rows;
    notes =
      "Shape: EnCore >= Baseline+Env >= Baseline, with EnCore detecting \
       1.6x-3.5x the Baseline (paper: Apache 4/9/14, MySQL 5/14/15, PHP \
       9/12/15 of 15).";
  }

(* ---------------------------------------------------------------- T9 *)

let table9 ?(config = Config.default) ?(scale = paper_scale) () =
  let cases = Cases.all ~seed:(config.Config.seed + 900) in
  let rows =
    List.map
      (fun (c : Cases.case) ->
        let engine = trained_engine ~config ~scale c.Cases.app in
        let warnings = Engine.check engine c.Cases.target in
        let strong =
          Report.merge_by_attr
            (List.filter
               (fun w -> w.Warning.score >= config.Config.detection_score)
               warnings)
        in
        let rank = Report.rank_of_attr strong c.Cases.expected_attr in
        let rank_str =
          match rank with
          | Some r -> Printf.sprintf "%d(%d)" r (List.length strong)
          | None -> "-"
        in
        [ string_of_int c.Cases.case_id; app_label c.Cases.app;
          Cases.info_to_string c.Cases.info; rank_str;
          (if c.Cases.expect_miss then "miss expected" else "");
          c.Cases.description ])
      cases
  in
  {
    exp_id = "table9";
    title = "Detection of real-world misconfigurations";
    header = [ "ID"; "Software"; "Info"; "Rank(total)"; "Paper"; "Problem" ];
    rows;
    notes =
      "Shape: 9 of 10 cases detected with the true cause ranked at or near \
       the top; case 8 missed for lack of hardware data in EC2-style \
       training (as in the paper).";
  }

(* --------------------------------------------------------------- T10 *)

let category_of_fault = function
  | Fault.Config_fault Fault.Wrong_path | Fault.Config_fault Fault.Path_to_file ->
      "FilePath"
  | Fault.Env_fault Fault.Chown_flip | Fault.Env_fault Fault.Perm_flip
  | Fault.Env_fault Fault.Symlink_inject ->
      "Permission"
  | Fault.Config_fault Fault.Size_inversion | Fault.Config_fault Fault.Wrong_user
  | Fault.Config_fault Fault.Key_typo | Fault.Config_fault Fault.Value_typo
  | Fault.Config_fault Fault.Value_swap ->
      "ValueCompare"
  | Fault.Pipeline_fault _ -> "Ingestion"
  | Fault.Durability_fault _ -> "Durability"

let scan_population ~config ~scale ~profile ~seed_offset ~total =
  (* split the target population evenly across the three apps *)
  let per_app = max 1 (total / List.length eval_apps) in
  let counts = Hashtbl.create 4 in
  let detected = ref 0 in
  let images_with = ref 0 in
  List.iter
    (fun app ->
      let engine = trained_engine ~config ~scale app in
      let targets =
        Population.generate ~profile
          ~seed:(config.Config.seed + seed_offset) app ~n:per_app
      in
      List.iter
        (fun (l : Population.labeled) ->
          match l.Population.latent with
          | [] -> ()
          | injections ->
              let warnings = Engine.check engine l.Population.image in
              let hits =
                List.filter (injection_detected ~config warnings) injections
              in
              if hits <> [] then incr images_with;
              List.iter
                (fun (inj : Fault.injection) ->
                  incr detected;
                  let cat = category_of_fault inj.Fault.fault in
                  Hashtbl.replace counts cat
                    (1 + Option.value ~default:0 (Hashtbl.find_opt counts cat)))
                hits)
        targets)
    eval_apps;
  let get cat = Option.value ~default:0 (Hashtbl.find_opt counts cat) in
  (get "FilePath", get "Permission", get "ValueCompare", !detected, !images_with)

let table10 ?(config = Config.default) ?(scale = paper_scale) () =
  let ec2_profile = Profile.ec2 in
  let cloud_profile = Profile.private_cloud in
  let fp1, perm1, vc1, tot1, img1 =
    scan_population ~config ~scale ~profile:ec2_profile ~seed_offset:1000
      ~total:scale.ec2_targets
  in
  let fp2, perm2, vc2, tot2, img2 =
    scan_population ~config ~scale ~profile:cloud_profile ~seed_offset:2000
      ~total:scale.cloud_targets
  in
  {
    exp_id = "table10";
    title = "New misconfigurations detected in fresh images";
    header = [ "Source"; "FilePath"; "Permission"; "ValueCompare"; "Total"; "Images" ];
    rows =
      [ [ "EC2"; string_of_int fp1; string_of_int perm1; string_of_int vc1;
          string_of_int tot1; string_of_int img1 ];
        [ "PrivateCloud"; string_of_int fp2; string_of_int perm2;
          string_of_int vc2; string_of_int tot2; string_of_int img2 ] ];
    notes =
      "Shape: pristine EC2-style templates carry more latent problems than \
       long-deployed private-cloud images (paper: 37 in 25 EC2 images vs 24 \
       in 22 private-cloud images); every detection needs environment or \
       correlation information.";
  }

(* --------------------------------------------------------------- T11 *)

(* Ground-truth lookup that masks the variable bracket arguments, e.g.
   apache/Directory[/var/www]/Options matches the catalog entry
   Directory[DOCROOT]/Options. *)
let mask_brackets key =
  let buf = Buffer.create (String.length key) in
  let inside = ref false in
  String.iter
    (fun c ->
      match c with
      | '[' ->
          inside := true;
          Buffer.add_string buf "[*"
      | ']' ->
          inside := false;
          Buffer.add_char buf ']'
      | c -> if not !inside then Buffer.add_char buf c)
    key;
  Buffer.contents buf

let ground_truth_type catalog attr =
  let masked = mask_brackets attr in
  List.find_map
    (fun (key, ct) ->
      if mask_brackets key = masked then Some ct else None)
    (Spec.ground_truth_types catalog)

let types_compatible ~truth ~inferred =
  Ctype.equal truth inferred
  || (Ctype.is_trivial truth
      && (Ctype.is_trivial inferred
          || match inferred with Ctype.Enum _ -> true | _ -> false))
  || (match (truth, inferred) with
      | Ctype.Bool_t, Ctype.Enum values ->
          List.for_all
            (fun v ->
              List.mem (Strutil.lowercase_ascii v)
                [ "on"; "off"; "true"; "false"; "yes"; "no"; "0"; "1" ])
            values
      | _ -> false)

let table11 ?(config = Config.default) ?(scale = paper_scale) () =
  let rows =
    List.map
      (fun app ->
        let assembled = assembled_training ~config ~scale app in
        let catalog = Population.catalog_for app in
        let config_cols =
          List.filter
            (fun col ->
              Strutil.contains_char col '/'
              && not (Encore_dataset.Augment.is_augmented col))
            (Table_ds.columns assembled.Assemble.table)
        in
        let entries = List.length config_cols in
        let nontrivial = ref 0 and false_types = ref 0 and undetected = ref 0 in
        List.iter
          (fun col ->
            match ground_truth_type catalog col with
            | None -> ()
            | Some truth ->
                let inferred =
                  Assemble.type_of assembled.Assemble.types col
                in
                if not (Ctype.is_trivial truth) then incr nontrivial;
                if not (types_compatible ~truth ~inferred) then
                  if Ctype.is_trivial inferred then incr undetected
                  else incr false_types)
          config_cols;
        [ app_label app; string_of_int entries; string_of_int !nontrivial;
          string_of_int !false_types; string_of_int !undetected ])
      eval_apps
  in
  {
    exp_id = "table11";
    title = "Data-type inference accuracy";
    header = [ "App"; "Entries"; "NonTrivial"; "FalseTypes"; "Undetected" ];
    rows;
    notes =
      "Shape: the two-step inference types the large majority of non-trivial \
       entries correctly, with small false/undetected tails (paper: Apache \
       371/207/14/20, MySQL 131/86/3/11, PHP 249/164/13/8).";
  }

(* ----------------------------------------------------------- T12/T13 *)

(* Rules are judged against the per-app correlation ground truth: the
   union-find closure of the generator's true_correlations connects
   attributes into correlated families; a rule is a true positive when
   both of its (base, bracket-masked) attributes fall in one family. *)
let correlation_families app =
  let pairs = Population.true_correlations_for app in
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None | Some "" -> x
    | Some p -> if p = x then x else find p
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun (a, b) ->
      let a = mask_brackets a and b = mask_brackets b in
      if not (Hashtbl.mem parent a) then Hashtbl.replace parent a a;
      if not (Hashtbl.mem parent b) then Hashtbl.replace parent b b;
      union a b)
    pairs;
  fun a b ->
    let norm attr = mask_brackets (Encore_dataset.Augment.base_attr attr) in
    let a = norm a and b = norm b in
    Hashtbl.mem parent a && Hashtbl.mem parent b && find a = find b

let rules_with_and_without_entropy ~config ~scale app =
  let assembled = assembled_training ~config ~scale app in
  let images =
    Population.clean (training_population ~seed:config.Config.seed ~scale app)
  in
  let training =
    List.map2
      (fun img (_, row) -> (img, row))
      images
      (Table_ds.rows assembled.Assemble.table)
  in
  let unfiltered =
    Filters.reduce_redundant
      (Rinfer.infer ~params:(Config.rule_params config)
         ~types:assembled.Assemble.types training)
  in
  let kept, dropped =
    Filters.entropy_filter ~threshold:config.Config.entropy_threshold training
      unfiltered
  in
  (unfiltered, kept, dropped)

let table12 ?(config = Config.default) ?(scale = paper_scale) () =
  let rows =
    List.map
      (fun app ->
        let _, kept, _ = rules_with_and_without_entropy ~config ~scale app in
        let is_true = correlation_families app in
        let false_pos =
          List.length
            (List.filter
               (fun (r : Template.rule) ->
                 not (is_true r.Template.attr_a r.Template.attr_b))
               kept)
        in
        [ app_label app; string_of_int (List.length kept);
          string_of_int false_pos ])
      eval_apps
  in
  {
    exp_id = "table12";
    title = "Correlation rules detected (with all filters)";
    header = [ "App"; "DetectedRules"; "FalsePositives" ];
    rows;
    notes =
      "Shape at paper scale: tens of concrete rules for Apache and MySQL \
       but five for PHP, a quarter to under half of them false positives \
       (paper: Apache 42/9, MySQL 29/4, PHP 31/10).";
  }

let table13 ?(config = Config.default) ?(scale = paper_scale) () =
  let rows =
    List.map
      (fun app ->
        let unfiltered, _, dropped =
          rules_with_and_without_entropy ~config ~scale app
        in
        let is_true = correlation_families app in
        let fp_reduced =
          List.length
            (List.filter
               (fun (r : Template.rule) ->
                 not (is_true r.Template.attr_a r.Template.attr_b))
               dropped)
        in
        let fn_introduced =
          List.length
            (List.filter
               (fun (r : Template.rule) ->
                 is_true r.Template.attr_a r.Template.attr_b)
               dropped)
        in
        [ app_label app; string_of_int (List.length unfiltered);
          string_of_int fp_reduced; string_of_int fn_introduced ])
      eval_apps
  in
  {
    exp_id = "table13";
    title = "Effectiveness of the entropy filter";
    header = [ "App"; "Original"; "FP Reduced"; "FN Introduced" ];
    rows;
    notes =
      "Shape: the entropy filter removes a large share of the false rules at \
       the cost of a few true ones (paper: Apache 113/71/7, MySQL 52/23/1, \
       PHP 567/536/1).";
  }

let all ?(config = Config.default) ?(scale = paper_scale) () =
  [ table1 ();
    table2 ~config ~scale ();
    table3 ~config ~scale ();
    table8 ~config ~scale ();
    table9 ~config ~scale ();
    table10 ~config ~scale ();
    table11 ~config ~scale ();
    table12 ~config ~scale ();
    table13 ~config ~scale () ]
