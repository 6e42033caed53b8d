(* Tests for encore_rules: relation semantics, template eligibility,
   template-guided inference, the filters and the customization file. *)

module Relation = Encore_rules.Relation
module Template = Encore_rules.Template
module Rinfer = Encore_rules.Infer
module Filters = Encore_rules.Filters
module Customfile = Encore_rules.Customfile
module Ctype = Encore_typing.Ctype
module Row = Encore_dataset.Row
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts
module Image = Encore_sysenv.Image

let check = Alcotest.check

let env_image () =
  let fs = Fs.add_dir ~owner:"mysql" ~group:"mysql" Fs.empty "/data" in
  let fs = Fs.add_file ~owner:"mysql" ~group:"adm" ~perm:0o640 fs "/var/log/err.log" in
  let fs = Fs.add_file fs "/etc/apache2/modules/mod_mime.so" in
  let accounts = Accounts.add_service_account Accounts.base "mysql" in
  Image.make ~id:"rel" ~fs ~accounts []

let eval rel ~a ~b = Relation.eval rel (env_image ()) ~a ~b

let some_bool = Alcotest.option Alcotest.bool

(* --- Relation evaluation -------------------------------------------------- *)

let test_eq_all () =
  check some_bool "equal" (Some true) (eval Relation.Eq_all ~a:[ "x" ] ~b:[ "x" ]);
  check some_bool "unequal" (Some false) (eval Relation.Eq_all ~a:[ "x" ] ~b:[ "y" ]);
  check some_bool "multi all" (Some false)
    (eval Relation.Eq_all ~a:[ "x"; "x" ] ~b:[ "x"; "y" ]);
  check some_bool "empty side inapplicable" None (eval Relation.Eq_all ~a:[] ~b:[ "x" ])

let test_eq_exists () =
  check some_bool "one matches" (Some true)
    (eval Relation.Eq_exists ~a:[ "a" ] ~b:[ "b"; "a" ]);
  check some_bool "none" (Some false) (eval Relation.Eq_exists ~a:[ "a" ] ~b:[ "b" ])

let test_bool_implies () =
  let rel = Relation.Bool_implies (true, false) in
  check some_bool "antecedent true, consequent false: holds" (Some true)
    (eval rel ~a:[ "yes" ] ~b:[ "no" ]);
  check some_bool "antecedent true, consequent true: violated" (Some false)
    (eval rel ~a:[ "yes" ] ~b:[ "yes" ]);
  check some_bool "antecedent false: vacuous" (Some true)
    (eval rel ~a:[ "no" ] ~b:[ "yes" ]);
  check some_bool "non-bool inapplicable" None (eval rel ~a:[ "banana" ] ~b:[ "no" ])

let test_subnet () =
  check some_bool "cidr inside" (Some true)
    (eval Relation.Subnet ~a:[ "10.1.2.3" ] ~b:[ "10.0.0.0/8" ]);
  check some_bool "cidr outside" (Some false)
    (eval Relation.Subnet ~a:[ "192.168.1.1" ] ~b:[ "10.0.0.0/8" ]);
  check some_bool "prefix form" (Some true)
    (eval Relation.Subnet ~a:[ "10.0.1.5" ] ~b:[ "10.0.1" ]);
  check some_bool "equal addr" (Some true)
    (eval Relation.Subnet ~a:[ "10.0.0.1" ] ~b:[ "10.0.0.1" ])

let test_concat_path () =
  check some_bool "resolves" (Some true)
    (eval Relation.Concat_path ~a:[ "/etc/apache2" ] ~b:[ "modules/mod_mime.so" ]);
  check some_bool "missing" (Some false)
    (eval Relation.Concat_path ~a:[ "/etc/apache2" ] ~b:[ "modules/nope.so" ])

let test_substring () =
  check some_bool "substring" (Some true)
    (eval Relation.Substring ~a:[ "/data" ] ~b:[ "/data/mysql" ]);
  check some_bool "not substring" (Some false)
    (eval Relation.Substring ~a:[ "/xyz" ] ~b:[ "/data" ])

let test_user_in_group () =
  check some_bool "member" (Some true)
    (eval Relation.User_in_group ~a:[ "mysql" ] ~b:[ "mysql" ]);
  check some_bool "not member" (Some false)
    (eval Relation.User_in_group ~a:[ "mysql" ] ~b:[ "wheel" ])

let test_not_accessible () =
  (* the 0640 mysql:adm log must not be readable by nobody *)
  check some_bool "hidden from nobody" (Some true)
    (eval Relation.Not_accessible ~a:[ "/var/log/err.log" ] ~b:[ "nobody" ]);
  check some_bool "owner can read -> relation false" (Some false)
    (eval Relation.Not_accessible ~a:[ "/var/log/err.log" ] ~b:[ "mysql" ])

let test_ownership () =
  check some_bool "owned" (Some true)
    (eval Relation.Ownership ~a:[ "/data" ] ~b:[ "mysql" ]);
  check some_bool "not owned" (Some false)
    (eval Relation.Ownership ~a:[ "/data" ] ~b:[ "root" ])

let test_num_less () =
  check some_bool "less" (Some true) (eval Relation.Num_less ~a:[ "3" ] ~b:[ "8" ]);
  check some_bool "not less" (Some false) (eval Relation.Num_less ~a:[ "9" ] ~b:[ "8" ]);
  check some_bool "equal not less" (Some false) (eval Relation.Num_less ~a:[ "8" ] ~b:[ "8" ]);
  check some_bool "unparsable" None (eval Relation.Num_less ~a:[ "x" ] ~b:[ "8" ])

let test_size_less () =
  check some_bool "unit aware" (Some true) (eval Relation.Size_less ~a:[ "512K" ] ~b:[ "2M" ]);
  check some_bool "not less" (Some false) (eval Relation.Size_less ~a:[ "2M" ] ~b:[ "512K" ])

let test_symbol_roundtrip () =
  List.iter
    (fun rel ->
      check (Alcotest.option Alcotest.string) (Relation.to_string rel)
        (Some (Relation.to_string rel))
        (Option.map Relation.to_string (Relation.of_symbol (Relation.symbol rel))))
    [ Relation.Eq_all; Relation.Eq_exists; Relation.Bool_implies (true, false);
      Relation.Bool_implies (false, true); Relation.Subnet; Relation.Concat_path;
      Relation.Substring; Relation.User_in_group; Relation.Not_accessible;
      Relation.Ownership; Relation.Num_less; Relation.Size_less ]

(* --- Templates -------------------------------------------------------------- *)

let test_predefined_eleven () =
  check Alcotest.int "eleven templates" 11 (List.length Template.predefined)

let test_template_eligibility () =
  let ownership =
    List.find (fun t -> t.Template.tname = "ownership") Template.predefined
  in
  check Alcotest.bool "path fills A" true (Template.eligible_a ownership Ctype.File_path);
  check Alcotest.bool "user fills B" true (Template.eligible_b ownership Ctype.User_name);
  check Alcotest.bool "user cannot fill A" false
    (Template.eligible_a ownership Ctype.User_name)

let test_rule_holds_in_context () =
  let ownership =
    List.find (fun t -> t.Template.tname = "ownership") Template.predefined
  in
  let rule =
    { Template.template = ownership; attr_a = "m/datadir"; attr_b = "m/user";
      support = 10; confidence = 1.0 }
  in
  let holds row = Oracle.rule_holds rule (env_image ()) (Row.of_list row) in
  check some_bool "holds" (Some true)
    (holds [ ("m/datadir", "/data"); ("m/user", "mysql") ]);
  check some_bool "violated" (Some false)
    (holds [ ("m/datadir", "/data"); ("m/user", "root") ]);
  check some_bool "skipped when attribute absent" None
    (holds [ ("m/user", "mysql") ])

(* --- Inference ---------------------------------------------------------------- *)

(* A synthetic training set with one planted ownership correlation and
   one planted size ordering, plus a noise column. *)
let training_with_correlations n =
  List.init n (fun i ->
      let user = if i mod 2 = 0 then "mysql" else "root" in
      let fs = Fs.add_dir ~owner:user ~group:user Fs.empty "/data" in
      let accounts = Accounts.add_service_account Accounts.base "mysql" in
      let img = Image.make ~id:(string_of_int i) ~fs ~accounts [] in
      let small = string_of_int (4 + (i mod 3)) ^ "M" in
      let big = string_of_int (32 + (i mod 5)) ^ "M" in
      let row =
        Row.of_list
          [ ("m/datadir", "/data"); ("m/user", user);
            ("m/small", small); ("m/big", big);
            ("m/noise", string_of_int i) ]
      in
      (img, row))

let types_for_training =
  [ ("m/datadir", { Encore_typing.Infer.ctype = Ctype.File_path; agreement = 1.0; samples = 10 });
    ("m/user", { Encore_typing.Infer.ctype = Ctype.User_name; agreement = 1.0; samples = 10 });
    ("m/small", { Encore_typing.Infer.ctype = Ctype.Size; agreement = 1.0; samples = 10 });
    ("m/big", { Encore_typing.Infer.ctype = Ctype.Size; agreement = 1.0; samples = 10 });
    ("m/noise", { Encore_typing.Infer.ctype = Ctype.String_t; agreement = 1.0; samples = 10 }) ]

let find_rule rules name a b =
  List.find_opt
    (fun (r : Template.rule) ->
      r.template.Template.tname = name && r.attr_a = a && r.attr_b = b)
    rules

let test_infer_finds_planted_rules () =
  let training = training_with_correlations 20 in
  let rules = Rinfer.infer ~types:types_for_training training in
  check Alcotest.bool "ownership found" true
    (find_rule rules "ownership" "m/datadir" "m/user" <> None);
  check Alcotest.bool "size order found" true
    (find_rule rules "size-less" "m/small" "m/big" <> None);
  check Alcotest.bool "reverse order absent" true
    (find_rule rules "size-less" "m/big" "m/small" = None)

let test_infer_confidence_threshold () =
  (* corrupt 30% of images: ownership no longer meets 0.9 confidence *)
  let training =
    List.mapi
      (fun i (img, row) ->
        if i mod 3 = 0 then
          (Image.with_fs img (Fs.chown img.Image.fs "/data" ~owner:"daemon" ~group:"daemon"), row)
        else (img, row))
      (training_with_correlations 21)
  in
  let rules = Rinfer.infer ~types:types_for_training training in
  check Alcotest.bool "low-confidence rule rejected" true
    (find_rule rules "ownership" "m/datadir" "m/user" = None)

let test_infer_support_threshold () =
  (* the pair only co-occurs once: below the minimum support *)
  let base = training_with_correlations 20 in
  let training =
    List.mapi
      (fun i (img, row) ->
        if i = 0 then (img, row)
        else
          ( img,
            Row.of_list
              (List.filter (fun (a, _) -> a <> "m/small") (Row.to_list row)) ))
      base
  in
  let rules = Rinfer.infer ~types:types_for_training training in
  check Alcotest.bool "unsupported rule rejected" true
    (find_rule rules "size-less" "m/small" "m/big" = None)

let test_instantiations_exclude_self_and_same_base () =
  let ownership =
    List.find (fun t -> t.Template.tname = "ownership") Template.predefined
  in
  let types =
    [ ("m/path", { Encore_typing.Infer.ctype = Ctype.File_path; agreement = 1.0; samples = 1 });
      ("m/path.owner", { Encore_typing.Infer.ctype = Ctype.User_name; agreement = 1.0; samples = 1 });
      ("m/user", { Encore_typing.Infer.ctype = Ctype.User_name; agreement = 1.0; samples = 1 }) ]
  in
  let insts =
    Rinfer.instantiations ~types ownership [ "m/path"; "m/path.owner"; "m/user" ]
  in
  check Alcotest.bool "no self pair" true (not (List.mem ("m/path", "m/path") insts));
  check Alcotest.bool "no own augmentation" true
    (not (List.mem ("m/path", "m/path.owner") insts));
  check Alcotest.bool "real pair kept" true (List.mem ("m/path", "m/user") insts)

let test_parallel_equals_sequential () =
  let training = training_with_correlations 24 in
  let render rules = List.map Template.rule_to_string rules in
  let sequential = Rinfer.infer ~types:types_for_training training in
  List.iter
    (fun jobs ->
      let parallel =
        Encore_util.Pool.with_pool ~jobs (fun pool ->
            Rinfer.infer ~pool ~types:types_for_training training)
      in
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        (render sequential) (render parallel))
    [ 2; 4; 7 ]

let test_parallel_jobs_exceed_candidates () =
  (* more domains than candidates must not break chunking *)
  let training = training_with_correlations 12 in
  let rules =
    Encore_util.Pool.with_pool ~jobs:64 (fun pool ->
        Rinfer.infer ~pool ~types:types_for_training training)
  in
  check Alcotest.bool "still finds rules" true (rules <> [])

let test_expand_polarities () =
  let expanded =
    Rinfer.expand_polarities
      [ List.find (fun t -> t.Template.tname = "extended-boolean") Template.predefined ]
  in
  check Alcotest.int "four polarities" 4 (List.length expanded)

(* --- Inference against the reference oracle ----------------------------------- *)

(* Training slices of the generated populations: every predefined app
   plus the synthetic fleet, whose attributes span every relation the
   engine counts with popcounts or typed value arrays as well as the
   per-row fallbacks. *)
let oracle_sources =
  lazy
    (List.map
       (fun app ->
         Encore_workloads.Population.clean
           (Encore_workloads.Population.generate ~seed:23 app ~n:40))
       [ Image.Mysql; Image.Apache; Image.Php; Image.Sshd ]
     @ [ Encore_workloads.Synthfleet.generate ~seed:23 ~n:40 () ])

(* one template from a customization file, with its own confidence
   override *)
let oracle_templates =
  lazy
    (match Customfile.parse "$$Template\n[A:Number] < [B:Number] -- 75%\n" with
     | Ok t -> Template.predefined @ t.Customfile.templates
     | Error e -> Alcotest.failf "custom template: %s" e.Customfile.message)

let oracle_case =
  QCheck.(
    quad (int_bound 4)
      (pair (int_bound 30) (int_range 2 25))
      (pair (float_range 0.02 0.6) (float_range 0.5 1.0))
      (int_range 1 2))

let prop_infer_equals_oracle =
  QCheck.Test.make ~count:40
    ~name:"infer equals the reference oracle on population slices"
    oracle_case
    (fun (source, (start, len), (min_support_frac, min_confidence), jobs) ->
      let images =
        List.filteri
          (fun i _ -> i >= start && i < start + len)
          (List.nth (Lazy.force oracle_sources) source)
      in
      QCheck.assume (List.length images >= 2);
      let assembled = Encore_dataset.Assemble.assemble_training images in
      let training =
        List.map2
          (fun img (_, row) -> (img, row))
          images
          (Encore_dataset.Table.rows assembled.Encore_dataset.Assemble.table)
      in
      let types = assembled.Encore_dataset.Assemble.types in
      let params = { Rinfer.min_support_frac; min_confidence } in
      let templates = Lazy.force oracle_templates in
      Encore_util.Pool.with_pool ~jobs (fun pool ->
          Rinfer.infer ~params ~templates ~pool ~types training)
      = Oracle.infer_reference ~params ~templates ~types training)

(* --- Filters --------------------------------------------------------------------- *)

let test_entropy_filter () =
  let training = training_with_correlations 20 in
  let rules = Rinfer.infer ~types:types_for_training training in
  let kept, dropped = Filters.entropy_filter training rules in
  (* the datadir column is constant -> every rule touching it drops *)
  check Alcotest.bool "constant-column rule dropped" true
    (List.exists (fun (r : Template.rule) -> r.attr_a = "m/datadir") dropped);
  check Alcotest.bool "no constant column in kept rules" true
    (List.for_all (fun (r : Template.rule) -> r.attr_a <> "m/datadir") kept);
  (* size columns vary -> the ordering rule survives *)
  check Alcotest.bool "diverse rule kept" true
    (find_rule kept "size-less" "m/small" "m/big" <> None)

let mk_eq_rule a b conf =
  let eq = List.find (fun t -> t.Template.tname = "equal") Template.predefined in
  { Template.template = eq; attr_a = a; attr_b = b; support = 10; confidence = conf }

let test_reduce_redundant_spanning_tree () =
  (* triangle of equalities: only two edges should remain *)
  let rules = [ mk_eq_rule "a" "b" 1.0; mk_eq_rule "b" "c" 1.0; mk_eq_rule "a" "c" 1.0 ] in
  let reduced = Filters.reduce_redundant rules in
  check Alcotest.int "spanning tree" 2 (List.length reduced)

let test_reduce_redundant_eq_exists_shadowed () =
  let eqx =
    List.find (fun t -> t.Template.tname = "equal-exists") Template.predefined
  in
  let shadowed =
    { Template.template = eqx; attr_a = "a"; attr_b = "b"; support = 10; confidence = 1.0 }
  in
  let reduced = Filters.reduce_redundant [ mk_eq_rule "a" "b" 1.0; shadowed ] in
  check Alcotest.int "exists dropped under equal" 1 (List.length reduced);
  check Alcotest.string "equal kept" "equal"
    (match reduced with
     | [ r ] -> r.Template.template.Template.tname
     | _ -> "?")

let test_reduce_redundant_order_hasse () =
  let less =
    List.find (fun t -> t.Template.tname = "num-less") Template.predefined
  in
  let mk a b =
    { Template.template = less; attr_a = a; attr_b = b; support = 10; confidence = 1.0 }
  in
  let reduced = Filters.reduce_redundant [ mk "a" "b"; mk "b" "c"; mk "a" "c" ] in
  check Alcotest.int "transitive edge dropped" 2 (List.length reduced);
  check Alcotest.bool "a<c gone" true
    (List.for_all
       (fun (r : Template.rule) -> not (r.attr_a = "a" && r.attr_b = "c"))
       reduced)

let test_reduce_keeps_ownership () =
  let ownership =
    List.find (fun t -> t.Template.tname = "ownership") Template.predefined
  in
  let rule =
    { Template.template = ownership; attr_a = "p"; attr_b = "u"; support = 5; confidence = 1.0 }
  in
  check Alcotest.int "kept" 1 (List.length (Filters.reduce_redundant [ rule ]))

(* --- Customization file -------------------------------------------------------------- *)

let custom_text =
  "# user customization\n\
   $$TypeDeclaration\n\
   LogPath\n\
   $$TypeInference\n\
   LogPath: regex /var/log/.+\n\
   $$TypeValidation\n\
   LogPath: exists_in_fs\n\
   $$Template\n\
   [A:LogPath] => [B:UserName] -- 85%\n\
   [A:Size] <# [B:Size]\n"

let test_customfile_parse () =
  Encore_typing.Custom_registry.clear ();
  match Customfile.parse custom_text with
  | Ok t ->
      check (Alcotest.list Alcotest.string) "types" [ "LogPath" ] t.Customfile.declared_types;
      check Alcotest.int "templates" 2 (List.length t.Customfile.templates);
      check Alcotest.bool "type registered" true
        (Encore_typing.Custom_registry.is_registered "LogPath");
      (match t.Customfile.templates with
       | first :: _ ->
           check (Alcotest.option (Alcotest.float 1e-9)) "confidence override"
             (Some 0.85) first.Template.min_confidence;
           check Alcotest.bool "custom slot type" true
             (first.Template.slot_a = Some (Ctype.Custom "LogPath"))
       | [] -> Alcotest.fail "no templates");
      Encore_typing.Custom_registry.clear ()
  | Error e -> Alcotest.fail (Printf.sprintf "line %d: %s" e.Customfile.line e.Customfile.message)

let test_customfile_bad_operator () =
  Encore_typing.Custom_registry.clear ();
  match Customfile.parse "$$Template\n[A] %% [B]\n" with
  | Ok _ -> Alcotest.fail "should fail"
  | Error e -> check Alcotest.int "error line" 2 e.Customfile.line

let test_customfile_unknown_section () =
  match Customfile.parse "$$Bogus\nx\n" with
  | Ok _ -> Alcotest.fail "should fail"
  | Error e -> check Alcotest.int "error line" 1 e.Customfile.line

let test_customfile_unknown_type_in_template () =
  Encore_typing.Custom_registry.clear ();
  match Customfile.parse "$$Template\n[A:Bogus] < [B:Number]\n" with
  | Ok _ -> Alcotest.fail "should fail"
  | Error _ -> ()

let test_parse_template_line_plain () =
  match Customfile.parse_template_line "[A:FilePath] => [B:UserName]" with
  | Ok t ->
      check Alcotest.bool "relation" true (t.Template.relation = Relation.Ownership);
      check Alcotest.bool "no confidence override" true (t.Template.min_confidence = None)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "encore_rules"
    [
      ( "relations",
        [
          Alcotest.test_case "eq all" `Quick test_eq_all;
          Alcotest.test_case "eq exists" `Quick test_eq_exists;
          Alcotest.test_case "bool implies" `Quick test_bool_implies;
          Alcotest.test_case "subnet" `Quick test_subnet;
          Alcotest.test_case "concat path" `Quick test_concat_path;
          Alcotest.test_case "substring" `Quick test_substring;
          Alcotest.test_case "user in group" `Quick test_user_in_group;
          Alcotest.test_case "not accessible" `Quick test_not_accessible;
          Alcotest.test_case "ownership" `Quick test_ownership;
          Alcotest.test_case "num less" `Quick test_num_less;
          Alcotest.test_case "size less" `Quick test_size_less;
          Alcotest.test_case "symbol roundtrip" `Quick test_symbol_roundtrip;
        ] );
      ( "templates",
        [
          Alcotest.test_case "eleven predefined" `Quick test_predefined_eleven;
          Alcotest.test_case "eligibility" `Quick test_template_eligibility;
          Alcotest.test_case "rule_holds" `Quick test_rule_holds_in_context;
        ] );
      ( "inference",
        [
          Alcotest.test_case "finds planted rules" `Quick test_infer_finds_planted_rules;
          Alcotest.test_case "confidence threshold" `Quick test_infer_confidence_threshold;
          Alcotest.test_case "support threshold" `Quick test_infer_support_threshold;
          Alcotest.test_case "instantiation exclusions" `Quick
            test_instantiations_exclude_self_and_same_base;
          Alcotest.test_case "polarity expansion" `Quick test_expand_polarities;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "jobs exceed candidates" `Quick
            test_parallel_jobs_exceed_candidates;
          QCheck_alcotest.to_alcotest prop_infer_equals_oracle;
        ] );
      ( "filters",
        [
          Alcotest.test_case "entropy filter" `Quick test_entropy_filter;
          Alcotest.test_case "spanning tree" `Quick test_reduce_redundant_spanning_tree;
          Alcotest.test_case "eq-exists shadowed" `Quick test_reduce_redundant_eq_exists_shadowed;
          Alcotest.test_case "hasse reduction" `Quick test_reduce_redundant_order_hasse;
          Alcotest.test_case "ownership kept" `Quick test_reduce_keeps_ownership;
        ] );
      ( "customfile",
        [
          Alcotest.test_case "parse" `Quick test_customfile_parse;
          Alcotest.test_case "bad operator" `Quick test_customfile_bad_operator;
          Alcotest.test_case "unknown section" `Quick test_customfile_unknown_section;
          Alcotest.test_case "unknown type" `Quick test_customfile_unknown_type_in_template;
          Alcotest.test_case "plain template line" `Quick test_parse_template_line_plain;
        ] );
    ]
