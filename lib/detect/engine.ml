module Row = Encore_dataset.Row
module Assemble = Encore_dataset.Assemble
module Augment = Encore_dataset.Augment
module Tinfer = Encore_typing.Infer
module Ctype = Encore_typing.Ctype
module Syntactic = Encore_typing.Syntactic
module Semantic = Encore_typing.Semantic
module Template = Encore_rules.Template
module Relation = Encore_rules.Relation
module Strutil = Encore_util.Strutil
module Deadline = Encore_util.Deadline
module Otrace = Encore_obs.Trace
module Ometrics = Encore_obs.Metrics

type model = {
  types : Tinfer.env;
  rules : Template.rule list;
  value_stats : (string * string list) list;
  known_attrs : string list;
  training_count : int;
  overflowed : bool;
}

type checks = {
  check_names : bool;
  check_rules : bool;
  check_types : bool;
  check_values : bool;
}

let all_checks =
  { check_names = true; check_rules = true; check_types = true; check_values = true }

type verdict = Complete of Warning.t list | Partial of Warning.t list

let warnings_of = function Complete ws | Partial ws -> ws

(* --- compiled indices ---------------------------------------------------- *)

(* One typed column: the inference decision plus the syntactic matcher
   resolved at compile time.  [String_t] columns are absent (they match
   everything, so the check skips them). *)
type typed_column = {
  tc_type : Ctype.t;
  tc_type_name : string;
  tc_agreement : float;
  tc_syntactic : string -> bool;
}

(* One column's training-value statistics: hashed membership with the
   value's precomputed syntactic verdict as payload (true when the
   column has no non-trivial matcher), plus the cardinality the ICF
   score needs.  Caching the verdict at compile time means the check
   never runs a regex on a training-seen value. *)
type value_column = {
  vc_seen : (string, bool) Hashtbl.t;
  vc_cardinality : int;
}

(* Everything the per-pair checks know about one column, merged so the
   fused type/value pass costs a single hash probe per row pair. *)
type column = {
  col_typed : typed_column option;
  col_values : value_column option;
}

type t = {
  source : model;
  (* target assembly with the type environment hashed once *)
  assemble : Encore_sysenv.Image.t -> Row.t;
  known : (string, unit) Hashtbl.t;
  (* (attribute, key basename) in training first-appearance order: the
     near-miss scan walks it with a length-difference prune, which
     cannot change the winner (distance >= |length difference|) *)
  near_index : (string * string) array;
  (* rules in learned order: at paper scale there are fewer rules than
     row attributes, so evaluating each rule directly (rule_holds is a
     no-op when the slot-A attribute is absent) beats selecting
     per-attribute buckets and re-sorting them *)
  rules : Template.rule array;
  columns : (string, column) Hashtbl.t;
}

let model t = t.source

let m_compiles = Ometrics.counter "detect.compiles"

(* Assoc-list semantics everywhere below: the first binding of a key
   wins, exactly like the List.assoc walks this engine replaces. *)
let add_first tbl key v = if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v

let compile source =
  Otrace.with_span "engine-compile" @@ fun () ->
  Ometrics.incr m_compiles;
  let known = Hashtbl.create (2 * List.length source.known_attrs + 1) in
  List.iter (fun a -> add_first known a ()) source.known_attrs;
  let near_index =
    Array.of_list
      (List.map
         (fun a -> (a, Encore_confparse.Kv.key_basename a))
         source.known_attrs)
  in
  let columns = Hashtbl.create 256 in
  List.iter
    (fun (attr, (d : Tinfer.decision)) ->
      (* String_t columns stay in the table (first binding must keep
         masking any duplicate) but their matcher is trivial: the check
         skips them, exactly like the interpreted walk did *)
      add_first columns attr
        {
          col_typed =
            Some
              {
                tc_type = d.Tinfer.ctype;
                tc_type_name = Ctype.to_string d.Tinfer.ctype;
                tc_agreement = d.Tinfer.agreement;
                tc_syntactic =
                  (if Ctype.equal d.Tinfer.ctype Ctype.String_t then fun _ ->
                     true
                   else Syntactic.matcher d.Tinfer.ctype);
              };
          col_values = None;
        })
    source.types;
  List.iter
    (fun (attr, values) ->
      let vc col_typed =
        (* precompute each training value's syntactic verdict under the
           column's matcher, so checking a seen value costs one probe *)
        let syn =
          match col_typed with
          | Some tc when not (Ctype.equal tc.tc_type Ctype.String_t) ->
              tc.tc_syntactic
          | Some _ | None -> fun _ -> true
        in
        let vc_seen = Hashtbl.create (2 * List.length values + 1) in
        List.iter (fun v -> Hashtbl.replace vc_seen v (syn v)) values;
        { vc_seen; vc_cardinality = List.length values }
      in
      match Hashtbl.find_opt columns attr with
      | Some ({ col_values = None; _ } as c) ->
          Hashtbl.replace columns attr
            { c with col_values = Some (vc c.col_typed) }
      | Some { col_values = Some _; _ } -> () (* first binding wins *)
      | None ->
          Hashtbl.add columns attr
            { col_typed = None; col_values = Some (vc None) })
    source.value_stats;
  {
    source;
    assemble = Assemble.target_assembler ~types:source.types;
    known;
    near_index;
    rules = Array.of_list source.rules;
    columns;
  }

(* --- check 1: entry names ----------------------------------------------- *)

(* Only original configuration entries (not augmented, not globals)
   are name-checked.  The known-attribute probe runs first: almost
   every attribute of a healthy image is known, and one hash probe is
   far cheaper than the augmentation-suffix scan.  Filter order does
   not change the outcome — both tests must pass for a warning. *)
let is_config_attr attr =
  (not (Augment.is_augmented attr)) && Strutil.contains_char attr '/'

(* First known attribute strictly under [limit] edits at minimum
   distance, in training order.  Each candidate only has to beat the
   best so far, so it is pruned by basename length and its distance is
   cut off at the current best. *)
let nearest_below t base limit =
  let blen = String.length base in
  let best_name = ref None and best_d = ref limit in
  Array.iter
    (fun (candidate, cbase) ->
      if abs (String.length cbase - blen) < !best_d then
        match Strutil.damerau_levenshtein_below ~limit:!best_d base cbase with
        | Some d ->
            best_d := d;
            best_name := Some candidate
        | None -> ())
    t.near_index;
  (!best_name, !best_d)

(* The first known attribute at minimum edit distance, in training
   order.  A misspelling (at most 2 edits) is found by a scan cut off
   at 3; only a key that is far from every known name pays for the
   scan without a cap, which still reports its nearest name. *)
let nearest_known t base =
  match nearest_below t base 3 with
  | (Some _, _) as hit -> hit
  | None, _ -> nearest_below t base max_int

(* One attribute's name verdict: [None] when the attribute is known (or
   not an original config entry), the misspelling/unknown warning
   otherwise. *)
let name_warning t attr =
  if Hashtbl.mem t.known attr || not (is_config_attr attr) then None
  else
    (* likely misspelling: close to some trained attribute *)
    let base = Encore_confparse.Kv.key_basename attr in
    let nearest_name, distance = nearest_known t base in
    let score =
      (* a 1-2 edit misspelling of a known entry is near-certain *)
      if distance <= 2 then 0.9 -. (0.1 *. float_of_int distance) else 0.3
    in
    let message =
      match nearest_name with
      | Some n when distance <= 2 ->
          Printf.sprintf "unknown entry '%s': possible misspelling of '%s'"
            attr n
      | Some _ | None ->
          Printf.sprintf "unknown entry '%s': never seen in training" attr
    in
    Some
      {
        Warning.kind =
          Warning.Entry_name_violation { unseen = attr; nearest = nearest_name };
        attrs = [ attr ];
        message;
        score;
      }

(* --- check 2: correlation rules ------------------------------------------ *)

(* Labelled series for the fleet exposition: which rules fire, and how
   often each app trips the name / suspicious-value checks. *)
let m_rule_fired rule =
  Ometrics.counter
    (Ometrics.labeled "detect.rule_fired"
       [ ("rule", rule.Template.attr_a ^ "->" ^ rule.Template.attr_b) ])

let by_app name app = Ometrics.counter (Ometrics.labeled name [ ("app", app) ])

(* One rule's verdict in a target context: [None] when the rule holds or
   its slot attributes are absent there. *)
let rule_warning rule ctx =
  match Template.rule_holds rule ctx with
  | Some false ->
      Ometrics.incr (m_rule_fired rule);
      Some
        {
          Warning.kind = Warning.Correlation_violation rule;
          attrs = [ rule.Template.attr_a; rule.Template.attr_b ];
          message =
            Printf.sprintf "correlation violated: %s"
              (Template.rule_to_string rule);
          score = 0.5 +. (0.5 *. rule.Template.confidence);
        }
  | Some true | None -> None

(* --- checks 3 and 4: data types + suspicious values ----------------------- *)

(* One pair's column verdicts, accumulated onto the two reverse lists: a
   single [columns] probe serves both the type check and the value
   check. *)
let column_pair t ~types ~values img rev_types rev_values (attr, value) =
  match Hashtbl.find_opt t.columns attr with
  | None -> ()
  | Some c ->
      (* one membership probe serves the value check and, through
         the cached verdict, the type check's syntactic matcher *)
      let cached =
        match c.col_values with
        | Some vc -> Hashtbl.find_opt vc.vc_seen value
        | None -> None
      in
      (if types then
         match c.col_typed with
         | Some tc when not (Ctype.equal tc.tc_type Ctype.String_t) ->
             let syn_ok =
               match cached with
               | Some b -> b
               | None -> tc.tc_syntactic value
             in
             if syn_ok && Semantic.verify img tc.tc_type value then ()
             else
               rev_types :=
                 {
                   Warning.kind =
                     Warning.Type_violation
                       { attr; expected = tc.tc_type; value };
                   attrs = [ attr ];
                   message =
                     Printf.sprintf "type violation: %s='%s' fails %s check"
                       attr value tc.tc_type_name;
                   score = 0.4 +. (0.5 *. tc.tc_agreement);
                 }
                 :: !rev_types
         | Some _ | None -> ());
      if values then
        match c.col_values with
        | None -> ()
        | Some vc ->
            if cached <> None then ()
            else
              (* Inverse Change Frequency: unseen values of stable
                 attributes are the most suspicious *)
              let icf = 1.0 /. float_of_int (max 1 vc.vc_cardinality) in
              rev_values :=
                {
                  Warning.kind =
                    Warning.Suspicious_value
                      { attr; value; training_cardinality = vc.vc_cardinality };
                  attrs = [ attr ];
                  message =
                    Printf.sprintf
                      "suspicious value: %s='%s' unseen in training (%d \
                       distinct values seen)"
                      attr value vc.vc_cardinality;
                  score = 0.2 +. (0.6 *. icf);
                }
                :: !rev_values

(* --- the check entry point ------------------------------------------------ *)

let m_warn_name = Ometrics.counter "detect.warnings.entry_name"
let m_warn_rule = Ometrics.counter "detect.warnings.correlation"
let m_warn_type = Ometrics.counter "detect.warnings.type"
let m_warn_value = Ometrics.counter "detect.warnings.value"
let m_checks = Ometrics.counter "detect.checks"

(* The one check body.  Each stage walks its units — a row pair for the
   fused type/value walk, an attribute for names, a rule for
   correlations — and polls [deadline] before each one.  Expiry keeps
   every warning the finished units produced and ranks them as a
   [Partial] verdict.  The stage lists are concatenated in the order
   names, rules, types, values before the rank sort, each in unit
   order. *)
let verdict ?(checks = all_checks) ?deadline t img =
  Otrace.with_span "check"
    ~attrs:[ ("image", Encore_obs.Jsonenc.Str img.Encore_sysenv.Image.image_id) ]
    (fun () ->
      Ometrics.incr m_checks;
      let poll =
        match deadline with
        | None -> ignore
        | Some d -> fun () -> Deadline.raise_if_expired d
      in
      let row =
        Otrace.with_span "assemble-target" (fun () -> t.assemble img)
      in
      let ctx = { Relation.image = img; row } in
      let rev_names = ref [] and rev_rules = ref [] in
      let rev_types = ref [] and rev_values = ref [] in
      let emit acc = function Some w -> acc := w :: !acc | None -> () in
      let complete =
        match
          if checks.check_types || checks.check_values then
            Otrace.with_span "check-columns" (fun () ->
                List.iter
                  (fun pair ->
                    poll ();
                    column_pair t ~types:checks.check_types
                      ~values:checks.check_values img rev_types rev_values
                      pair)
                  (Row.to_list row));
          if checks.check_names then
            Otrace.with_span "check-names" (fun () ->
                List.iter
                  (fun attr ->
                    poll ();
                    emit rev_names (name_warning t attr))
                  (Row.attrs row));
          if checks.check_rules then
            (* rule_holds yields None for rules whose slot attributes
               the image does not carry *)
            Otrace.with_span "check-rules" (fun () ->
                Array.iter
                  (fun rule ->
                    poll ();
                    emit rev_rules (rule_warning rule ctx))
                  t.rules)
        with
        | () -> true
        | exception Deadline.Expired _ -> false
      in
      let counted counter rev =
        Ometrics.incr ~by:(List.length !rev) counter;
        List.rev !rev
      in
      let warnings =
        counted m_warn_name rev_names
        @ counted m_warn_rule rev_rules
        @ counted m_warn_type rev_types
        @ counted m_warn_value rev_values
      in
      let app =
        match img.Encore_sysenv.Image.configs with
        | { Encore_sysenv.Image.app; _ } :: _ ->
            Encore_sysenv.Image.app_to_string app
        | [] -> "default"
      in
      List.iter
        (fun (w : Warning.t) ->
          match w.Warning.kind with
          | Warning.Entry_name_violation { nearest = Some _; _ } ->
              (* the near index produced a candidate: a name hit *)
              Ometrics.incr (by_app "detect.near_miss" app)
          | Warning.Suspicious_value _ ->
              Ometrics.incr (by_app "detect.suspicious" app)
          | _ -> ())
        warnings;
      let ranked = List.sort Warning.compare_rank warnings in
      if complete then Complete ranked else Partial ranked)

let check ?checks t img = warnings_of (verdict ?checks t img)
