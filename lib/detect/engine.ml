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
   resolved at compile time.  A [String_t] column matches everything,
   so the check skips it. *)
type typed_column = {
  tc_type : Ctype.t;
  tc_type_name : string;
  tc_agreement : float;
  tc_syntactic : string -> bool;
  tc_image_free : bool;  (* the semantic verdict needs no image *)
}

(* A target value against its column's training values. *)
type seen = Unseen | Seen_valid | Seen_invalid

(* One column's training-value statistics: hashed membership with the
   value's precomputed verdict as payload, plus the cardinality the ICF
   score needs.  The verdict is the syntactic one, joined with the
   semantic one when the column's type is image-free; every value is
   valid in a column with no non-trivial type.  Caching it at compile
   time means the check never runs a regex on a training-seen value,
   nor the semantic check of an image-free type. *)
type value_column = {
  vc_seen : (string, seen) Hashtbl.t;
  vc_cardinality : int;
}

(* Everything the checks know about one attribute the model names,
   resolved at compile time, so a target pair costs one probe: whether
   training knew the name, its type and value columns, how a parsed
   entry of it augments, and its rule slot. *)
type entry = {
  id : int;  (* dense, for the per-check first-occurrence marks *)
  known : bool;
  typed : typed_column option;
  values : value_column option;
  augmentation : Augment.typed option;
  slot : int;  (* index into a check's rule values; -1 when no rule names it *)
}

(* What a target pair whose attribute the model never names resolves
   to. *)
let unnamed =
  { id = -1; known = false; typed = None; values = None; augmentation = None;
    slot = -1 }

(* A rule with its slot-A and slot-B indices, its fired counter and
   the warning it raises, which depends on the rule alone. *)
type compiled_rule = {
  rule : Template.rule;
  slot_a : int;
  slot_b : int;
  fired : Ometrics.counter;
  violation : Warning.t;
}

(* The near-miss and suspicious-value counters of one app label. *)
type app_counters = { near_miss : Ometrics.counter; suspicious : Ometrics.counter }

type t = {
  source : model;
  entries : (string, entry) Hashtbl.t;
  n_entries : int;
  n_slots : int;
  (* (attribute, key basename) in training first-appearance order: the
     near-miss scan walks it with a length-difference prune, which
     cannot change the winner (distance >= |length difference|) *)
  near_index : (string * string) array;
  (* rules in learned order: at paper scale there are fewer rules than
     row attributes, so evaluating each rule directly (a rule with an
     empty slot is skipped) beats selecting per-attribute buckets and
     re-sorting them *)
  rules : compiled_rule array;
  by_app : (Encore_sysenv.Image.app * app_counters) list;
  no_app : app_counters;  (* "default": an image without configs *)
}

let model t = t.source

let m_compiles = Ometrics.counter "detect.compiles"

(* Labelled series for the fleet exposition: which rules fire, and how
   often each app trips the name / suspicious-value checks. *)
let rule_fired_counter rule =
  Ometrics.counter
    (Ometrics.labeled "detect.rule_fired"
       [ ("rule", rule.Template.attr_a ^ "->" ^ rule.Template.attr_b) ])

let rule_violation rule =
  {
    Warning.kind = Warning.Correlation_violation rule;
    attrs = [ rule.Template.attr_a; rule.Template.attr_b ];
    message = "correlation violated: " ^ Template.rule_to_string rule;
    score = 0.5 +. (0.5 *. rule.Template.confidence);
  }

let app_counters app =
  let by_app name = Ometrics.counter (Ometrics.labeled name [ ("app", app) ]) in
  { near_miss = by_app "detect.near_miss"; suspicious = by_app "detect.suspicious" }

let typed_column (d : Tinfer.decision) =
  {
    tc_type = d.Tinfer.ctype;
    tc_type_name = Ctype.to_string d.Tinfer.ctype;
    tc_agreement = d.Tinfer.agreement;
    (* String_t columns keep a trivial matcher: the check skips them,
       exactly like the interpreted walk did *)
    tc_syntactic =
      (if Ctype.equal d.Tinfer.ctype Ctype.String_t then fun _ -> true
       else Syntactic.matcher d.Tinfer.ctype);
    tc_image_free = Semantic.image_free d.Tinfer.ctype;
  }

(* precompute each training value's verdict under the column's type,
   so checking a seen value costs one probe *)
let value_column typed values =
  let valid =
    match typed with
    | Some tc when not (Ctype.equal tc.tc_type Ctype.String_t) ->
        if tc.tc_image_free then fun v ->
          tc.tc_syntactic v && Semantic.verify_value tc.tc_type v
        else tc.tc_syntactic
    | Some _ | None -> fun _ -> true
  in
  let vc_seen = Hashtbl.create (2 * List.length values + 1) in
  List.iter
    (fun v -> Hashtbl.replace vc_seen v (if valid v then Seen_valid else Seen_invalid))
    values;
  { vc_seen; vc_cardinality = List.length values }

(* Assoc-list semantics everywhere below: the first binding of a key
   wins, exactly like the List.assoc walks this engine replaces. *)
let add_first tbl key v = if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v

let compile source =
  Otrace.with_span "engine-compile" @@ fun () ->
  Ometrics.incr m_compiles;
  let known = Hashtbl.create (2 * List.length source.known_attrs + 1) in
  List.iter (fun a -> add_first known a ()) source.known_attrs;
  let decisions = Hashtbl.create 256 in
  List.iter (fun (attr, d) -> add_first decisions attr d) source.types;
  let value_lists = Hashtbl.create 256 in
  List.iter (fun (attr, vs) -> add_first value_lists attr vs) source.value_stats;
  let slots = Hashtbl.create 64 in
  let slot_of attr =
    match Hashtbl.find_opt slots attr with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slots in
        Hashtbl.add slots attr s;
        s
  in
  let rules =
    Array.of_list
      (List.map
         (fun (rule : Template.rule) ->
           let slot_a = slot_of rule.Template.attr_a in
           { rule; slot_a; slot_b = slot_of rule.Template.attr_b;
             fired = rule_fired_counter rule; violation = rule_violation rule })
         source.rules)
  in
  let entries = Hashtbl.create 512 in
  let add_entry attr =
    if not (Hashtbl.mem entries attr) then begin
      let decision = Hashtbl.find_opt decisions attr in
      let typed = Option.map typed_column decision in
      Hashtbl.add entries attr
        {
          id = Hashtbl.length entries;
          known = Hashtbl.mem known attr;
          typed;
          values = Option.map (value_column typed) (Hashtbl.find_opt value_lists attr);
          augmentation =
            Option.map (fun (d : Tinfer.decision) -> Augment.typed attr d.Tinfer.ctype)
              decision;
          slot = Option.value ~default:(-1) (Hashtbl.find_opt slots attr);
        }
    end
  in
  List.iter add_entry source.known_attrs;
  List.iter (fun (attr, _) -> add_entry attr) source.types;
  List.iter (fun (attr, _) -> add_entry attr) source.value_stats;
  Array.iter
    (fun cr ->
      add_entry cr.rule.Template.attr_a;
      add_entry cr.rule.Template.attr_b)
    rules;
  {
    source;
    entries;
    n_entries = Hashtbl.length entries;
    n_slots = Hashtbl.length slots;
    near_index =
      Array.of_list
        (List.map
           (fun a -> (a, Encore_confparse.Kv.key_basename a))
           source.known_attrs);
    rules;
    by_app =
      List.map
        (fun app -> (app, app_counters (Encore_sysenv.Image.app_to_string app)))
        Encore_sysenv.Image.all_apps;
    no_app = app_counters "default";
  }

(* --- the target scan ---------------------------------------------------------- *)

(* One target's pairs in row order ({!Assemble.walk_target}), each with
   its resolved entry and a mark on the first pair of each attribute,
   plus every rule slot's values.  Built once per check; the stages
   below read it instead of a [Row.t]. *)
type scan = {
  mutable n : int;
  mutable pair_attr : string array;
  mutable pair_value : string array;
  mutable pair_entry : entry array;
  mutable pair_first : Bytes.t;  (* '\001' on an attribute's first pair *)
  seen : Bytes.t;  (* by entry id: the attribute has had its first pair *)
  mutable unnamed_seen : (string, unit) Hashtbl.t option;
  slot_values : string list array;  (* newest first *)
}

let grow s =
  let cap = 2 * Array.length s.pair_attr in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 s.n;
    b
  in
  s.pair_attr <- extend s.pair_attr "";
  s.pair_value <- extend s.pair_value "";
  s.pair_entry <- extend s.pair_entry unnamed;
  let first = Bytes.make cap '\000' in
  Bytes.blit s.pair_first 0 first 0 s.n;
  s.pair_first <- first

(* Whether this is the attribute's first pair in the target. *)
let first_pair s attr e =
  if e.id >= 0 then
    Bytes.get s.seen e.id = '\000'
    && (Bytes.set s.seen e.id '\001';
        true)
  else
    let tbl =
      match s.unnamed_seen with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 8 in
          s.unnamed_seen <- Some tbl;
          tbl
    in
    (not (Hashtbl.mem tbl attr))
    && (Hashtbl.add tbl attr ();
        true)

let push s attr value e =
  if s.n = Array.length s.pair_attr then grow s;
  let i = s.n in
  s.pair_attr.(i) <- attr;
  s.pair_value.(i) <- value;
  s.pair_entry.(i) <- e;
  if first_pair s attr e then Bytes.set s.pair_first i '\001';
  if e.slot >= 0 then s.slot_values.(e.slot) <- value :: s.slot_values.(e.slot);
  s.n <- i + 1

let resolve t attr =
  match Hashtbl.find t.entries attr with e -> e | exception Not_found -> unnamed

let scan t img =
  let cap = 128 in
  let s =
    {
      n = 0;
      pair_attr = Array.make cap "";
      pair_value = Array.make cap "";
      pair_entry = Array.make cap unnamed;
      pair_first = Bytes.make cap '\000';
      seen = Bytes.make t.n_entries '\000';
      unnamed_seen = None;
      slot_values = Array.make t.n_slots [];
    }
  in
  Assemble.walk_target ~resolve:(resolve t)
    ~augmentation:(fun e -> e.augmentation)
    img (push s);
  s

(* A slot's values in row order. *)
let slot s i =
  match s.slot_values.(i) with ([] | [ _ ]) as vs -> vs | vs -> List.rev vs

(* --- check 1: entry names ----------------------------------------------- *)

(* Only original configuration entries (not augmented, not globals)
   are name-checked.  The known-attribute flag is tested first: almost
   every attribute of a healthy image is known, and the flag is far
   cheaper than the augmentation-suffix scan.  Filter order does not
   change the outcome — both tests must pass for a warning. *)
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
let name_warning t attr e =
  if e.known || not (is_config_attr attr) then None
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
          String.concat ""
            [ "unknown entry '"; attr; "': possible misspelling of '"; n; "'" ]
      | Some _ | None -> "unknown entry '" ^ attr ^ "': never seen in training"
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

(* One rule's verdict on the target: [None] when the rule holds or a
   slot attribute is absent there ([Relation.eval] skips an empty
   instance list). *)
let rule_warning img s cr =
  match
    Relation.eval cr.rule.Template.template.Template.relation img
      ~a:(slot s cr.slot_a) ~b:(slot s cr.slot_b)
  with
  | Some false ->
      Ometrics.incr cr.fired;
      Some cr.violation
  | Some true | None -> None

(* --- checks 3 and 4: data types + suspicious values ----------------------- *)

(* One pair's column verdicts, accumulated onto the two reverse lists:
   the pair's entry serves both the type check and the value check. *)
let column_pair ~types ~values img rev_types rev_values attr value e =
  (* one membership probe serves the value check and, through the
     cached verdict, the type check's syntactic matcher *)
  let cached =
    match e.values with
    | Some vc -> (
        match Hashtbl.find vc.vc_seen value with
        | seen -> seen
        | exception Not_found -> Unseen)
    | None -> Unseen
  in
  (if types then
     match e.typed with
     | Some tc when not (Ctype.equal tc.tc_type Ctype.String_t) ->
         let valid =
           match cached with
           | Seen_valid -> tc.tc_image_free || Semantic.verify img tc.tc_type value
           | Seen_invalid -> false
           | Unseen -> tc.tc_syntactic value && Semantic.verify img tc.tc_type value
         in
         if not valid then
           rev_types :=
             {
               Warning.kind =
                 Warning.Type_violation { attr; expected = tc.tc_type; value };
               attrs = [ attr ];
               message =
                 String.concat ""
                   [ "type violation: "; attr; "='"; value; "' fails ";
                     tc.tc_type_name; " check" ];
               score = 0.4 +. (0.5 *. tc.tc_agreement);
             }
             :: !rev_types
     | Some _ | None -> ());
  if values then
    match e.values with
    | None -> ()
    | Some vc ->
        if cached <> Unseen then ()
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
                String.concat ""
                  [ "suspicious value: "; attr; "='"; value;
                    "' unseen in training ("; string_of_int vc.vc_cardinality;
                    " distinct values seen)" ];
              score = 0.2 +. (0.6 *. icf);
            }
            :: !rev_values

(* --- the check entry point ------------------------------------------------ *)

let m_warn_name = Ometrics.counter "detect.warnings.entry_name"
let m_warn_rule = Ometrics.counter "detect.warnings.correlation"
let m_warn_type = Ometrics.counter "detect.warnings.type"
let m_warn_value = Ometrics.counter "detect.warnings.value"
let m_checks = Ometrics.counter "detect.checks"

(* The app label's counters: the first config's app, "default" for an
   image without configs. *)
let app_counters_of t (img : Encore_sysenv.Image.t) =
  match img.Encore_sysenv.Image.configs with
  | { Encore_sysenv.Image.app; _ } :: _ ->
      Option.value ~default:t.no_app (List.assoc_opt app t.by_app)
  | [] -> t.no_app

(* The one check body.  Each stage walks its units — a target pair for
   the fused type/value walk, an attribute's first pair for names, a
   rule for correlations — and polls [deadline] before each one.
   Expiry keeps every warning the finished units produced and ranks
   them as a [Partial] verdict.  The stage lists are concatenated in
   the order names, rules, types, values before the rank sort, each in
   unit order. *)
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
      let s = Otrace.with_span "assemble-target" (fun () -> scan t img) in
      let rev_names = ref [] and rev_rules = ref [] in
      let rev_types = ref [] and rev_values = ref [] in
      let emit acc = function Some w -> acc := w :: !acc | None -> () in
      let complete =
        match
          if checks.check_types || checks.check_values then
            Otrace.with_span "check-columns" (fun () ->
                for i = 0 to s.n - 1 do
                  poll ();
                  column_pair ~types:checks.check_types
                    ~values:checks.check_values img rev_types rev_values
                    s.pair_attr.(i) s.pair_value.(i) s.pair_entry.(i)
                done);
          if checks.check_names then
            Otrace.with_span "check-names" (fun () ->
                for i = 0 to s.n - 1 do
                  if Bytes.get s.pair_first i = '\001' then begin
                    poll ();
                    emit rev_names (name_warning t s.pair_attr.(i) s.pair_entry.(i))
                  end
                done);
          if checks.check_rules then
            Otrace.with_span "check-rules" (fun () ->
                Array.iter
                  (fun cr ->
                    poll ();
                    emit rev_rules (rule_warning img s cr))
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
      let app = app_counters_of t img in
      List.iter
        (fun (w : Warning.t) ->
          match w.Warning.kind with
          | Warning.Entry_name_violation { nearest = Some _; _ } ->
              (* the near index produced a candidate: a name hit *)
              Ometrics.incr app.near_miss
          | Warning.Suspicious_value _ -> Ometrics.incr app.suspicious
          | _ -> ())
        warnings;
      let ranked = List.sort Warning.compare_rank warnings in
      if complete then Complete ranked else Partial ranked)

let check ?checks t img = warnings_of (verdict ?checks t img)
