module Row = Encore_dataset.Row
module Tinfer = Encore_typing.Infer
module Augment = Encore_dataset.Augment
module Bitcol = Encore_dataset.Bitcol
module Bitset = Bitcol.Bitset

type training = (Encore_sysenv.Image.t * Row.t) list

type params = { min_support_frac : float; min_confidence : float }

let default_params = { min_support_frac = 0.10; min_confidence = 0.90 }

let type_of types attr =
  match Tinfer.find types attr with
  | Some d -> d.Tinfer.ctype
  | None ->
      if Augment.is_augmented attr then Augment.augmented_type attr
      else Encore_typing.Ctype.String_t

(* Equality and boolean-implication templates are how augmented
   environment attributes enter rules; the remaining (path/user/number)
   relations instantiate over configuration entries and image globals
   only — pairing every path with every augmented .owner/.group copy
   would restate the same fact quadratically. *)
let augmented_slots_allowed (template : Template.t) =
  match template.Template.relation with
  | Relation.Eq_all | Relation.Eq_exists | Relation.Bool_implies _ -> true
  | Relation.Subnet | Relation.Concat_path | Relation.Substring
  | Relation.User_in_group | Relation.Not_accessible | Relation.Ownership
  | Relation.Num_less | Relation.Size_less ->
      false

let expand_polarities templates =
  List.concat_map
    (fun t ->
      match t.Template.relation with
      | Relation.Bool_implies _ ->
          List.map
            (fun (pa, pb) ->
              { t with Template.relation = Relation.Bool_implies (pa, pb) })
            [ (true, true); (true, false); (false, true); (false, false) ]
      | _ -> [ t ])
    templates

let min_lift_margin = 0.05

(* One candidate's fate, tallied in candidate order. *)
type verdict =
  | Kept of Template.rule
  | Rejected_support     (* applicable too rarely, or vacuous *)
  | Rejected_confidence  (* confident too rarely, or no lift *)

(* --- candidates ------------------------------------------------------------ *)

(* Per-attribute metadata interned once per inference run: everything
   the pair filters ask per candidate ([Augment.base_attr] allocates a
   fresh string per call — quadratic noise when asked per pair) becomes
   an array lookup. *)
type meta = {
  names : string array;  (* id -> attribute, in interning order *)
  ctypes : Encore_typing.Ctype.t array;
  augmented : bool array;
  bases : string array;  (* Augment.base_attr, precomputed *)
}

let meta_of_names ~types names =
  {
    names;
    ctypes = Array.map (type_of types) names;
    augmented = Array.map Augment.is_augmented names;
    bases = Array.map Augment.base_attr names;
  }

(* Id-based candidate generation over the interned attributes, in
   interning order: every per-pair question is an array access. *)
let instantiations_idx meta template =
  let n = Array.length meta.names in
  let slot_ok i = augmented_slots_allowed template || not meta.augmented.(i) in
  let ea = ref [] and eb = ref [] in
  for i = n - 1 downto 0 do
    if slot_ok i then begin
      if Template.eligible_a template meta.ctypes.(i) then ea := i :: !ea;
      if Template.eligible_b template meta.ctypes.(i) then eb := i :: !eb
    end
  done;
  let canonical_only =
    (* symmetric relations: one orientation suffices; boolean
       implications: the a>b orientation is the contrapositive of an
       a<b rule with flipped polarities, so it is learned iff that one
       is — keep the canonical orientation only *)
    Relation.symmetric template.Template.relation
    ||
    match template.Template.relation with
    | Relation.Bool_implies _ -> true
    | _ -> false
  in
  let same_type = Relation.same_type_required template.Template.relation in
  List.concat_map
    (fun ia ->
      List.filter_map
        (fun ib ->
          if ia = ib then None
          else if canonical_only && meta.names.(ia) > meta.names.(ib) then None
          else if meta.bases.(ia) = meta.bases.(ib) then
            (* an entry and its own augmentation correlate trivially *)
            None
          else if
            same_type
            && not (Encore_typing.Ctype.equal meta.ctypes.(ia) meta.ctypes.(ib))
          then None
          else Some (template, ia, ib))
        !eb)
    !ea

let instantiations ~types template attrs =
  let meta = meta_of_names ~types (Array.of_list attrs) in
  List.map
    (fun (_, ia, ib) -> (meta.names.(ia), meta.names.(ib)))
    (instantiations_idx meta template)

(* --- counts engine -------------------------------------------------------- *)

(* Per-attribute derived bitsets and parse caches over a columnar view,
   built once per training set before candidates fan out.  Every
   structure here is immutable afterwards, so pool worker domains share
   it freely.

   [tru]/[fls] are only built for single-instance Bool-typed columns
   (boolean-implication slots); [numv]/[sizv] for Number-/Size-typed
   ones.  Attributes with multi-instance cells fall back to the generic
   per-row evaluator.  [ante_cnt] and [base_rate] pre-answer the
   vacuity and lift questions per attribute, so per-candidate they cost
   one array read instead of a popcount. *)
type engine = {
  view : Encore_dataset.Colview.t;
  images : Encore_sysenv.Image.t array;
  meta : meta;
  bits : Bitcol.t;
  tru : Bitset.t option array;   (* single value truthy-true, per attr id *)
  fls : Bitset.t option array;   (* single value truthy-false *)
  tany : Bitset.t option array;  (* tru OR fls *)
  ante_cnt : (int * int) option array;      (* (|tru|, |fls|) *)
  base_rate : (float * float) option array; (* consequent base rate, pb=(t,f) *)
  numv : (float array * Bitset.t) option array;  (* parsed Strutil numbers *)
  sizv : (int array * Bitset.t) option array;    (* parsed Strutil sizes *)
}

let build_value_cache bits view a ~zero parse =
  match Bitcol.single_ids bits a with
  | None -> None
  | Some _ ->
      let col = Encore_dataset.Colview.column view a in
      let n = Array.length col in
      let vals = Array.make n zero in
      let ok = Bitset.create n in
      Array.iter
        (fun i ->
          match col.(i) with
          | [ v ] -> (
              match parse v with
              | Some f ->
                  vals.(i) <- f;
                  Bitset.set ok i
              | None -> ())
          | _ -> ())
        (Bitcol.index bits a);
      Some (vals, ok)

let engine_of ~types ~images ~view ~bits =
  let meta =
    meta_of_names ~types (Array.of_list (Encore_dataset.Colview.attrs view))
  in
  let n_attrs = Encore_dataset.Colview.n_attrs view in
  let tru = Array.make n_attrs None
  and fls = Array.make n_attrs None
  and tany = Array.make n_attrs None
  and ante_cnt = Array.make n_attrs None
  and base_rate = Array.make n_attrs None
  and numv = Array.make n_attrs None
  and sizv = Array.make n_attrs None in
  Array.iteri
    (fun a (ctype : Encore_typing.Ctype.t) ->
      match ctype with
      | Encore_typing.Ctype.Bool_t -> (
          match Bitcol.single_ids bits a with
          | None -> ()
          | Some _ ->
              let col = Encore_dataset.Colview.column view a in
              let t = Bitset.create (Bitcol.n_rows bits)
              and f = Bitset.create (Bitcol.n_rows bits) in
              Array.iter
                (fun i ->
                  match col.(i) with
                  | [ v ] -> (
                      match Relation.truthy v with
                      | Some true -> Bitset.set t i
                      | Some false -> Bitset.set f i
                      | None -> ())
                  | _ -> ())
                (Bitcol.index bits a);
              tru.(a) <- Some t;
              fls.(a) <- Some f;
              tany.(a) <- Some (Bitset.union t f);
              let ct = Bitset.count t and cf = Bitset.count f in
              ante_cnt.(a) <- Some (ct, cf);
              let present = Bitset.count (Bitcol.presence bits a) in
              if present > 0 then
                base_rate.(a) <-
                  Some
                    ( float_of_int ct /. float_of_int present,
                      float_of_int cf /. float_of_int present ))
      | Encore_typing.Ctype.Number | Encore_typing.Ctype.Port_number ->
          numv.(a) <-
            build_value_cache bits view a ~zero:0.0
              Encore_util.Strutil.parse_number
      | Encore_typing.Ctype.Size ->
          sizv.(a) <-
            build_value_cache bits view a ~zero:0
              Encore_util.Strutil.parse_size
      | _ -> ())
    meta.ctypes;
  { view; images; meta; bits; tru; fls; tany; ante_cnt; base_rate; numv; sizv }

(* First index position whose row id is >= [x] (the arrays are
   ascending), so tail scans skip the already-counted prefix. *)
let lower_bound arr x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Generic per-row counts over rows [>= from_row], restricted to the
   co-presence intersection: walk the sparser attribute's dense index
   and test membership in the other's presence bitset, so absent rows
   are never touched. *)
let engine_counts_from eng ~from_row (template, ia, ib) =
  let ixa = Bitcol.index eng.bits ia and ixb = Bitcol.index eng.bits ib in
  let sa = lower_bound ixa from_row and sb = lower_bound ixb from_row in
  let la = Array.length ixa - sa and lb = Array.length ixb - sb in
  if la = 0 || lb = 0 then (0, 0)
  else begin
    let ca = Encore_dataset.Colview.column eng.view ia
    and cb = Encore_dataset.Colview.column eng.view ib in
    let pa = Bitcol.presence eng.bits ia
    and pb = Bitcol.presence eng.bits ib in
    let applicable = ref 0 and valid = ref 0 in
    let visit i =
      match
        Relation.eval template.Template.relation eng.images.(i) ~a:ca.(i)
          ~b:cb.(i)
      with
      | None -> ()
      | Some true ->
          incr applicable;
          incr valid
      | Some false -> incr applicable
    in
    if la <= lb then
      for p = sa to Array.length ixa - 1 do
        let i = ixa.(p) in
        if Bitset.mem pb i then visit i
      done
    else
      for p = sb to Array.length ixb - 1 do
        let i = ixb.(p) in
        if Bitset.mem pa i then visit i
      done;
    (!applicable, !valid)
  end

(* (applicable, valid) for one candidate over all rows, via popcounts
   and typed value arrays where the columns allow it, the generic
   evaluator otherwise.  Must agree exactly with per-row
   {!Relation.eval}. *)
let engine_counts eng ((template, ia, ib) as cand) =
  let generic () = engine_counts_from eng ~from_row:0 cand in
  match template.Template.relation with
  | Relation.Eq_all | Relation.Eq_exists -> (
      match (Bitcol.single_ids eng.bits ia, Bitcol.single_ids eng.bits ib) with
      | Some va, Some vb ->
          (* single-instance cells: both equality flavours degenerate to
             one interned-id comparison per co-present row *)
          let pa = Bitcol.presence eng.bits ia
          and pb = Bitcol.presence eng.bits ib in
          ( Bitset.inter_count pa pb,
            Bitset.fold_inter pa pb ~init:0 (fun acc i ->
                if va.(i) = vb.(i) then acc + 1 else acc) )
      | _ -> generic ())
  | Relation.Bool_implies (pa, pb) -> (
      match (eng.tany.(ia), eng.tany.(ib)) with
      | Some ta, Some tb ->
          let applicable = Bitset.inter_count ta tb in
          let ante =
            match (if pa then eng.tru.(ia) else eng.fls.(ia)) with
            | Some s -> s
            | None -> assert false
          and not_cons =
            match (if pb then eng.fls.(ib) else eng.tru.(ib)) with
            | Some s -> s
            | None -> assert false
          in
          (applicable, applicable - Bitset.inter_count ante not_cons)
      | _ -> generic ())
  | Relation.Num_less -> (
      match (eng.numv.(ia), eng.numv.(ib)) with
      | Some (va, oka), Some (vb, okb) ->
          let applicable = Bitset.inter_count oka okb in
          let valid =
            Bitset.fold_inter oka okb ~init:0 (fun acc i ->
                if va.(i) < vb.(i) then acc + 1 else acc)
          in
          (applicable, valid)
      | _ -> generic ())
  | Relation.Size_less -> (
      match (eng.sizv.(ia), eng.sizv.(ib)) with
      | Some (va, oka), Some (vb, okb) ->
          let applicable = Bitset.inter_count oka okb in
          let valid =
            Bitset.fold_inter oka okb ~init:0 (fun acc i ->
                if va.(i) < vb.(i) then acc + 1 else acc)
          in
          (applicable, valid)
      | _ -> generic ())
  | Relation.Subnet | Relation.Concat_path | Relation.Substring
  | Relation.User_in_group | Relation.Not_accessible | Relation.Ownership ->
      generic ()

(* For implication rules, vacuous truth (antecedent never holding) must
   not count as evidence: require the antecedent polarity to actually
   occur in a minimum number of training images. *)
let antecedent_support eng relation ia =
  match relation with
  | Relation.Bool_implies (pa, _) ->
      Some
        (match eng.ante_cnt.(ia) with
         | Some (t, f) -> if pa then t else f
         | None ->
             (* multi-instance boolean column: count per row *)
             let col = Encore_dataset.Colview.column eng.view ia in
             Array.fold_left
               (fun acc i ->
                 if List.exists (fun v -> Relation.truthy v = Some pa) col.(i)
                 then acc + 1
                 else acc)
               0 (Bitcol.index eng.bits ia))
  | _ -> None

(* The consequent's base rate: fraction of images carrying B whose value
   already equals the implied polarity.  An implication whose confidence
   does not beat this base rate carries no information (lift ≈ 1) — the
   dominant source of binomial association noise. *)
let consequent_base_rate eng relation ib =
  match relation with
  | Relation.Bool_implies (_, pb) -> (
      match eng.base_rate.(ib) with
      | Some (t, f) -> Some (if pb then t else f)
      | None ->
          let present = Bitset.count (Bitcol.presence eng.bits ib) in
          if present = 0 then None
          else
            let col = Encore_dataset.Colview.column eng.view ib in
            let matching =
              Array.fold_left
                (fun acc i ->
                  if List.for_all (fun v -> Relation.truthy v = Some pb) col.(i)
                  then acc + 1
                  else acc)
                0 (Bitcol.index eng.bits ib)
            in
            Some (float_of_int matching /. float_of_int present))
  | _ -> None

let vacuous eng ~min_support relation ia =
  match antecedent_support eng relation ia with
  | Some s -> s < min_support
  | None -> false

let engine_verdict eng ~params ~min_support (template, ia, ib) ~applicable
    ~valid =
  let relation = template.Template.relation in
  if vacuous eng ~min_support relation ia || applicable < min_support then
    Rejected_support
  else
    let min_conf =
      Option.value ~default:params.min_confidence template.Template.min_confidence
    in
    let confidence = float_of_int valid /. float_of_int applicable in
    let lifts =
      match consequent_base_rate eng relation ib with
      | Some base -> confidence >= base +. min_lift_margin
      | None -> true
    in
    if confidence >= min_conf && lifts then
      Kept
        { Template.template;
          attr_a = eng.meta.names.(ia);
          attr_b = eng.meta.names.(ib);
          support = applicable; confidence }
    else Rejected_confidence

let sort_rules rules =
  List.sort
    (fun (a : Template.rule) b ->
      match compare b.confidence a.confidence with
      | 0 -> compare b.support a.support
      | c -> c)
    rules

let emit_metrics ~candidates ~rej_support ~rej_confidence ~kept =
  Encore_obs.Metrics.incr ~by:candidates
    (Encore_obs.Metrics.counter "rules.candidates");
  Encore_obs.Metrics.incr ~by:rej_support
    (Encore_obs.Metrics.counter "rules.rejected_support");
  Encore_obs.Metrics.incr ~by:rej_confidence
    (Encore_obs.Metrics.counter "rules.rejected_confidence");
  Encore_obs.Metrics.incr ~by:kept (Encore_obs.Metrics.counter "rules.kept")

let min_support_of ~params n =
  max 2 (int_of_float (ceil (params.min_support_frac *. float_of_int n)))

(* --- the candidate evaluator ---------------------------------------------- *)

(* Keyed by (polarity-expanded template index, attribute a, attribute
   b): names, not column ids, so a table stays valid for a view that
   extends the one it was counted over. *)
type counts = {
  rows : int;
  table : (int * string * string, int * int) Hashtbl.t;
}

(* Shard boundaries depend only on the candidate list, never on the
   pool size, and [Pool.map] returns shards in order. *)
let shard_size = 256

let evaluate ?pool ?prior ~params ~templates ~types ~images ~view ~bits () =
  let eng = engine_of ~types ~images ~view ~bits in
  (* candidates are generated over interned column ids, in the view's
     first-appearance order; counting reads an attribute name only to
     find a candidate's prior counts *)
  let cands =
    Array.of_list
      (List.concat
         (List.mapi
            (fun ti t -> List.map (fun c -> (ti, c)) (instantiations_idx eng.meta t))
            (expand_polarities templates)))
  in
  let key (ti, (_, ia, ib)) = (ti, eng.meta.names.(ia), eng.meta.names.(ib)) in
  (* counts are additive over a row partition: a candidate the prior
     table holds is counted over the rows past it only *)
  let count ((_, c) as cand) =
    match prior with
    | None -> engine_counts eng c
    | Some p -> (
        match Hashtbl.find_opt p.table (key cand) with
        | Some (a0, v0) ->
            let da, dv = engine_counts_from eng ~from_row:p.rows c in
            (a0 + da, v0 + dv)
        | None -> engine_counts eng c)
  in
  let n = Array.length cands in
  let shard lo =
    Array.init (min shard_size (n - lo)) (fun k -> count cands.(lo + k))
  in
  let starts =
    List.init ((n + shard_size - 1) / shard_size) (fun s -> s * shard_size)
  in
  let counted =
    Array.concat
      (match pool with
       | Some p -> Encore_util.Pool.map p shard starts
       | None -> List.map shard starts)
  in
  let min_support = min_support_of ~params (Array.length images) in
  let table = Hashtbl.create ((2 * n) + 1) in
  let kept_rev = ref [] and rej_support = ref 0 and rej_confidence = ref 0 in
  Array.iteri
    (fun i ((_, c) as cand) ->
      let ((applicable, valid) as cnt) = counted.(i) in
      Hashtbl.replace table (key cand) cnt;
      match engine_verdict eng ~params ~min_support c ~applicable ~valid with
      | Kept rule -> kept_rev := rule :: !kept_rev
      | Rejected_support -> incr rej_support
      | Rejected_confidence -> incr rej_confidence)
    cands;
  emit_metrics ~candidates:n ~rej_support:!rej_support
    ~rej_confidence:!rej_confidence ~kept:(List.length !kept_rev);
  ({ rows = Array.length images; table }, sort_rules (List.rev !kept_rev))

let infer ?(params = default_params) ?(templates = Template.predefined) ?pool
    ~types training =
  let view = Encore_dataset.Colview.of_rows (List.map snd training) in
  let images = Array.of_list (List.map fst training) in
  snd
    (evaluate ?pool ~params ~templates ~types ~images ~view
       ~bits:(Bitcol.of_colview view) ())
