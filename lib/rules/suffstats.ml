module Image = Encore_sysenv.Image
module Collector = Encore_sysenv.Collector
module Row = Encore_dataset.Row
module Colview = Encore_dataset.Colview
module Bitcol = Encore_dataset.Bitcol
module Bitset = Bitcol.Bitset
module Assemble = Encore_dataset.Assemble
module Augment = Encore_dataset.Augment
module Tinfer = Encore_typing.Infer
module Ctype = Encore_typing.Ctype
module Rinfer = Infer
module Stats = Encore_util.Stats
module Csvio = Encore_util.Csvio
module Otrace = Encore_obs.Trace
module Ometrics = Encore_obs.Metrics
module Smap = Map.Make (String)

(* --- the mergeable core --------------------------------------------------- *)

(* Enum refinement needs the exact distinct-value set only while it can
   still be small enough to promote (enum_max_cardinality = 4); one
   extra slot detects "too many" exactly, and past that the set is
   discarded ([overflow]) — the absorbing state keeps [merge]
   associative without unbounded storage. *)
let distinct_cap = 5

type colstat = {
  tally : Tinfer.tally;
  samples : int;
  distinct : string list;  (* exact, first-occurrence order; [] once overflowed *)
  overflow : bool;
}

let empty_col = { tally = Tinfer.tally_empty; samples = 0; distinct = []; overflow = false }

type t = {
  n : int;
  images_rev : (Image.t * Row.t) list;  (* (image, raw parsed row), newest first *)
  raw_order_rev : string list;          (* raw attr first-appearance order, reversed *)
  raw : colstat Smap.t;
  glob_order_rev : string list;
  glob : colstat Smap.t;                (* per global attr: one sample per image *)
}

let empty =
  { n = 0; images_rev = []; raw_order_rev = []; raw = Smap.empty;
    glob_order_rev = []; glob = Smap.empty }

let n_images t = t.n
let images t = List.rev_map fst t.images_rev

let colstat_add_value cs v =
  if cs.overflow then cs
  else if List.mem v cs.distinct then cs
  else if List.length cs.distinct >= distinct_cap then
    { cs with distinct = []; overflow = true }
  else { cs with distinct = cs.distinct @ [ v ] }

let add_parsed t img row =
  let raw_order_rev = ref t.raw_order_rev and raw = ref t.raw in
  List.iter
    (fun (attr, v) ->
      let cs =
        match Smap.find_opt attr !raw with
        | Some cs -> cs
        | None ->
            raw_order_rev := attr :: !raw_order_rev;
            empty_col
      in
      let cs =
        { cs with tally = Tinfer.tally_add cs.tally img v;
          samples = cs.samples + 1 }
      in
      raw := Smap.add attr (colstat_add_value cs v) !raw)
    (Row.to_list row);
  (* the global branch of [Assemble.assemble_training] samples each
     image-global attribute once per image, first instance *)
  let glob_order_rev = ref t.glob_order_rev and glob = ref t.glob in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (attr, v) ->
      if not (Hashtbl.mem seen attr) then begin
        Hashtbl.add seen attr ();
        let cs =
          match Smap.find_opt attr !glob with
          | Some cs -> cs
          | None ->
              glob_order_rev := attr :: !glob_order_rev;
              empty_col
        in
        glob :=
          Smap.add attr
            { cs with tally = Tinfer.tally_add cs.tally img v;
              samples = cs.samples + 1 }
            !glob
      end)
    (Augment.globals img);
  { n = t.n + 1;
    images_rev = (img, row) :: t.images_rev;
    raw_order_rev = !raw_order_rev; raw = !raw;
    glob_order_rev = !glob_order_rev; glob = !glob }

let add_image t img = add_parsed t img (Assemble.parse_only img)

let colstat_merge a b =
  let distinct, overflow =
    if a.overflow || b.overflow then ([], true)
    else
      let u =
        a.distinct
        @ List.filter (fun v -> not (List.mem v a.distinct)) b.distinct
      in
      if List.length u > distinct_cap then ([], true) else (u, false)
  in
  { tally = Tinfer.tally_merge a.tally b.tally;
    samples = a.samples + b.samples; distinct; overflow }

(* first-occurrence order of the concatenated streams: left order, then
   the right's unseen attrs in their own order *)
let merge_order a_rev b_rev =
  let seen = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace seen x ()) a_rev;
  let extra = List.filter (fun x -> not (Hashtbl.mem seen x)) (List.rev b_rev) in
  List.rev_append extra a_rev

let merge a b =
  let union = Smap.union (fun _ ca cb -> Some (colstat_merge ca cb)) in
  { n = a.n + b.n;
    images_rev = b.images_rev @ a.images_rev;
    raw_order_rev = merge_order a.raw_order_rev b.raw_order_rev;
    raw = union a.raw b.raw;
    glob_order_rev = merge_order a.glob_order_rev b.glob_order_rev;
    glob = union a.glob b.glob }

let pmap pool f xs =
  match pool with Some p -> Encore_util.Pool.map p f xs | None -> List.map f xs

let of_images ?pool ?(shards = 1) images =
  if shards <= 1 || images = [] then List.fold_left add_image empty images
  else begin
    let arr = Array.of_list images in
    let n = Array.length arr in
    let k = min shards n in
    let bounds = List.init k (fun s -> (s * n / k, (s + 1) * n / k)) in
    let learn_chunk (lo, hi) =
      let acc = ref empty in
      for i = lo to hi - 1 do
        acc := add_image !acc arr.(i)
      done;
      !acc
    in
    (* order-preserving reduction: shard results merge left to right,
       so the outcome is the single-shard fold exactly *)
    List.fold_left merge empty (pmap pool learn_chunk bounds)
  end

(* --- finalize: the batch model from the statistics ------------------------ *)

type finalized = {
  f_types : Tinfer.env;
  f_rules : Template.rule list;
  f_value_stats : (string * string list) list;
  f_known_attrs : string list;
  f_training_count : int;
}

(* [Tinfer.infer] over the raw rows, from the tallies: same decision
   rule, same column order, no re-verification of any sample. *)
let config_types t =
  List.map
    (fun attr ->
      let cs = Smap.find attr t.raw in
      let d = Tinfer.decide ~samples:cs.samples ?hint:(Tinfer.hint_of attr) cs.tally in
      let d =
        Tinfer.refine_enum
          ~distinct:(if cs.overflow then None else Some cs.distinct)
          d
      in
      (attr, d))
    (List.rev t.raw_order_rev)

(* the augmented/global half of [Assemble.assemble_training]'s type
   environment, in the assembled table's column order *)
let aug_types t ~cfg_types view bits =
  List.filter_map
    (fun col ->
      if Tinfer.find cfg_types col <> None then None
      else if Augment.is_augmented col then begin
        let support =
          match Colview.id view col with
          | Some a -> Bitset.count (Bitcol.presence bits a)
          | None -> 0
        in
        Some
          ( col,
            { Tinfer.ctype = Augment.augmented_type col;
              agreement = 1.0; samples = support } )
      end
      else
        let cs =
          match Smap.find_opt col t.glob with Some cs -> cs | None -> empty_col
        in
        Some (col, Tinfer.decide ~samples:cs.samples cs.tally))
    (Colview.attrs view)

(* distinct values per attribute over the reverse instance stream — the
   order [Detector.model_of_training]'s hashtable walk produces.  [prev]
   holds the statistics of the view's first [from_row] rows, whose
   attributes are a prefix of the view's in the same order: their part
   of the stream trails the newer rows' part, so their values follow
   the newer rows' distinct values, and a column the newer rows leave
   empty keeps its list.  Appending one image to a large corpus then
   scans one row, not the corpus. *)
let value_stats_of ~from_row ~prev view =
  let prev = ref prev in
  List.mapi
    (fun a attr ->
      let old =
        match !prev with
        | (_, d) :: rest ->
            prev := rest;
            d
        | [] -> []
      in
      let col = Colview.column view a in
      let fresh = ref [] in
      for i = from_row to Array.length col - 1 do
        fresh := List.rev_append col.(i) !fresh
      done;
      match (!fresh, old) with
      | [], _ -> (attr, old)
      | fresh, [] -> (attr, Stats.distinct fresh)
      | fresh, _ ->
          let d = Stats.distinct fresh in
          let seen = Hashtbl.create 8 in
          List.iter (fun v -> Hashtbl.replace seen v ()) d;
          (attr, d @ List.filter (fun v -> not (Hashtbl.mem seen v)) old))
    (Colview.attrs view)

(* --- the resident learner ------------------------------------------------- *)

type learner = {
  stats : t;
  params : Rinfer.params;
  templates : Template.t list;
  etemplates : Template.t list;  (* polarity-expanded, cached *)
  entropy_threshold : float option;
  (* derived caches, all consistent with [stats] *)
  env : Tinfer.env;
  raw_ctypes : (string * Ctype.t) list;
  training : (Image.t * Row.t) list;  (* augmented rows, corpus order *)
  ctxs : Relation.ctx array;
  view : Colview.t;
  bits : Bitcol.t;
  counts : (int * string * string, int * int) Hashtbl.t;
  result : finalized;
}

let stats l = l.stats
let current l = l.result

let shard_list n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let indexed_candidates ~etemplates engine =
  List.concat
    (List.mapi
       (fun ti tmpl ->
         List.map (fun c -> (ti, c)) (Rinfer.engine_instantiations engine tmpl))
       etemplates)

let m_filtered_redundant = Ometrics.counter "rules.filtered_redundant"
let m_filtered_entropy = Ometrics.counter "rules.filtered_entropy"

(* Candidate verdicts from the cached counts, then the detector's
   filter chain — the exact sequence of [Rinfer.infer] +
   [Detector.model_of_training], fed from integers instead of row
   scans. *)
let finalize_from ~params ~entropy_threshold ~n ~training ~view engine cands
    counts =
  let min_support = Rinfer.min_support_of ~params n in
  let kept_rev = ref [] and rej_support = ref 0 and rej_confidence = ref 0 in
  List.iter
    (fun (ti, ((_, ia, ib) as c)) ->
      let applicable, valid =
        match
          Hashtbl.find_opt counts
            (ti, Rinfer.engine_attr engine ia, Rinfer.engine_attr engine ib)
        with
        | Some c -> c
        | None -> assert false (* counts is built over this candidate list *)
      in
      match
        Rinfer.engine_verdict engine ~params ~min_support c ~applicable ~valid
      with
      | Rinfer.Kept rule -> kept_rev := rule :: !kept_rev
      | Rinfer.Rejected_support -> incr rej_support
      | Rinfer.Rejected_confidence -> incr rej_confidence)
    cands;
  Rinfer.emit_metrics
    ~candidates:(List.length cands)
    ~rej_support:!rej_support ~rej_confidence:!rej_confidence
    ~kept:(List.length !kept_rev);
  let inferred = Rinfer.sort_rules (List.rev !kept_rev) in
  let reduced = Filters.reduce_redundant inferred in
  Ometrics.incr
    ~by:(List.length inferred - List.length reduced)
    m_filtered_redundant;
  let kept, dropped =
    Filters.entropy_filter ?threshold:entropy_threshold ~view training reduced
  in
  Ometrics.incr ~by:(List.length dropped) m_filtered_entropy;
  kept

let capture_counts ?pool engine cands =
  let eval (ti, ((_, ia, ib) as c)) =
    ( (ti, Rinfer.engine_attr engine ia, Rinfer.engine_attr engine ib),
      Rinfer.engine_counts engine c )
  in
  let shards = shard_list 256 cands in
  let results = List.concat (pmap pool (List.map eval) shards) in
  let tbl = Hashtbl.create (2 * List.length results + 1) in
  List.iter (fun (key, cnt) -> Hashtbl.replace tbl key cnt) results;
  tbl

let build ?pool ~params ~templates ~etemplates ~entropy_threshold stats =
  Otrace.with_span "suffstats-finalize" @@ fun () ->
  let parsed = List.rev stats.images_rev in
  let cfg_types = config_types stats in
  let training =
    pmap pool
      (fun (img, raw) -> (img, Assemble.augment_row ~types:cfg_types img raw))
      parsed
  in
  let rows = List.map snd training in
  let view = Colview.of_rows rows in
  let bits = Bitcol.of_colview view in
  let ctxs =
    Array.of_list
      (List.map (fun (image, row) -> { Relation.image; row }) training)
  in
  let env = cfg_types @ aug_types stats ~cfg_types view bits in
  let engine = Rinfer.engine_of ~types:env ~ctxs ~view ~bits in
  let cands = indexed_candidates ~etemplates engine in
  let counts = capture_counts ?pool engine cands in
  let rules =
    finalize_from ~params ~entropy_threshold ~n:stats.n ~training ~view engine
      cands counts
  in
  {
    stats; params; templates; etemplates; entropy_threshold; env;
    raw_ctypes = List.map (fun (a, d) -> (a, d.Tinfer.ctype)) cfg_types;
    training; ctxs; view; bits; counts;
    result =
      {
        f_types = env;
        f_rules = rules;
        f_value_stats = value_stats_of ~from_row:0 ~prev:[] view;
        f_known_attrs = Colview.attrs view;
        f_training_count = stats.n;
      };
  }

let learner_of ?pool ?(params = Rinfer.default_params)
    ?(templates = Template.predefined) ?entropy_threshold stats =
  build ?pool ~params ~templates
    ~etemplates:(Rinfer.expand_polarities templates)
    ~entropy_threshold stats

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let append ?pool learner images =
  if images = [] then learner
  else begin
    let stats' = List.fold_left add_image learner.stats images in
    let cfg_types' = config_types stats' in
    let stable =
      List.for_all
        (fun (attr, ct) ->
          match Tinfer.find cfg_types' attr with
          | Some d -> Ctype.equal d.Tinfer.ctype ct
          | None -> false)
        learner.raw_ctypes
    in
    if not stable then
      (* a type decision moved: cached augmented rows no longer match
         what a batch run over the grown corpus would assemble *)
      build ?pool ~params:learner.params ~templates:learner.templates
        ~etemplates:learner.etemplates
        ~entropy_threshold:learner.entropy_threshold stats'
    else begin
      Otrace.with_span "suffstats-append" @@ fun () ->
      let old_n = Array.length learner.ctxs in
      let new_parsed = List.rev (take (List.length images) stats'.images_rev) in
      let new_training =
        List.map
          (fun (img, raw) ->
            (img, Assemble.augment_row ~types:cfg_types' img raw))
          new_parsed
      in
      let view =
        Colview.append_rows learner.view (List.map snd new_training)
      in
      let bits = Bitcol.append learner.bits view in
      let ctxs =
        Array.append learner.ctxs
          (Array.of_list
             (List.map
                (fun (image, row) -> { Relation.image; row })
                new_training))
      in
      let training = learner.training @ new_training in
      let env = cfg_types' @ aug_types stats' ~cfg_types:cfg_types' view bits in
      let engine = Rinfer.engine_of ~types:env ~ctxs ~view ~bits in
      let cands = indexed_candidates ~etemplates:learner.etemplates engine in
      let counts = Hashtbl.create (2 * List.length cands + 1) in
      List.iter
        (fun (ti, ((_, ia, ib) as c)) ->
          let key =
            (ti, Rinfer.engine_attr engine ia, Rinfer.engine_attr engine ib)
          in
          let cnt =
            match Hashtbl.find_opt learner.counts key with
            | Some (a0, v0) ->
                let da, dv = Rinfer.engine_counts_from engine ~from_row:old_n c in
                (a0 + da, v0 + dv)
            | None ->
                (* newly eligible pair (fresh attribute or a non-raw
                   type decision moved): count it over the full corpus *)
                Rinfer.engine_counts engine c
          in
          Hashtbl.replace counts key cnt)
        cands;
      let rules =
        finalize_from ~params:learner.params
          ~entropy_threshold:learner.entropy_threshold ~n:stats'.n ~training
          ~view engine cands counts
      in
      {
        learner with
        stats = stats';
        env;
        raw_ctypes = List.map (fun (a, d) -> (a, d.Tinfer.ctype)) cfg_types';
        training; ctxs; view; bits; counts;
        result =
          {
            f_types = env;
            f_rules = rules;
            f_value_stats =
              value_stats_of ~from_row:old_n
                ~prev:learner.result.f_value_stats view;
            f_known_attrs = Colview.attrs view;
            f_training_count = stats'.n;
          };
      }
    end
  end

(* --- versioned payload ---------------------------------------------------- *)

let payload_schema = "ENCORE-SUFFSTATS 1"

(* One record per line.  Fields go through [String.escaped] before CSV
   quoting so no field can smuggle a newline past the line-based
   reader (attribute names and values come from arbitrary config
   text). *)
let emit_record buf fields =
  Buffer.add_string buf (Csvio.row_to_string (List.map String.escaped fields));
  Buffer.add_char buf '\n'

let unescape s =
  try Scanf.sscanf ("\"" ^ s ^ "\"") "%S%!" Fun.id with _ -> s

let emit_colstat buf tag attr cs =
  emit_record buf
    [ tag; attr; string_of_int cs.samples; (if cs.overflow then "1" else "0") ];
  List.iter
    (fun (ct, c) ->
      emit_record buf [ "t"; Ctype.to_string ct; string_of_int c ])
    cs.tally;
  List.iter (fun v -> emit_record buf [ "d"; v ]) cs.distinct

let to_payload t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf "images %d\n" t.n);
  List.iter
    (fun (img, _) ->
      let dump = Collector.image_to_text img in
      Buffer.add_string buf (Printf.sprintf "@image %d\n" (String.length dump));
      Buffer.add_string buf dump;
      Buffer.add_char buf '\n')
    (List.rev t.images_rev);
  Buffer.add_string buf "@stats\n";
  List.iter
    (fun attr -> emit_colstat buf "raw" attr (Smap.find attr t.raw))
    (List.rev t.raw_order_rev);
  List.iter
    (fun attr -> emit_colstat buf "glob" attr (Smap.find attr t.glob))
    (List.rev t.glob_order_rev);
  Buffer.contents buf

type cursor = { text : string; mutable pos : int }

let next_line cur =
  if cur.pos >= String.length cur.text then None
  else
    let j =
      match String.index_from_opt cur.text cur.pos '\n' with
      | Some j -> j
      | None -> String.length cur.text
    in
    let line = String.sub cur.text cur.pos (j - cur.pos) in
    cur.pos <- min (String.length cur.text) (j + 1);
    Some line

let of_payload text =
  let ( let* ) = Result.bind in
  let cur = { text; pos = 0 } in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* n =
    match next_line cur with
    | Some line -> (
        match String.split_on_char ' ' line with
        | [ "images"; n ] -> (
            match int_of_string_opt n with
            | Some n when n >= 0 -> Ok n
            | _ -> fail "bad image count %S" n)
        | _ -> fail "expected image count, got %S" line)
    | None -> fail "empty payload"
  in
  let rec read_images k acc =
    if k = 0 then Ok (List.rev acc)
    else
      match next_line cur with
      | Some line when Encore_util.Strutil.starts_with ~prefix:"@image " line
        -> (
          let len_s = String.sub line 7 (String.length line - 7) in
          match int_of_string_opt len_s with
          | Some len
            when len >= 0 && cur.pos + len <= String.length cur.text -> (
              let dump = String.sub cur.text cur.pos len in
              cur.pos <- cur.pos + len;
              (* the separating newline after the dump *)
              (match next_line cur with _ -> ());
              match Collector.image_of_text dump with
              | Ok img -> read_images (k - 1) (img :: acc)
              | Error e -> fail "image %d: %s" (n - k + 1) e)
          | _ -> fail "bad image frame %S" line)
      | Some line -> fail "expected @image, got %S" line
      | None -> fail "truncated image list"
  in
  let* imgs = read_images n [] in
  let* () =
    match next_line cur with
    | Some "@stats" -> Ok ()
    | Some line -> fail "expected @stats, got %S" line
    | None -> fail "missing @stats section"
  in
  (* column records: a raw/glob header line followed by its tally and
     distinct lines *)
  let rec read_cols acc_raw order_raw acc_glob order_glob cur_col =
    let flush () =
      match cur_col with
      | None -> (acc_raw, order_raw, acc_glob, order_glob)
      | Some (`Raw, attr, cs) ->
          (Smap.add attr cs acc_raw, attr :: order_raw, acc_glob, order_glob)
      | Some (`Glob, attr, cs) ->
          (acc_raw, order_raw, Smap.add attr cs acc_glob, attr :: order_glob)
    in
    match next_line cur with
    | None ->
        let acc_raw, order_raw, acc_glob, order_glob = flush () in
        Ok (acc_raw, order_raw, acc_glob, order_glob)
    | Some "" ->
        read_cols acc_raw order_raw acc_glob order_glob cur_col
    | Some line -> (
        match List.map (List.map unescape) (Csvio.parse line) with
        | [ [ tag; attr; samples; overflow ] ]
          when tag = "raw" || tag = "glob" -> (
            match (int_of_string_opt samples, overflow) with
            | Some samples, ("0" | "1") ->
                let acc_raw, order_raw, acc_glob, order_glob = flush () in
                let cs =
                  { empty_col with samples; overflow = overflow = "1" }
                in
                let side = if tag = "raw" then `Raw else `Glob in
                read_cols acc_raw order_raw acc_glob order_glob
                  (Some (side, attr, cs))
            | _ -> fail "bad column header %S" line)
        | [ [ "t"; ct; c ] ] -> (
            match (cur_col, Ctype.of_string ct, int_of_string_opt c) with
            | Some (side, attr, cs), Some ct, Some c ->
                read_cols acc_raw order_raw acc_glob order_glob
                  (Some (side, attr, { cs with tally = cs.tally @ [ (ct, c) ] }))
            | _ -> fail "bad tally line %S" line)
        | [ [ "d"; v ] ] -> (
            match cur_col with
            | Some (side, attr, cs) ->
                read_cols acc_raw order_raw acc_glob order_glob
                  (Some (side, attr, { cs with distinct = cs.distinct @ [ v ] }))
            | None -> fail "distinct line outside a column %S" line)
        | _ -> fail "unrecognized stats line %S" line)
  in
  let* raw, raw_order_rev, glob, glob_order_rev =
    read_cols Smap.empty [] Smap.empty [] None
  in
  (* raw rows re-derive from the images: parsing is deterministic, so
     the restored value equals the one that was saved *)
  let images_rev =
    List.rev_map (fun img -> (img, Assemble.parse_only img)) imgs
  in
  Ok { n; images_rev; raw_order_rev; raw; glob_order_rev; glob }
