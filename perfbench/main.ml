(* The EnCore benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Four workloads drive the system from outside, through the entry
   points the CLI and the serve daemon use:

   - learn-paper  Pipeline.learn_durable (what `encore-cli learn` runs)
                  on the clean mysql study population at paper scale;
   - learn-grow   a resident suffstats learner over a 1k Synthfleet
                  corpus, extended one fresh image at a time through
                  Pipeline.learn_append;
   - check-fleet  Collector.image_of_text decode plus
                  Pipeline.check_fleet over held-out mysql, apache and
                  php images, some carrying ConfErr errors;
   - serve-storm  an in-process daemon (Server.offer/step, responses
                  rendered with Jsonenc.to_string) under one closed-loop
                  client sending mysql watch deltas plus an inline full
                  check every seventh request.

   Every input is generated from --seed during set-up, never inside the
   timed region.  Worker domains follow the CLI default
   (Domain.recommended_domain_count); the GC keeps its default settings.

   With --trace 0 the run measures end-to-end metrics with tracing off.
   With --trace 1 it measures the same phase untraced, then again under
   the in-memory trace sink with bench-side spans around each call into
   a layer (the program's own spans and Metrics counters nest under
   them), and prints per-layer metrics.  Allocation per layer is the
   Gc delta at a bench-side call boundary: a stop-the-world minor
   collection first samples every live domain, and pool domains that
   already exited were folded into the totals, so the count covers all
   domains.

   Outputs are checked in every run; a mismatch sets "correct": false
   and the exit code to 1.  The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Image = Encore_sysenv.Image
module Collector = Encore_sysenv.Collector
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Synthfleet = Encore_workloads.Synthfleet
module Pipeline = Encore.Pipeline
module Config = Encore.Config
module Detector = Encore_detect.Detector
module Engine = Encore_detect.Engine
module Model_io = Encore_detect.Model_io
module Report = Encore_detect.Report
module Assemble = Encore_dataset.Assemble
module Suffstats = Encore_rules.Suffstats
module Server = Encore_serve.Server
module Cache = Encore_serve.Cache
module Proto = Encore_serve.Proto
module Trace = Encore_obs.Trace
module Metrics = Encore_obs.Metrics
module Clock = Encore_obs.Clock
module Json = Encore_obs.Jsonenc
module Prng = Encore_util.Prng
module Pool = Encore_util.Pool
module Res = Encore_util.Resilience

let default_seed = 42

(* --- measurement helpers ------------------------------------------------- *)

let now_ns () = Int64.to_float (Clock.now_ns ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

let sum = List.fold_left ( +. ) 0.0

let mean = function [] -> 0.0 | l -> sum l /. float_of_int (List.length l)

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median = percentile 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Set up [reps] times, [gap] seconds apart, and keep the last state;
   the reported set-up time is the mean.  The host's speed holds one
   state for about a second, so back-to-back set-ups of a few
   milliseconds all read the same state: their median is one draw of
   the host, and two ten-run sets of such medians differed by 32%.
   Spacing the set-ups samples several states, and their mean halves
   the run-to-run spread. *)
let timed_setup ?(gap = 0.0) ~reps f =
  let rec go k acc =
    let r, ns = time f in
    if k <= 1 then (r, mean (ns :: acc) /. 1e9)
    else begin
      if gap > 0.0 then Unix.sleepf gap;
      go (k - 1) (ns :: acc)
    end
  in
  go reps []

(* Run [op] at least [min_ops] times, then while another op of the last
   op's duration still ends within [seconds], until [more ()] turns
   false; returns per-op wall times (ns). *)
let run_for ?(more = fun () -> true) ~seconds ~min_ops op =
  let t0 = now_ns () in
  let lat = ref [] and n = ref 0 and last = ref 0.0 in
  while
    more ()
    && (!n < min_ops
       || now_ns () -. t0 +. !last <= float_of_int seconds *. 1e9)
  do
    let (), ns = time op in
    lat := ns :: !lat;
    last := ns;
    incr n
  done;
  List.rev !lat

(* Words allocated so far by every domain.  The minor collection is
   stop-the-world, so each live domain samples its counters first. *)
let alloc_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let alloc_mw f =
  let w0 = alloc_words () in
  let r = f () in
  (r, (alloc_words () -. w0) /. 1e6)

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let counter name = float_of_int (Metrics.count (Metrics.counter name))

let span = Trace.with_span

(* Run [f] under the in-memory trace sink; returns its result and the
   finished root spans. *)
let traced f =
  Trace.clear ();
  Trace.set_sink Trace.Memory;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_sink Trace.Nil;
      Trace.clear ())
    (fun () ->
      let r = f () in
      (r, Trace.roots ()))

(* Span durations and self times (ns) by span name. *)
module Spans = struct
  type t = (string, (float * float) list ref) Hashtbl.t

  let of_roots roots : t =
    let t = Hashtbl.create 64 in
    List.iter
      (Trace.iter_tree (fun sp ->
           let dur = Int64.to_float sp.Trace.dur_ns in
           let inner =
             List.fold_left
               (fun a c -> a +. Int64.to_float c.Trace.dur_ns)
               0.0 sp.Trace.children
           in
           let cell =
             match Hashtbl.find_opt t sp.Trace.name with
             | Some c -> c
             | None ->
                 let c = ref [] in
                 Hashtbl.add t sp.Trace.name c;
                 c
           in
           cell := (dur, dur -. inner) :: !cell))
      roots;
    t

  let find t name =
    match Hashtbl.find_opt t name with Some c -> List.rev !c | None -> []

  let durs t name = List.map fst (find t name)
  let selfs t name = List.map snd (find t name)
  let count t name = float_of_int (List.length (find t name))
end

(* Spans named [child] directly under each span named [parent]. *)
let children_named roots ~parent ~child =
  let out = ref [] in
  List.iter
    (Trace.iter_tree (fun sp ->
         if sp.Trace.name = parent then
           List.iter
             (fun c -> if c.Trace.name = child then out := (sp, c) :: !out)
             sp.Trace.children))
    roots;
  List.rev !out

let ms ns = ns /. 1e6
let us ns = ns /. 1e3

exception Setup_failed of string

let learner_or_fail = function
  | Ok l -> l
  | Error d -> raise (Setup_failed (Res.diagnostic_to_string d))

(* --- results ------------------------------------------------------------- *)

(* End-to-end metrics, the same names on every workload: what a user
   of the workload's entry point sees. *)
let e2e_metrics =
  [ ("setup_s", "s"); ("peak_heap_mb", "MB"); ("throughput_per_s", "1/s");
    ("op_p50_ms", "ms"); ("op_p90_ms", "ms") ]

let layer_metrics =
  [ ("core.learn_self_ms", "ms"); ("confparse.parse_ms", "ms");
    ("dataset.assemble_ms", "ms"); ("dataset.columnar_ms", "ms");
    ("rules.infer_ms", "ms"); ("rules.filter_ms", "ms");
    ("rules.value_stats_ms", "ms"); ("rules.kept_per_candidate", "ratio");
    ("mining.probe_ms", "ms"); ("mining.probe_runs", "count");
    ("mining.itemsets_per_probe", "count"); ("mining.useful_share", "ratio");
    ("rules.finalize_self_ms", "ms"); ("rules.append_self_ms", "ms");
    ("sysenv.decode_us", "us"); ("dataset.assemble_target_us", "us");
    ("detect.compile_ms", "ms"); ("detect.check_us", "us");
    ("detect.warnings_per_image", "count"); ("pool.tasks", "count");
    ("pool.fleet_speedup", "ratio"); ("serve.parse_us", "us");
    ("serve.step_check_us", "us"); ("serve.step_watch_us", "us");
    ("serve.encode_us", "us"); ("serve.request_overhead_us", "us");
    ("serve.watch_delta_share", "ratio"); ("confparse.alloc_mw", "Mw");
    ("sysenv.alloc_mw", "Mw"); ("dataset.alloc_mw", "Mw");
    ("rules.alloc_mw", "Mw"); ("mining.alloc_mw", "Mw");
    ("detect.alloc_mw", "Mw"); ("serve.alloc_mw", "Mw");
    ("gc.major_collections", "count"); ("obs.trace_overhead_pct", "%") ]

type result = {
  attempted : int;
  failed : int;
  problems : string list;  (** output checks that failed *)
  e2e : (string * float) list;  (** generic end-to-end values *)
  named : (string * float * string * string) list;
      (** the workload's own metric names: name, value, unit, samples *)
  layers : (string * float) list;  (** per-layer values, traced run only *)
}

(* The generic end-to-end set from a workload's per-op wall times (ns),
   each op completing [units] units of work.  Throughput is total work
   over total time: on a host whose speed flips between a fast and a
   slow state many times a second, a mean over the whole run is steadier
   than any median over sub-windows.  The bounded tail is p90: over ten
   runs on such a host p99 spread by 24-27% of its median, p90 by 16%;
   p99 is still printed with the sample counts. *)
let e2e_of ~setup_s ~units lat =
  [ ("setup_s", setup_s); ("peak_heap_mb", peak_heap_mb ());
    ("throughput_per_s",
     ratio (units *. float_of_int (List.length lat)) (sum lat /. 1e9));
    ("op_p50_ms", ms (median lat)); ("op_p90_ms", ms (percentile 0.9 lat));
    ("op_p99_ms", ms (percentile 0.99 lat)) ]

let error_named ~attempted ~failed =
  ( "error_rate",
    ratio (float_of_int failed) (float_of_int attempted),
    "ratio",
    Printf.sprintf "failed %d of %d attempted" failed attempted )

let samples n what = Printf.sprintf "n=%d %s" n what

(* The percentiles of a workload's ops, for the human-readable lines. *)
let op_percentiles e2e ~n what =
  List.map
    (fun name -> (name, List.assoc name e2e, "ms", samples n what))
    [ "op_p50_ms"; "op_p90_ms"; "op_p99_ms" ]

let overhead_pct ~untraced ~traced =
  if untraced = [] || traced = [] then 0.0
  else (mean traced /. mean untraced -. 1.0) *. 100.0

let config_for seed =
  { Config.default with
    Config.seed;
    jobs = Domain.recommended_domain_count () }

(* Rules, types and value statistics, as the model file pins them; the
   mining overflow marker is left out. *)
let model_digest (m : Detector.model) =
  Digest.to_hex
    (Digest.string (Model_io.to_string { m with Detector.overflowed = false }))

(* --- learn-paper ----------------------------------------------------------- *)

let paper_n =
  match List.assoc_opt Image.Mysql Population.paper_training_sizes with
  | Some n -> n
  | None -> 187

(* model digest of learn-paper at the default seed *)
let pinned_paper_digest = "122f823cf94b42a61ce5673ffce8b16d"

(* The same layer calls learn_durable makes, one bench-side call per
   layer, for the per-layer allocation counts. *)
let learn_layer_allocs ~config images =
  Pool.with_pool ~jobs:config.Config.jobs @@ fun pool ->
  let (_ : Encore_confparse.Registry.image_parse list), parse_mw =
    alloc_mw (fun () ->
        span "bench.confparse" (fun () ->
            Pool.map pool Encore_confparse.Registry.parse_image_diag images))
  in
  let assembled, assemble_mw =
    alloc_mw (fun () ->
        span "bench.dataset" (fun () ->
            Assemble.assemble_training ~pool images))
  in
  let rows = Encore_dataset.Table.rows assembled.Assemble.table in
  let training = List.map2 (fun img (_, row) -> (img, row)) images rows in
  let (_ : Detector.model), rules_mw =
    alloc_mw (fun () ->
        span "bench.rules" (fun () ->
            Detector.model_of_training ~params:(Config.rule_params config)
              ~entropy_threshold:config.Config.entropy_threshold ~pool
              ~types:assembled.Assemble.types training))
  in
  let (_ : int * bool), mining_mw =
    alloc_mw (fun () ->
        span "bench.mining" (fun () ->
            let tx, _ =
              Encore_dataset.Discretize.transactions assembled.Assemble.table
            in
            let min_support =
              max 2
                (int_of_float
                   (ceil
                      (config.Config.min_support_frac
                      *. float_of_int (Array.length tx))))
            in
            Encore_mining.Fpgrowth.count_only
              ~max_itemsets:Pipeline.default_mining_cap ~pool ~min_support tx))
  in
  [ ("confparse.alloc_mw", parse_mw); ("dataset.alloc_mw", assemble_mw);
    ("rules.alloc_mw", rules_mw); ("mining.alloc_mw", mining_mw) ]

(* The suffstats path over the same corpus: fold, finalize with the
   mining probe's enumeration bounded to one itemset (so the span holds
   the rules work, not mining), then append held-out images one at a
   time. *)
let suffstats_layers ~config ~seed images =
  let held_out =
    Population.clean (Population.generate ~seed:(seed + 1) Image.Mysql ~n:40)
  in
  let (), roots =
    traced (fun () ->
        let stats = Pipeline.stats_of_images ~config images in
        let learner =
          learner_or_fail (Pipeline.learner_result ~config ~mining_cap:0 stats)
        in
        ignore
          (List.fold_left
             (fun l img -> Pipeline.learn_append ~config l [ img ])
             learner held_out))
  in
  let sp = Spans.of_roots roots in
  [ ("rules.finalize_self_ms",
     match Spans.durs sp "suffstats-finalize" with d :: _ -> ms d | [] -> 0.0);
    ("rules.append_self_ms", ms (median (Spans.durs sp "suffstats-append"))) ]

let learn_paper ~seed ~seconds ~trace =
  let config = config_for seed in
  let images, setup_s =
    timed_setup ~reps:20 ~gap:0.15 (fun () ->
        Population.clean (Population.generate ~seed Image.Mysql ~n:paper_n))
  in
  let n_images = float_of_int (List.length images) in
  let models = ref [] and failed = ref 0 in
  let learn () =
    match
      span "bench.learn" (fun () -> Pipeline.learn_durable ~config images)
    with
    | Ok { Pipeline.model = Some m; _ } -> models := m :: !models
    | Ok { Pipeline.model = None; _ } | Error _ -> incr failed
  in
  let gc0 = major_collections () in
  (* one ~20 s learn per 30 s run.  Two learns per run spread no less
     over ten seeds, and the second learn sometimes grew the peak heap
     from ~105 to ~160 MB. *)
  let lat = run_for ~seconds ~min_ops:1 learn in
  let majors = major_collections () - gc0 in
  let e2e = e2e_of ~setup_s ~units:n_images lat in
  let layers, probe_share =
    if not trace then ([], [])
    else begin
      let kept0 = counter "rules.kept" and cand0 = counter "rules.candidates" in
      let items0 = counter "mining.fpgrowth.itemsets" in
      let tasks0 = counter "pool.tasks" in
      let tlat, roots =
        traced (fun () -> run_for ~seconds:0 ~min_ops:1 learn)
      in
      let ops = float_of_int (List.length tlat) in
      let sp = Spans.of_roots roots in
      let per_op name = ms (sum (Spans.durs sp name)) /. ops in
      let probes = Spans.count sp "mining-probe" in
      let items = counter "mining.fpgrowth.itemsets" -. items0 in
      let per_probe = ratio items probes in
      let cap = float_of_int (Pipeline.default_mining_cap + 1) in
      let kept = counter "rules.kept" -. kept0
      and cands = counter "rules.candidates" -. cand0 in
      let tasks = ratio (counter "pool.tasks" -. tasks0) ops in
      ( [ ("core.learn_self_ms", ms (sum (Spans.selfs sp "learn")) /. ops);
          ("confparse.parse_ms", per_op "parse");
          ("dataset.assemble_ms", per_op "assemble");
          ("dataset.columnar_ms", per_op "columnar");
          ("rules.infer_ms", per_op "rule-infer");
          ("rules.filter_ms", per_op "rule-filter");
          ("rules.value_stats_ms", per_op "value-stats");
          ("rules.kept_per_candidate", ratio kept cands);
          ("mining.probe_ms", per_op "mining-probe");
          ("mining.probe_runs", probes /. ops);
          ("mining.itemsets_per_probe", per_probe);
          ("mining.useful_share",
           if per_probe = 0.0 then 0.0 else Float.min 1.0 (cap /. per_probe));
          ("pool.tasks", tasks);
          ("gc.major_collections", float_of_int majors);
          ("obs.trace_overhead_pct", overhead_pct ~untraced:lat ~traced:tlat) ]
        @ learn_layer_allocs ~config images
        @ suffstats_layers ~config ~seed images,
        [ ("mining_share_of_learn",
           100.0 *. ratio (per_op "mining-probe") (per_op "learn"), "%",
           samples (List.length tlat) "traced learns") ] )
    end
  in
  (* outputs: every learned model matches the probe-free learning entry
     point on the same corpus, and the pinned digest at the default seed *)
  let reference =
    match Pipeline.learn_result ~config images with
    | Ok m -> model_digest m
    | Error d -> "learn_result failed: " ^ Res.diagnostic_to_string d
  in
  let problems =
    List.filter_map
      (fun m ->
        let d = model_digest m in
        if d <> reference then
          Some
            (Printf.sprintf "learned model %s differs from reference %s" d
               reference)
        else None)
      !models
    @
    if seed = default_seed && reference <> pinned_paper_digest then
      [ Printf.sprintf "model digest %s differs from the pinned %s" reference
          pinned_paper_digest ]
    else []
  in
  let attempted = List.length lat + (if trace then 1 else 0) in
  let failed = !failed in
  { attempted; failed; problems; e2e; layers;
    named =
      [ ("learn_images_per_s", List.assoc "throughput_per_s" e2e, "1/s",
         samples (List.length lat)
           (Printf.sprintf "learns of %d images" (List.length images)));
      ]
      @ op_percentiles e2e ~n:(List.length lat) "learns"
      @ [ ("setup_s", setup_s, "s", samples 20 "set-ups 0.15 s apart, mean");
          ("peak_heap_mb", List.assoc "peak_heap_mb" e2e, "MB", "process peak");
          error_named ~attempted ~failed ]
      @ probe_share }

(* --- learn-grow ------------------------------------------------------------ *)

let grow_base = 1000

(* fresh images available to the stream; a run stops early if it uses
   them all *)
let grow_stream = 1000

(* The learner re-runs its mining probe once the corpus has grown 1 %
   past the last probed size; a phase appends at least enough images to
   cross that threshold twice. *)
let grow_min_appends = 2 * (grow_base / 100)

type grow = {
  mutable learner : Suffstats.learner;
  stream : Image.t array;
  mutable next : int;
  mutable appended : Image.t list;  (** newest first *)
}

type append_obs = { a_ns : float; rearm : bool; a_mw : float }

let learn_grow ~seed ~seconds ~trace =
  let config = config_for seed in
  let setup () =
    let all = Synthfleet.generate ~seed ~n:(grow_base + grow_stream) () in
    let corpus = List.filteri (fun i _ -> i < grow_base) all in
    let stream = Array.of_list (List.filteri (fun i _ -> i >= grow_base) all) in
    let stats =
      span "bench.fold" (fun () -> Pipeline.stats_of_images ~config corpus)
    in
    let learner =
      span "bench.finalize" (fun () ->
          learner_or_fail (Pipeline.learner_result ~config stats))
    in
    (corpus, stats, { learner; stream; next = 0; appended = [] })
  in
  let (corpus, stats, g), setup_s = timed_setup ~reps:1 setup in
  let items = Metrics.counter "mining.fpgrowth.itemsets" in
  let phase ~allocs =
    let obs = ref [] in
    let more () = g.next < Array.length g.stream in
    let (_ : float list) =
      run_for ~more ~seconds ~min_ops:grow_min_appends (fun () ->
          let img = g.stream.(g.next) in
          g.next <- g.next + 1;
          let before = Metrics.count items in
          let append () =
            span "bench.append" (fun () ->
                Pipeline.learn_append ~config g.learner [ img ])
          in
          let w0 = if allocs then alloc_words () else 0.0 in
          let learner, a_ns = time append in
          let a_mw = if allocs then (alloc_words () -. w0) /. 1e6 else 0.0 in
          g.learner <- learner;
          g.appended <- img :: g.appended;
          obs := { a_ns; rearm = Metrics.count items > before; a_mw } :: !obs)
    in
    List.rev !obs
  in
  let gc0 = major_collections () in
  let untraced = phase ~allocs:false in
  let majors = major_collections () - gc0 in
  let lat = List.map (fun o -> o.a_ns) untraced in
  let e2e = e2e_of ~setup_s ~units:1.0 lat in
  let layers =
    if not trace then []
    else begin
      let items0 = counter "mining.fpgrowth.itemsets" in
      let tobs, roots = traced (fun () -> phase ~allocs:true) in
      let items_traced = counter "mining.fpgrowth.itemsets" -. items0 in
      (* the program span inside each bench-side append, paired with
         whether that append re-ran the mining probe *)
      let inner =
        List.map
          (fun sp ->
            List.fold_left
              (fun a c -> a +. Int64.to_float c.Trace.dur_ns)
              0.0 sp.Trace.children)
          (List.filter (fun sp -> sp.Trace.name = "bench.append") roots)
      in
      let paired =
        if List.length inner = List.length tobs then List.combine tobs inner
        else []
      in
      let plain = List.filter (fun (o, _) -> not o.rearm) paired
      and rearms = List.filter (fun (o, _) -> o.rearm) paired in
      let append_self = median (List.map snd plain) in
      let probe_ns = mean (List.map (fun (_, d) -> d -. append_self) rearms) in
      let probes = float_of_int (List.length rearms) in
      let per_probe = ratio items_traced probes in
      let cap = float_of_int (Pipeline.default_mining_cap + 1) in
      (* finalize minus mining: the same finalize with the probe's
         enumeration bounded to one itemset *)
      let (_ : Suffstats.learner), capped =
        traced (fun () ->
            learner_or_fail
              (Pipeline.learner_result ~config ~mining_cap:0 stats))
      in
      let finalize_self =
        sum (Spans.durs (Spans.of_roots capped) "suffstats-finalize")
      in
      let rules_mw = mean (List.map (fun (o, _) -> o.a_mw) plain) in
      let rearm_mw = mean (List.map (fun (o, _) -> o.a_mw) rearms) in
      [ ("mining.probe_ms", ms probe_ns);
        ("mining.probe_runs", probes);
        ("mining.itemsets_per_probe", per_probe);
        ("mining.useful_share",
         if per_probe = 0.0 then 0.0 else Float.min 1.0 (cap /. per_probe));
        ("rules.finalize_self_ms", ms finalize_self);
        ("rules.append_self_ms", ms append_self);
        ("rules.alloc_mw", rules_mw);
        ("mining.alloc_mw",
         if rearms = [] then 0.0 else Float.max 0.0 (rearm_mw -. rules_mw));
        ("gc.major_collections", float_of_int majors);
        ("obs.trace_overhead_pct",
         overhead_pct ~untraced:lat ~traced:(List.map (fun o -> o.a_ns) tobs)) ]
    end
  in
  (* outputs: the appended learner equals a batch learn of the grown
     corpus, checked once, outside the timed region *)
  let grown = corpus @ List.rev g.appended in
  let problems =
    let n = Suffstats.n_images (Suffstats.stats g.learner) in
    (if n <> List.length grown then
       [ Printf.sprintf "learner holds %d images, expected %d" n
           (List.length grown) ]
     else [])
    @
    match Pipeline.learn_result ~config grown with
    | Error d -> [ "batch learn failed: " ^ Res.diagnostic_to_string d ]
    | Ok batch ->
        let a = model_digest (Pipeline.model_of_learner g.learner)
        and b = model_digest batch in
        if a <> b then
          [ Printf.sprintf "appended model %s differs from batch learn %s" a b ]
        else []
  in
  let attempted = List.length g.appended in
  let rearms = List.length (List.filter (fun o -> o.rearm) untraced) in
  { attempted; failed = 0; problems; e2e; layers;
    named =
      [ ("append_images_per_s", List.assoc "throughput_per_s" e2e, "1/s",
         samples (List.length lat)
           (Printf.sprintf "appends, %d re-ran the mining probe" rearms));
        ("append_p50_ms", List.assoc "op_p50_ms" e2e, "ms",
         samples (List.length lat) "appends");
      ]
      @ op_percentiles e2e ~n:(List.length lat) "appends"
      @ [ ("setup_s", setup_s, "s", samples 1 "set-up (fold + finalize)");
          ("peak_heap_mb", List.assoc "peak_heap_mb" e2e, "MB", "process peak");
          error_named ~attempted ~failed:0 ] }

(* --- check-fleet ----------------------------------------------------------- *)

let fleet_apps = [ Image.Mysql; Image.Apache; Image.Php ]

(* targets per app: a pass over 900 images takes ~0.2 s, long enough
   that a GC pause or a short stall of the host is a small part of it,
   so the pass-time percentiles follow the host's speed rather than
   single hiccups *)
let fleet_targets = 300

type fleet = { model : Detector.model; dumps : string list }

let fleet_setup ~config ~seed =
  List.map
    (fun app ->
      let n =
        match List.assoc_opt app Population.paper_training_sizes with
        | Some n -> n
        | None -> 100
      in
      let training = Population.clean (Population.generate ~seed app ~n) in
      let model = learner_or_fail (Pipeline.learn_result ~config training) in
      let rng = Prng.create (seed + 4099) in
      let targets =
        List.mapi
          (fun i img ->
            if i mod 3 = 0 then
              (Encore_inject.Conferr.inject rng app img ~n:1)
                .Encore_inject.Conferr.image
            else img)
          (Population.images
             (Population.generate ~seed:(seed + 7919) app ~n:fleet_targets))
      in
      { model; dumps = List.map Collector.image_to_text targets })
    fleet_apps

type pass = {
  reports : Pipeline.fleet_report list;
  unchecked : int;
  decode_mw : float;
  check_mw : float;
}

let fleet_pass ~config ~allocs fleets =
  let measure f = if allocs then alloc_mw f else (f (), 0.0) in
  let per_app =
    List.map
      (fun f ->
        let images, decode_mw =
          measure (fun () ->
              List.filter_map
                (fun d ->
                  span "bench.decode" (fun () ->
                      Result.to_option (Collector.image_of_text d)))
                f.dumps)
        in
        let report, check_mw =
          measure (fun () ->
              span "bench.check-fleet" (fun () ->
                  Pipeline.check_fleet ~config f.model images))
        in
        ( report,
          List.length f.dumps - report.Pipeline.fleet_checked,
          decode_mw,
          check_mw ))
      fleets
  in
  { reports = List.map (fun (r, _, _, _) -> r) per_app;
    unchecked = List.fold_left (fun a (_, u, _, _) -> a + u) 0 per_app;
    decode_mw = List.fold_left (fun a (_, _, d, _) -> a +. d) 0.0 per_app;
    check_mw = List.fold_left (fun a (_, _, _, c) -> a +. c) 0.0 per_app }

let report_lines (r : Pipeline.fleet_report) =
  List.map Pipeline.fleet_image_line r.Pipeline.fleet_images

type phase = {
  lat : float list;
  first : pass option;
  last : pass option;
  unchecked_total : int;
}

(* Passes for [seconds]; only the first and the last reports are kept,
   so the benchmark's own memory does not grow with the run. *)
let fleet_phase ~config ~seconds fleets =
  let first = ref None and last = ref None and unchecked = ref 0 in
  let lat =
    run_for ~seconds ~min_ops:1 (fun () ->
        let p = fleet_pass ~config ~allocs:false fleets in
        (match !first with None -> first := Some p | Some _ -> ());
        last := Some p;
        unchecked := !unchecked + p.unchecked)
  in
  { lat; first = !first; last = !last; unchecked_total = !unchecked }

let check_fleet ~seed ~seconds ~trace =
  let config = config_for seed in
  let fleets, setup_s =
    timed_setup ~reps:8 ~gap:0.15 (fun () -> fleet_setup ~config ~seed)
  in
  let per_pass = List.fold_left (fun a f -> a + List.length f.dumps) 0 fleets in
  let gc0 = major_collections () in
  let measured = fleet_phase ~config ~seconds fleets in
  let lat = measured.lat in
  let majors = major_collections () - gc0 in
  let e2e = e2e_of ~setup_s ~units:(float_of_int per_pass) lat in
  let unchecked = measured.unchecked_total in
  let layers =
    if not trace then []
    else begin
      let tasks0 = counter "pool.tasks" in
      let tphase, roots =
        traced (fun () -> fleet_phase ~config ~seconds fleets)
      in
      (* allocation in its own untraced pass: the sampling collections
         stay out of the traced timings *)
      let alloc_pass = fleet_pass ~config ~allocs:true fleets in
      let npass = float_of_int (List.length tphase.lat) in
      let sp = Spans.of_roots roots in
      let sequential =
        fleet_phase
          ~config:{ config with Config.jobs = 1 }
          ~seconds:(max 1 (seconds / 2))
          fleets
      in
      let warnings, checked =
        List.fold_left
          (fun (w, c) r ->
            (w + r.Pipeline.fleet_warning_count, c + r.Pipeline.fleet_checked))
          (0, 0)
          (match measured.last with Some p -> p.reports | None -> [])
      in
      [ ("sysenv.decode_us", us (median (Spans.durs sp "bench.decode")));
        ("dataset.assemble_target_us",
         us (median (Spans.durs sp "assemble-target")));
        ("detect.compile_ms", ms (mean (Spans.durs sp "engine-compile")));
        ("detect.check_us", us (median (Spans.durs sp "check")));
        ("detect.warnings_per_image",
         ratio (float_of_int warnings) (float_of_int checked));
        ("pool.tasks", ratio (counter "pool.tasks" -. tasks0) npass);
        ("pool.fleet_speedup", ratio (median sequential.lat) (median lat));
        ("sysenv.alloc_mw", alloc_pass.decode_mw);
        ("detect.alloc_mw", alloc_pass.check_mw);
        ("gc.major_collections", float_of_int majors);
        ("obs.trace_overhead_pct",
         overhead_pct ~untraced:lat ~traced:tphase.lat) ]
    end
  in
  (* outputs: the first and last pass each equal a jobs=1 check *)
  let problems =
    let sequential =
      List.map
        (fun f ->
          let images =
            List.filter_map
              (fun d -> Result.to_option (Collector.image_of_text d))
              f.dumps
          in
          report_lines
            (Pipeline.check_fleet
               ~config:{ config with Config.jobs = 1 }
               f.model images))
        fleets
    in
    let against label p =
      if List.map report_lines p.reports <> sequential then
        [ label ^ " fleet report differs from the jobs=1 report" ]
      else []
    in
    match (measured.first, measured.last) with
    | Some first, Some last -> against "first" first @ against "last" last
    | _ -> [ "no pass completed" ]
  in
  let attempted = per_pass * List.length lat in
  { attempted; failed = unchecked; problems; e2e; layers;
    named =
      [ ("check_images_per_s", List.assoc "throughput_per_s" e2e, "1/s",
         samples (List.length lat)
           (Printf.sprintf "passes of %d images (mysql, apache, php)"
              per_pass));
      ]
      @ op_percentiles e2e ~n:(List.length lat) "passes"
      @ [ ("setup_s", setup_s, "s", samples 8 "set-ups 0.15 s apart, mean");
          ("peak_heap_mb", List.assoc "peak_heap_mb" e2e, "MB", "process peak");
          error_named ~attempted ~failed:unchecked ] }

(* --- serve-storm ----------------------------------------------------------- *)

let serve_targets = 48

(* distinct request lines, whole cycles of 7 x serve_targets (each image
   gets a check and six watches per cycle); the storm repeats them *)
let storm_lines = 6 * 7 * serve_targets

type request = {
  line : string;
  is_check : bool;
  image : Image.t;  (** what the daemon should check: the oracle's input *)
  dump : string;  (** the inline dump, check requests only *)
}

let json_line fields = Json.to_string (Json.Obj fields)

let serve_setup ~config ~seed =
  let training =
    Population.clean (Population.generate ~seed Image.Mysql ~n:paper_n)
  in
  let model = learner_or_fail (Pipeline.learn_result ~config training) in
  let srv = Server.create (Cache.create ~provider:(fun ~app:_ -> Ok model)) in
  let targets =
    Array.init serve_targets (fun k ->
        Population.generator_for Image.Mysql Profile.ec2
          (Prng.create ((seed * 1009) + k))
          ~id:(Printf.sprintf "serve-%03d" k))
  in
  let config_text img =
    match Image.config_for img Image.Mysql with
    | Some cf -> cf.Image.text
    | None -> ""
  in
  let check_request ~id img =
    let dump = Collector.image_to_text img in
    { line =
        json_line
          [ ("op", Json.Str "check"); ("id", Json.Str id);
            ("image", Json.Str dump) ];
      is_check = true; image = img; dump }
  in
  (* every watched image is opened with a check before its first watch *)
  Array.iteri
    (fun k img ->
      let r = check_request ~id:(Printf.sprintf "open-%d" k) img in
      match Server.offer srv r.line with
      | [] -> ignore (Server.step srv)
      | _ -> raise (Setup_failed "opening check was not queued"))
    targets;
  let rng = Prng.create (seed + 77) in
  let state = Array.copy targets in
  (* a ConfErr mutation of the current config that the daemon's
     integrity gate accepts; the environment stays the target's *)
  let mutate k =
    let rec draw tries =
      let c = Encore_inject.Conferr.inject rng Image.Mysql state.(k) ~n:1 in
      let text = config_text c.Encore_inject.Conferr.image in
      if Res.scan_text ~subject:"config" text = [] then Some text
      else if tries = 0 then None
      else draw (tries - 1)
    in
    match draw 8 with
    | Some text -> state.(k) <- Image.set_config targets.(k) Image.Mysql text
    | None -> ()
  in
  let requests =
    Array.init storm_lines (fun i ->
        let k = i mod serve_targets in
        let id = Printf.sprintf "r%05d" i in
        if i mod 7 = 0 then begin
          (* a full check re-baselines the image: the next watches
             mutate its clean config again, so drift stays bounded *)
          let r = check_request ~id state.(k) in
          state.(k) <- targets.(k);
          r
        end
        else begin
          mutate k;
          { line =
              json_line
                [ ("op", Json.Str "watch"); ("id", Json.Str id);
                  ("image", Json.Str targets.(k).Image.image_id);
                  ("app", Json.Str "mysql");
                  ("config", Json.Str (config_text state.(k))) ];
            is_check = false; image = state.(k); dump = "" }
        end)
  in
  (model, srv, requests)

type served = { s_ns : float; s_check : bool; s_mw : float }

let serve_storm ~seed ~seconds ~trace =
  let config = config_for seed in
  let (model, srv, requests), setup_s =
    timed_setup ~reps:3 (fun () -> serve_setup ~config ~seed)
  in
  (* the oracle: a full compiled check of each request's image *)
  let engine = Engine.compile model in
  let expected =
    Array.map
      (fun r ->
        Json.to_string
          (Json.Arr
             (List.map Report.warning_json (Engine.check engine r.image))))
      requests
  in
  let failed = ref 0 and mismatched = ref 0 and sent = ref 0 in
  let verify i rs =
    match rs with
    | [ (Json.Obj fields as resp) ] -> (
        match (List.assoc_opt "ok" fields, Json.member "items" resp) with
        | Some (Json.Bool true), Some items ->
            if Json.to_string items <> expected.(i) then incr mismatched
        | _ -> incr failed)
    | _ -> incr failed
  in
  let storm ~allocs ~seconds =
    let t0 = now_ns () in
    let out = ref [] in
    while now_ns () -. t0 < seconds *. 1e9 do
      let i = !sent mod Array.length requests in
      let r = requests.(i) in
      let w0 = if allocs then alloc_words () else 0.0 in
      let ts = now_ns () in
      let rs =
        span "bench.request" (fun () ->
            match Server.offer srv r.line with [] -> Server.step srv | rs -> rs)
      in
      let (_ : string list) =
        span "bench.encode" (fun () -> List.map Json.to_string rs)
      in
      let s_ns = now_ns () -. ts in
      let s_mw = if allocs then (alloc_words () -. w0) /. 1e6 else 0.0 in
      out := { s_ns; s_check = r.is_check; s_mw } :: !out;
      verify i rs;
      incr sent
    done;
    List.rev !out
  in
  (* warm-up: the daemon's caches and heap settle before timing *)
  let (_ : served list) = storm ~allocs:false ~seconds:1.0 in
  let delta0 = counter "serve.watch_delta"
  and full0 = counter "serve.watch_full" in
  let gc0 = major_collections () in
  let served = storm ~allocs:false ~seconds:(float_of_int seconds) in
  let majors = major_collections () - gc0 in
  let delta = counter "serve.watch_delta" -. delta0
  and full = counter "serve.watch_full" -. full0 in
  let lat = List.map (fun s -> s.s_ns) served in
  let of_class c =
    List.map (fun s -> s.s_ns) (List.filter (fun s -> s.s_check = c) served)
  in
  let checks = of_class true and watches = of_class false in
  let e2e = e2e_of ~setup_s ~units:1.0 lat in
  let layers =
    if not trace then []
    else begin
      let tserved, roots =
        traced (fun () -> storm ~allocs:false ~seconds:(float_of_int seconds))
      in
      (* allocation in its own untraced storm: the sampling collections
         stay out of the traced timings *)
      let alloc_served = storm ~allocs:true ~seconds:1.0 in
      let sp = Spans.of_roots roots in
      let pairs =
        children_named roots ~parent:"bench.request" ~child:"serve-request"
      in
      let self_of c =
        Int64.to_float c.Trace.dur_ns
        -. List.fold_left
             (fun a x -> a +. Int64.to_float x.Trace.dur_ns)
             0.0 c.Trace.children
      in
      let step_self op =
        List.filter_map
          (fun (_, c) ->
            if List.assoc_opt "op" c.Trace.attrs = Some (Json.Str op) then
              Some (self_of c)
            else None)
          pairs
      in
      let overhead =
        List.map
          (fun (b, c) ->
            Int64.to_float b.Trace.dur_ns -. Int64.to_float c.Trace.dur_ns)
          pairs
      in
      (* layer calls the daemon makes internally, repeated bench-side on
         the same request lines *)
      let replayed = min (List.length tserved) (Array.length requests) in
      let (), rroots =
        traced (fun () ->
            for i = 0 to replayed - 1 do
              let r = requests.(i) in
              ignore (span "bench.proto-parse" (fun () -> Proto.parse r.line));
              if r.is_check then
                ignore
                  (span "bench.decode" (fun () ->
                       Collector.image_of_text r.dump))
            done)
      in
      let rsp = Spans.of_roots rroots in
      [ ("serve.parse_us", us (median (Spans.durs rsp "bench.proto-parse")));
        ("sysenv.decode_us", us (median (Spans.durs rsp "bench.decode")));
        ("serve.step_check_us", us (median (step_self "check")));
        ("serve.step_watch_us", us (median (step_self "watch")));
        ("serve.encode_us", us (median (Spans.durs sp "bench.encode")));
        ("serve.request_overhead_us", us (median overhead));
        ("serve.watch_delta_share", ratio delta (delta +. full));
        ("serve.alloc_mw", mean (List.map (fun s -> s.s_mw) alloc_served));
        ("detect.check_us", us (median (Spans.durs sp "check")));
        ("dataset.assemble_target_us",
         us (median (Spans.durs sp "assemble-target")));
        ("gc.major_collections", float_of_int majors);
        ("obs.trace_overhead_pct",
         overhead_pct ~untraced:lat
           ~traced:(List.map (fun s -> s.s_ns) tserved)) ]
    end
  in
  Server.request_shutdown srv;
  ignore (Server.drain_flush srv);
  let problems =
    if !mismatched > 0 then
      [ Printf.sprintf "%d verdict(s) differ from a full Engine.check"
          !mismatched ]
    else []
  in
  let attempted = !sent and failed = !failed in
  let pct q l = us (percentile q l) in
  { attempted; failed; problems; e2e; layers;
    named =
      [ ("serve_requests_per_s", List.assoc "throughput_per_s" e2e, "1/s",
         samples (List.length lat) "requests, one closed-loop client");
      ]
      @ op_percentiles e2e ~n:(List.length lat) "requests"
      @ [ ("serve_check_p50_us", pct 0.5 checks, "us",
           samples (List.length checks) "checks");
          ("serve_check_p99_us", pct 0.99 checks, "us",
           samples (List.length checks) "checks");
          ("serve_watch_p50_us", pct 0.5 watches, "us",
           samples (List.length watches) "watches");
          ("serve_watch_p99_us", pct 0.99 watches, "us",
           samples (List.length watches) "watches");
          ("setup_s", setup_s, "s", samples 3 "set-ups, mean");
          ("peak_heap_mb", List.assoc "peak_heap_mb" e2e, "MB", "process peak");
          error_named ~attempted ~failed ] }

(* --- check-fleet, traced with the serve layers -------------------------------- *)

(* serve-storm runs but is not declared in BENCHMARK.json: its one
   closed-loop client reads the host's drifting speed, and its
   end-to-end figures spread past their bound.  So check-fleet's traced
   run also runs a traced serve storm, a sixth as long, reports its
   serve.* layers and keeps its output checks. *)
let check_fleet_and_serve ~seed ~seconds ~trace =
  let r = check_fleet ~seed ~seconds ~trace in
  if not trace then r
  else
    let s = serve_storm ~seed ~seconds:(max 1 (seconds / 6)) ~trace in
    let serve_layers =
      List.filter (fun (n, _) -> String.starts_with ~prefix:"serve." n) s.layers
    in
    { r with
      attempted = r.attempted + s.attempted;
      failed = r.failed + s.failed;
      problems = r.problems @ s.problems;
      layers = r.layers @ serve_layers;
      named =
        r.named
        @ [ ("serve_requests", float_of_int s.attempted, "count",
             Printf.sprintf "traced serve storm for the serve.* layers, %d failed"
               s.failed) ] }

(* --- command line ---------------------------------------------------------- *)

let workloads =
  [ ("learn-paper", learn_paper); ("learn-grow", learn_grow);
    ("check-fleet", check_fleet_and_serve);
    ("serve-storm", serve_storm) ]

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct r metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v)
             unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct r.attempted r.failed body

let usage () =
  prerr_endline
    ("usage: main.exe --workload {"
    ^ String.concat "|" (List.map fst workloads)
    ^ "} [--seed N] [--seconds S] [--trace 0|1]");
  exit 2

let () =
  let rec parse acc = function
    | flag :: v :: rest
      when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((flag, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let int_opt flag default =
    match List.assoc_opt flag opts with
    | None -> default
    | Some v -> (
        match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let name =
    match List.assoc_opt "--workload" opts with Some w -> w | None -> usage ()
  in
  let run =
    match List.assoc_opt name workloads with Some f -> f | None -> usage ()
  in
  let seed = int_opt "--seed" default_seed in
  let seconds = max 1 (int_opt "--seconds" 10) in
  let trace = int_opt "--trace" 0 <> 0 in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d jobs=%d ocaml=%s\n%!"
    name seed seconds (Bool.to_int trace)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  match run ~seed ~seconds ~trace with
  | exception Setup_failed msg ->
      prerr_endline ("perfbench: set-up failed: " ^ msg);
      exit 1
  | r ->
      List.iter
        (fun (n, v, unit, s) ->
          Printf.printf "  %-26s %14.6g %-5s (%s)\n" n v unit s)
        r.named;
      let pick values names =
        List.map
          (fun (n, unit) ->
            (n, Option.value (List.assoc_opt n values) ~default:0.0, unit))
          names
      in
      let metrics =
        if trace then pick r.layers layer_metrics else pick r.e2e e2e_metrics
      in
      if trace then
        List.iter
          (fun (n, v, unit) -> Printf.printf "  %-30s %14.6g %s\n" n v unit)
          metrics;
      List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) r.problems;
      let correct = r.problems = [] in
      print_endline (result_json ~correct r metrics);
      exit (if correct then 0 else 1)

