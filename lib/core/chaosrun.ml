module Prng = Encore_util.Prng
module Res = Encore_util.Resilience
module Image = Encore_sysenv.Image
module Fault = Encore_inject.Fault
module Chaos = Encore_inject.Chaos
module Conferr = Encore_inject.Conferr
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Report = Encore_detect.Report
module Warning = Encore_detect.Warning

type outcome = {
  population : int;
  victims : string list;
  report : Pipeline.ingest_report;
  quarantine_exact : bool;
  telemetry_consistent : bool;
  telemetry_notes : string list;
  injected : int;
  clean_detected : int;
  chaos_detected : int;
  notes : string list;
}

(* Every diagnostic the resilient path counts into
   [ingest_report.histogram] is also emitted as one [diag] event, and
   every probe retry as one [retry] event.  Capture the event log of
   the learning run and check both tallies reconcile exactly — the
   telemetry layer must not drop or double-count anything. *)
let reconcile_telemetry (summary : Encore_obs.Summary.t)
    (report : Pipeline.ingest_report) =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  List.iter
    (fun (kind, expected) ->
      let key = Encore_util.Resilience.kind_to_string kind in
      let got =
        Option.value ~default:0
          (List.assoc_opt key summary.Encore_obs.Summary.diag_kinds)
      in
      if got <> expected then
        note "diag events for %s: %d logged, %d in histogram" key got expected)
    report.Pipeline.histogram;
  List.iter
    (fun (key, _) ->
      if
        not
          (List.exists
             (fun (kind, _) -> Encore_util.Resilience.kind_to_string kind = key)
             report.Pipeline.histogram)
      then note "diag events of unknown kind %s" key)
    summary.Encore_obs.Summary.diag_kinds;
  let retry_events =
    Option.value ~default:0
      (List.assoc_opt "retry" summary.Encore_obs.Summary.event_kinds)
  in
  if retry_events <> report.Pipeline.retried then
    note "retry events: %d logged, %d in report" retry_events
      report.Pipeline.retried;
  (!notes = [], List.rev !notes)

(* Same detection criterion as the Table 8/10 experiments: a strong
   warning naming the faulted attribute. *)
let injection_detected ~config warnings (inj : Fault.injection) =
  let strong =
    List.filter
      (fun w -> w.Warning.score >= config.Config.detection_score)
      warnings
  in
  let base = Encore_confparse.Kv.key_basename inj.Fault.target_attr in
  let needles =
    match inj.Fault.fault with
    | Fault.Config_fault Fault.Key_typo ->
        [ Encore_confparse.Kv.key_basename inj.Fault.after; base ]
    | _ -> [ base ]
  in
  List.exists (fun needle -> Report.rank_of_attr strong needle <> None) needles

let count_detected ~config warnings injections =
  List.length (List.filter (injection_detected ~config warnings) injections)

let run ?(config = Config.default) ?(n = 50) ?(fraction = 0.3) ?faults
    ?max_retries ?(app = Image.Mysql) ~seed () =
  let profile = { Profile.ec2 with Profile.latent_error_rate = 0.0 } in
  let images =
    Population.images (Population.generate ~profile ~seed app ~n)
  in
  let rng = Prng.create (seed + 31) in
  let stormed = Chaos.storm ~fraction ?faults ~rng images in
  let victims =
    List.map (fun (v : Chaos.victim) -> v.Chaos.image_id) stormed.Chaos.victims
  in
  (* Capture the learning run's event log for reconciliation, then
     replay it into whatever sink the caller had installed (e.g. a
     --trace file), so capturing is invisible from the outside. *)
  let outer_sink = Encore_obs.Events.sink () in
  let captured = Buffer.create 4096 in
  Encore_obs.Events.set_sink (Encore_obs.Events.Buffer captured);
  let learned =
    Fun.protect
      ~finally:(fun () ->
        Encore_obs.Events.set_sink outer_sink;
        List.iter
          (fun line -> if line <> "" then Encore_obs.Events.write_line line)
          (String.split_on_char '\n' (Buffer.contents captured)))
      (fun () ->
        Pipeline.learn_resilient ~config ?max_retries
          ~mode:Pipeline.Keep_going stormed.Chaos.images)
  in
  match learned with
  | Error d -> Error d
  | Ok (chaos_model, report) ->
      let telemetry_consistent, telemetry_notes =
        reconcile_telemetry
          (Encore_obs.Summary.of_lines
             (String.split_on_char '\n' (Buffer.contents captured)))
          report
      in
      let clean_model = Pipeline.learn ~config images in
      let quarantine_exact =
        let ids = List.map fst report.Pipeline.quarantined in
        List.sort_uniq compare ids = List.sort_uniq compare victims
      in
      (* held-out clean target, ConfErr-injected *)
      let target_rng = Prng.create (seed + 7777) in
      let target =
        Population.generator_for app Profile.ec2 target_rng
          ~id:("chaos-target-" ^ Image.app_to_string app)
      in
      let campaign = Conferr.inject target_rng app target ~n:10 in
      let injections = campaign.Conferr.injections in
      let clean_detected =
        count_detected ~config
          (Pipeline.check ~config clean_model campaign.Conferr.image)
          injections
      in
      let degraded =
        Pipeline.check_degraded ~config ~report chaos_model
          campaign.Conferr.image
      in
      let chaos_detected =
        count_detected ~config degraded.Pipeline.result injections
      in
      Ok
        {
          population = List.length images;
          victims;
          report;
          quarantine_exact;
          telemetry_consistent;
          telemetry_notes;
          injected = List.length injections;
          clean_detected;
          chaos_detected;
          notes = degraded.Pipeline.notes;
        }

(* --- durability drill ------------------------------------------------------ *)

module Model_io = Encore_detect.Model_io

type durability_outcome = {
  truncate_detected : bool;
  bitflip_detected : bool;
  rollback_ok : bool;
  durability_notes : string list;
}

let durability ?(config = Config.default) ?(n = 12) ?(fraction = 0.25)
    ?(app = Image.Mysql) ~dir ~seed () =
  let profile = { Profile.ec2 with Profile.latent_error_rate = 0.0 } in
  let images = Population.images (Population.generate ~profile ~seed app ~n) in
  let rng = Prng.create (seed + 31) in
  (* the stored model is learned from a stormed population, as a
     degraded run would learn it *)
  let stormed = Chaos.storm ~fraction ~rng images in
  let images = stormed.Chaos.images in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := !notes @ [ s ]) fmt in
  match Pipeline.learn_durable ~config images with
  | Error d -> Error d
  | Ok { Pipeline.model = None; _ } ->
      Error
        (Res.diag Res.Timed_out ~subject:"durability drill"
           "reference run timed out without a deadline")
  | Ok { Pipeline.model = Some reference; _ } ->
      let reference_text = Model_io.to_string reference in
      (* snapshot store: torn write detected, rollback to the last
         good snapshot; bitflip at rest detected *)
      let store =
        Model_io.Store.create ~keep:3 ~dir:(Filename.concat dir "store") ()
      in
      let _first = Model_io.Store.save store reference in
      let head = Model_io.Store.save store reference in
      let frng = Prng.create (seed + 97) in
      Chaos.truncate_file ~rng:frng head;
      let truncate_detected =
        match Model_io.load head with
        | Error _ -> true
        | Ok _ ->
            note "torn snapshot %s loaded as valid" head;
            false
      in
      let rollback_ok =
        match Model_io.Store.load_latest store with
        | Ok (m, path) ->
            let ok = path <> head && Model_io.to_string m = reference_text in
            if not ok then note "store rollback returned the torn head";
            ok
        | Error e ->
            note "store failed to roll back: %s"
              (Model_io.load_error_to_string e);
            false
      in
      let flipped = Model_io.Store.save store reference in
      Chaos.bitflip_file ~rng:frng flipped;
      let bitflip_detected =
        match Model_io.load flipped with
        | Error _ -> true
        | Ok _ ->
            note "bit-flipped snapshot %s loaded as valid" flipped;
            false
      in
      Ok
        {
          truncate_detected;
          bitflip_detected;
          rollback_ok;
          durability_notes = !notes;
        }

let durability_outcome_to_string o =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "torn snapshot detected: %s\n"
       (if o.truncate_detected then "yes" else "NO"));
  Buffer.add_string buf
    (Printf.sprintf "bit-flip detected: %s\n"
       (if o.bitflip_detected then "yes" else "NO"));
  Buffer.add_string buf
    (Printf.sprintf "store rollback to last good snapshot: %s\n"
       (if o.rollback_ok then "ok" else "FAILED"));
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n))
    o.durability_notes;
  Buffer.contents buf

(* --- serve storm ----------------------------------------------------------- *)

module Serve_server = Encore_serve.Server
module Serve_cache = Encore_serve.Cache
module Serve_proto = Encore_serve.Proto
module Json = Encore_obs.Jsonenc
module Collector = Encore_sysenv.Collector
module Engine = Encore_detect.Engine

type serve_outcome = {
  serve_requests : int;
  serve_malformed : int;
  serve_oversized : int;
  serve_crash_ops : int;
  serve_queued : int;
  serve_answered : int;
  serve_shed : int;
  serve_restarts : int;
  serve_ring_dropped : int;
  serve_all_answered : bool;
  serve_ring_bound_ok : bool;
  serve_drained : bool;
  serve_watch_verified : int;
  serve_watch_identical : bool;
  serve_metrics_served : int;
  serve_metrics_valid : bool;
  serve_rule_counters_seen : bool;
  serve_health_served : int;
  serve_health_degraded_seen : bool;
  serve_health_final : string;
  serve_traced : bool;
  serve_exit : int;
  serve_notes : string list;
}

(* Shallow validity check over a Prometheus exposition body: every line
   is a [# TYPE] header or a sample whose last token is a number, and
   all three instrument kinds appear.  Catches a garbled exposition
   without re-implementing a full parser. *)
let prom_valid body =
  let kinds = Hashtbl.create 4 in
  body <> String.empty
  && List.for_all
       (fun line ->
         line = ""
         ||
         if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
           (match String.rindex_opt line ' ' with
           | Some sp ->
               Hashtbl.replace kinds
                 (String.sub line (sp + 1) (String.length line - sp - 1))
                 ()
           | None -> ());
           true
         end
         else
           match String.rindex_opt line ' ' with
           | None -> false
           | Some sp ->
               let v =
                 String.sub line (sp + 1) (String.length line - sp - 1)
               in
               v = "+Inf" || v = "-Inf" || v = "NaN"
               || float_of_string_opt v <> None)
       (String.split_on_char '\n' body)
  && Hashtbl.mem kinds "counter"
  && Hashtbl.mem kinds "gauge"
  && Hashtbl.mem kinds "histogram"

let string_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let serve_storm ?(config = Config.default) ?(requests = 10_000) ?(n = 16)
    ?(app = Image.Mysql) ~seed () =
  let profile = { Profile.ec2 with Profile.latent_error_rate = 0.0 } in
  let images = Population.images (Population.generate ~profile ~seed app ~n) in
  let model = Pipeline.learn ~config images in
  (* independent compile of the same model: the oracle every watch
     verdict is compared with *)
  let reference = Engine.compile model in
  let cache = Serve_cache.create ~provider:(fun ~app:_ -> Ok model) in
  let sconfig =
    {
      Serve_server.default_config with
      Serve_server.queue_capacity = 32;
      ring_capacity = 64;
      max_request_bytes = 1 lsl 18;
    }
  in
  let server = Serve_server.create ~config:sconfig cache in
  let rng = Prng.create (seed + 4242) in
  let arr = Array.of_list images in
  let npop = Array.length arr in
  let dumps = Array.map Collector.image_to_text arr in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let originals = Hashtbl.create 32 in
  (* the server keeps sessions from the parsed dump, and the dump
     round-trip canonicalizes the environment (implied primary groups
     etc.) — the verification shadow must mirror the parsed image, not
     the pre-serialization one, or reference checks drift *)
  Array.iteri
    (fun k (img : Image.t) ->
      let canonical =
        match Collector.image_of_text dumps.(k) with
        | Ok restored -> restored
        | Error _ -> img
      in
      Hashtbl.replace originals img.Image.image_id canonical)
    arr;
  (* mirror of the server's session images, advanced only by ok
     responses, in response order — the base for reference checks *)
  let shadow : (string, Image.t) Hashtbl.t = Hashtbl.create 32 in
  let pending :
      (string, [ `Check of Image.t | `Watch of string * Image.app * string ])
      Hashtbl.t =
    Hashtbl.create 256
  in
  let queued = ref 0 and stepped = ref 0 in
  let malformed = ref 0 and oversized = ref 0 and crashes = ref 0 in
  let watch_verified = ref 0 and watch_mismatch = ref 0 in
  let ring_max = ref 0 in
  let bye_seen = ref false in
  let metrics_served = ref 0 and metrics_valid = ref true in
  let rule_counters_seen = ref false in
  let health_served = ref 0 and health_nonok_seen = ref false in
  let last_health = ref "" in
  let traced = ref true in
  let handle_response j =
    (match
       Option.bind
         (Option.bind (Json.member "ring" j) (Json.member "length"))
         Json.to_int_opt
     with
    | Some len -> ring_max := max !ring_max len
    | None -> ());
    (match Json.member "op" j with
    | Some (Json.Str "bye") -> bye_seen := true
    | _ -> ());
    let ok =
      match Json.member "ok" j with Some (Json.Bool b) -> b | _ -> false
    in
    (* telemetry contract: check/watch responses must carry the trace
       id assigned at admission; metrics/health must stay serviceable
       (breaker-bypassing) and structurally sound under the storm *)
    (match Json.member "op" j with
    | Some (Json.Str ("check" | "watch")) ->
        if Json.member "trace" j = None && !traced then begin
          traced := false;
          note "check/watch response without a trace id"
        end
    | Some (Json.Str "metrics") when ok ->
        incr metrics_served;
        (match Json.member "body" j with
        | Some (Json.Str body) ->
            if not (prom_valid body) && !metrics_valid then begin
              metrics_valid := false;
              note "metrics body is not valid Prometheus text"
            end;
            if string_contains body "detect_rule_fired" then
              rule_counters_seen := true
        | _ ->
            if !metrics_valid then begin
              metrics_valid := false;
              note "metrics response without a body"
            end)
    | Some (Json.Str "health") when ok -> (
        incr health_served;
        match
          Option.bind (Json.member "health" j) Json.to_string_opt
        with
        | Some verdict ->
            last_health := verdict;
            if verdict <> "ok" then health_nonok_seen := true
        | None ->
            if !metrics_valid then begin
              metrics_valid := false;
              note "health response without a verdict"
            end)
    | _ -> ());
    match Option.bind (Json.member "id" j) Json.to_string_opt with
    | None -> ()
    | Some id -> (
        match Hashtbl.find_opt pending id with
        | None -> ()
        | Some action -> (
            Hashtbl.remove pending id;
            if ok then
              match action with
              | `Check img ->
                  (* a fresh check replaces the session with the
                     parsed dump — mirror exactly that image *)
                  Hashtbl.replace shadow img.Image.image_id img
              | `Watch (iid, wapp, cfg) -> (
                  match Hashtbl.find_opt shadow iid with
                  | None ->
                      (* unverifiable: an id-corrupted mangled request
                         reset this image at an unknown position *)
                      ()
                  | Some img ->
                      let img' = Image.set_config img wapp cfg in
                      Hashtbl.replace shadow iid img';
                      incr watch_verified;
                      let expect =
                        Json.to_string
                          (Json.Arr
                             (List.map Report.warning_json
                                (Engine.check reference img')))
                      in
                      let got =
                        match Json.member "items" j with
                        | Some items -> Json.to_string items
                        | None -> ""
                      in
                      if got <> expect then begin
                        incr watch_mismatch;
                        note "watch %s: verdict diverged from an \
                              independent full check" iid
                      end)))
  in
  let offer line =
    match Serve_server.offer server line with
    | [] -> incr queued
    | resps -> List.iter handle_response resps
  in
  let step () =
    match Serve_server.step server with
    | [] -> ()
    | resps ->
        stepped := !stepped + List.length resps;
        List.iter handle_response resps
  in
  let req_id i = Printf.sprintf "r%06d" i in
  let mk_check i k =
    Hashtbl.replace pending (req_id i)
      (`Check (Hashtbl.find originals arr.(k).Image.image_id));
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "check");
           ("id", Json.Str (req_id i));
           ("image", Json.Str dumps.(k));
         ])
  in
  let mk_watch i =
    let ids = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) shadow []) in
    match ids with
    | [] -> None
    | ids ->
        let iid = List.nth ids (Prng.int rng (List.length ids)) in
        let img = Hashtbl.find shadow iid in
        (* a realistic drift: ConfErr-mutate the current config, ship
           the new text *)
        let campaign = Conferr.inject rng app img ~n:1 in
        let cfg =
          match Image.config_for campaign.Conferr.image app with
          | Some c -> c.Image.text
          | None -> ""
        in
        Hashtbl.replace pending (req_id i) (`Watch (iid, app, cfg));
        Some
          (Json.to_string
             (Json.Obj
                [
                  ("op", Json.Str "watch");
                  ("id", Json.Str (req_id i));
                  ("image", Json.Str iid);
                  ("app", Json.Str (Image.app_to_string app));
                  ("config", Json.Str cfg);
                ]))
  in
  (* A mangled line is usually rejected, but a control-byte splice can
     land inside a JSON string operand and still parse — and when the
     payload also survives the server's integrity scan (e.g. the splice
     only corrupted the correlation id), the daemon serves it.  Mirror
     the server's semantics for whatever the damaged line actually says,
     so the shadow tracks the session state exactly. *)
  let scan_image_clean (img : Image.t) =
    List.for_all
      (fun (c : Image.config_file) ->
        Res.scan_text ~subject:c.Image.path c.Image.text = [])
      img.Image.configs
  in
  let register_mangled line =
    match Serve_proto.parse line with
    | Error _ -> ()
    | Ok (Serve_proto.Check { id; source = Serve_proto.Inline text }) -> (
        match (Collector.image_of_text text, id) with
        | Ok img, Some id when scan_image_clean img ->
            Hashtbl.replace pending id (`Check img)
        | Ok img, None when scan_image_clean img ->
            (* the splice ate the correlation id but left a servable
               request: the session will reset at an unknowable queue
               position, so stop verifying this image until a
               correlated check re-seeds the shadow *)
            Hashtbl.remove shadow img.Image.image_id
        | (Ok _ | Error _), _ -> ())
    | Ok (Serve_proto.Watch { id; image_id; app; config }) -> (
        match (Image.app_of_string app, id) with
        | Some wapp, Some id when Res.scan_text ~subject:image_id config = [] ->
            Hashtbl.replace pending id (`Watch (image_id, wapp, config))
        | Some _, None when Res.scan_text ~subject:image_id config = [] ->
            Hashtbl.remove shadow image_id
        | _ -> ())
    | Ok _ -> ()
  in
  for i = 0 to requests - 1 do
    let line =
      if i = requests / 2 then
        (* mid-storm reload: sessions survive it, and every later watch
           is checked on the freshly compiled engine *)
        Json.to_string
          (Json.Obj [ ("op", Json.Str "reload"); ("id", Json.Str (req_id i)) ])
      else if i mod 20 = 3 then begin
        incr malformed;
        let base = mk_check i (Prng.int rng npop) in
        Hashtbl.remove pending (req_id i);
        let mangled = Chaos.mangle_request ~rng base in
        register_mangled mangled;
        mangled
      end
      else if i mod 20 = 7 then begin
        incr oversized;
        String.make (sconfig.Serve_server.max_request_bytes + 1) 'x'
      end
      else if i mod 503 >= 251 && i mod 503 < 254 then begin
        (* a burst of consecutive crashes, long enough to trip the
           breaker (threshold 3), so the health verdict visibly
           degrades and then recovers *)
        incr crashes;
        Json.to_string
          (Json.Obj [ ("op", Json.Str "crash"); ("id", Json.Str (req_id i)) ])
      end
      else if i mod 503 = 254 then
        (* probe health right behind the crash burst: the breaker just
           opened, so this must answer (breaker-bypassing) and report a
           degraded verdict *)
        Json.to_string
          (Json.Obj [ ("op", Json.Str "health"); ("id", Json.Str (req_id i)) ])
      else if i mod 101 = 25 then
        Json.to_string
          (Json.Obj
             [
               ("op", Json.Str "metrics");
               ("format", Json.Str "prometheus");
               ("id", Json.Str (req_id i));
             ])
      else if i mod 101 = 50 then
        Json.to_string
          (Json.Obj [ ("op", Json.Str "status"); ("id", Json.Str (req_id i)) ])
      else if i mod 5 = 1 then
        match mk_watch i with
        | Some line -> line
        | None -> mk_check i (Prng.int rng npop)
      else mk_check i (Prng.int rng npop)
    in
    offer line;
    (* pacing: hold processing back for a stretch every ~1k requests so
       the burst piles onto the bounded queue and sheds; elsewhere
       process faster than arrival *)
    if i mod 997 >= 40 then begin
      step ();
      step ()
    end
  done;
  (* settle the backlog, then take a final health reading: the breaker
     must have recovered (half-open trial succeeded) by now *)
  while Serve_server.pending server > 0 do
    step ()
  done;
  offer
    (Json.to_string
       (Json.Obj [ ("op", Json.Str "health"); ("id", Json.Str "h-final") ]));
  while Serve_server.pending server > 0 do
    step ()
  done;
  offer
    (Json.to_string
       (Json.Obj [ ("op", Json.Str "shutdown"); ("id", Json.Str "bye") ]));
  while Serve_server.pending server > 0 do
    step ()
  done;
  (match Serve_server.state server with
  | `Draining -> List.iter handle_response (Serve_server.drain_flush server)
  | `Running -> note "shutdown request did not start the drain"
  | `Stopped -> ());
  if !malformed * 20 < requests then note "malformed mix below 5%%";
  if !oversized * 20 < requests then note "oversized mix below 5%%";
  Ok
    {
      serve_requests = requests;
      serve_malformed = !malformed;
      serve_oversized = !oversized;
      serve_crash_ops = !crashes;
      serve_queued = !queued;
      serve_answered = !stepped;
      serve_shed = Serve_server.shed_count server;
      serve_restarts = Serve_server.restart_count server;
      serve_ring_dropped = Serve_server.ring_dropped server;
      serve_all_answered = !stepped = !queued;
      serve_ring_bound_ok = !ring_max <= sconfig.Serve_server.ring_capacity;
      serve_drained = !bye_seen && Serve_server.state server = `Stopped;
      serve_watch_verified = !watch_verified;
      serve_watch_identical = !watch_mismatch = 0;
      serve_metrics_served = !metrics_served;
      serve_metrics_valid = !metrics_valid;
      serve_rule_counters_seen = !rule_counters_seen;
      serve_health_served = !health_served;
      serve_health_degraded_seen = !health_nonok_seen;
      serve_health_final = !last_health;
      serve_traced = !traced;
      serve_exit = Serve_server.exit_code server;
      serve_notes = !notes;
    }

let serve_outcome_to_string o =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "serve storm: %d request(s) (%d malformed, %d oversized, %d crash \
        op(s))\n"
       o.serve_requests o.serve_malformed o.serve_oversized o.serve_crash_ops);
  Buffer.add_string buf
    (Printf.sprintf "queued %d, answered %d%s; shed %d; worker restarts %d\n"
       o.serve_queued o.serve_answered
       (if o.serve_all_answered then "" else " (UNANSWERED REQUESTS)")
       o.serve_shed o.serve_restarts);
  Buffer.add_string buf
    (Printf.sprintf "alert ring: bound %s, %d dropped\n"
       (if o.serve_ring_bound_ok then "held" else "EXCEEDED")
       o.serve_ring_dropped);
  Buffer.add_string buf
    (Printf.sprintf "watch verdicts: %d verified %s full checks\n"
       o.serve_watch_verified
       (if o.serve_watch_identical then "byte-identical to"
        else "DIVERGED from"));
  Buffer.add_string buf
    (Printf.sprintf
       "telemetry: %d metrics scrape(s) (%s%s), %d health probe(s) \
        (degraded %s, final '%s'), trace ids %s\n"
       o.serve_metrics_served
       (if o.serve_metrics_valid then "valid prometheus" else "INVALID")
       (if o.serve_rule_counters_seen then ", rule counters present" else "")
       o.serve_health_served
       (if o.serve_health_degraded_seen then "observed" else "NOT OBSERVED")
       o.serve_health_final
       (if o.serve_traced then "present" else "MISSING"));
  Buffer.add_string buf
    (Printf.sprintf "drain: %s; exit code %d\n"
       (if o.serve_drained then "clean" else "INCOMPLETE")
       o.serve_exit);
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n))
    o.serve_notes;
  Buffer.contents buf

let outcome_to_string o =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "chaos storm: %d image(s), %d victim(s); quarantine %s\n"
       o.population (List.length o.victims)
       (if o.quarantine_exact then "exact" else "INEXACT"));
  Buffer.add_string buf (Pipeline.report_to_string o.report);
  Buffer.add_string buf
    (if o.telemetry_consistent then
       "telemetry: event log reconciles with the ingest report\n"
     else "telemetry: INCONSISTENT with the ingest report\n");
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "telemetry: %s\n" n))
    o.telemetry_notes;
  Buffer.add_string buf
    (Printf.sprintf
       "detection on injected target: clean-trained %d/%d, chaos-trained \
        %d/%d\n"
       o.clean_detected o.injected o.chaos_detected o.injected);
  List.iter
    (fun note -> Buffer.add_string buf (Printf.sprintf "note: %s\n" note))
    o.notes;
  Buffer.contents buf

(* --- transport storm & crash replay ---------------------------------------- *)

module Serve_mux = Encore_serve.Mux
module Serve_journal = Encore_serve.Journal

type transport_outcome = {
  tr_clients : int;
  tr_frames : int;
  tr_faults : int;
  tr_committed : int;
  tr_lost : int;
  tr_misrouted : int;
  tr_overflow_answers : int;
  tr_reconnects : int;
  tr_health_probes : int;
  tr_health_truthful : bool;
  tr_bye_all : bool;
  tr_exit : int;
  cr_requests : int;
  cr_journaled : int;
  cr_completed : int;
  cr_replayed : int;
  cr_tail_truncated : bool;
  cr_responses_identical : bool;
  cr_ring_identical : bool;
  cr_replay_idempotent : bool;
  tr_notes : string list;
}

(* one scripted frame of a storm client *)
type client_action =
  | Send of string  (* intact frame; its id, if any, must be answered *)
  | Send_slow of string  (* intact, dribbled one byte per driver turn *)
  | Torn of string  (* strict prefix, then disconnect and reconnect *)
  | Flood of int  (* unterminated junk of this size, then a newline *)

type storm_client = {
  index : int;
  mutable fd : Unix.file_descr;
  mutable script : client_action list;
  mutable outq : string;
  mutable out_off : int;
  mutable slow : bool;
  mutable close_after : bool;  (* mid-write disconnect once outq flushes *)
  rbuf : Buffer.t;
  mutable received : string list;  (* complete response lines, reverse *)
  mutable bye : bool;
  mutable anon_errors : int;  (* uncorrelated error responses (overflow) *)
  mutable alive : bool;
  mutable reconnects : int;
}

let transport_ok o =
  o.tr_lost = 0 && o.tr_misrouted = 0
  && o.tr_faults * 20 >= o.tr_frames
  && o.tr_health_truthful && o.tr_bye_all
  && o.cr_tail_truncated && o.cr_responses_identical && o.cr_ring_identical
  && o.cr_replay_idempotent
  && o.tr_notes = []

let transport_storm ?(config = Config.default) ?(requests = 10_000)
    ?(clients = 6) ?(n = 16) ?(app = Image.Mysql) ~dir ~seed () =
  if clients < 2 then Error "transport storm needs at least 2 clients"
  else begin
    (* writes to a peer that disconnected mid-response must surface as
       EPIPE, not kill the process *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let profile = { Profile.ec2 with Profile.latent_error_rate = 0.0 } in
    let images =
      Population.images (Population.generate ~profile ~seed app ~n)
    in
    let model = Pipeline.learn ~config images in
    let arr = Array.of_list images in
    let npop = Array.length arr in
    let dumps = Array.map Collector.image_to_text arr in
    let notes = ref [] in
    let note fmt = Printf.ksprintf (fun s -> notes := !notes @ [ s ]) fmt in

    (* ---- phase A: concurrent clients under transport faults ---- *)
    let frames_total = max (clients * 8) (min requests 2_000) in
    let sconfig =
      {
        Serve_server.default_config with
        Serve_server.queue_capacity = 64;
        ring_capacity = 64;
        max_request_bytes = 1 lsl 16;
      }
    in
    let mconfig =
      { Serve_mux.default_config with Serve_mux.idle_polls_budget = 50_000 }
    in
    match Serve_journal.open_ ~path:(Filename.concat dir "transport.wal") with
    | Error e -> Error ("transport journal: " ^ e)
    | Ok (jnl, _) ->
        let cache = Serve_cache.create ~provider:(fun ~app:_ -> Ok model) in
        let server = Serve_server.create ~config:sconfig ~journal:jnl cache in
        let mux = Serve_mux.create ~config:mconfig server in
        let mk_client index =
          let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.set_nonblock cfd;
          ignore (Serve_mux.adopt mux sfd);
          {
            index;
            fd = cfd;
            script = [];
            outq = "";
            out_off = 0;
            slow = false;
            close_after = false;
            rbuf = Buffer.create 256;
            received = [];
            bye = false;
            anon_errors = 0;
            alive = true;
            reconnects = 0;
          }
        in
        let cls = Array.init clients mk_client in
        (* expected correlation ids and which client owns each *)
        let expected : (string, int) Hashtbl.t = Hashtbl.create 512 in
        let got : (string, unit) Hashtbl.t = Hashtbl.create 512 in
        let misrouted = ref 0 in
        let health_probes = ref 0 and health_truthful = ref true in
        let faults = ref 0 in
        let json_line op id extra =
          Json.to_string
            (Json.Obj ([ ("op", Json.Str op); ("id", Json.Str id) ] @ extra))
        in
        let mk_check id k =
          json_line "check" id [ ("image", Json.Str dumps.(k)) ]
        in
        let mk_watch id k =
          let cfg =
            match Image.config_for arr.(k) app with
            | Some c -> c.Image.text
            | None -> ""
          in
          json_line "watch" id
            [
              ("image", Json.Str arr.(k).Image.image_id);
              ("app", Json.Str (Image.app_to_string app));
              ("config", Json.Str cfg);
            ]
        in
        let expect c id = Hashtbl.replace expected id c.index in
        let gid = ref 0 in
        let next_id c =
          incr gid;
          Printf.sprintf "t%d-%06d" c.index !gid
        in
        (* client 0 stays fault-free (it later requests the shutdown and
           carries the health probes); the others tear, flood and crawl *)
        Array.iter
          (fun c ->
            let per = frames_total / clients in
            let acc = ref [] in
            for j = 0 to per - 1 do
              let id = next_id c in
              let k = (c.index + (j * clients)) mod npop in
              let action =
                if c.index = 0 then
                  if j mod 7 = 3 then begin
                    incr health_probes;
                    expect c id;
                    Send (json_line "health" id [])
                  end
                  else begin
                    expect c id;
                    Send (mk_check id k)
                  end
                else if j mod 20 = 5 then begin
                  incr faults;
                  Torn (mk_check id k)
                end
                else if j mod 20 = 11 then begin
                  incr faults;
                  Flood (Serve_server.max_request_bytes server + 4096)
                end
                else if j mod 20 = 17 then begin
                  incr faults;
                  expect c id;
                  Send_slow (json_line "status" id [])
                end
                else if j mod 6 = 2 && j > 0 then begin
                  expect c id;
                  Send (mk_watch id c.index)
                end
                else begin
                  expect c id;
                  Send (mk_check id k)
                end
              in
              acc := action :: !acc
            done;
            (* first frame seeds the client's watch session *)
            let seed_id = next_id c in
            expect c seed_id;
            c.script <- Send (mk_check seed_id c.index) :: List.rev !acc)
          cls;
        let drain_reads c =
          if c.alive then begin
            let chunk = Bytes.create 4096 in
            let rec go () =
              match Unix.read c.fd chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | nread ->
                  Buffer.add_subbytes c.rbuf chunk 0 nread;
                  go ()
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                ->
                  ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
              | exception Unix.Unix_error (_, _, _) -> ()
            in
            go ();
            let text = Buffer.contents c.rbuf in
            Buffer.clear c.rbuf;
            let rec split start =
              match String.index_from_opt text start '\n' with
              | Some nl ->
                  let line = String.sub text start (nl - start) in
                  if line <> "" then begin
                    c.received <- line :: c.received;
                    (match Json.of_string line with
                    | Error _ -> note "client %d: unparsable response" c.index
                    | Ok j -> (
                        let ok =
                          match Json.member "ok" j with
                          | Some (Json.Bool b) -> b
                          | _ -> false
                        in
                        (match Json.member "op" j with
                        | Some (Json.Str "bye") -> c.bye <- true
                        | Some (Json.Str "health") when ok -> (
                            let verdict =
                              Option.bind (Json.member "health" j)
                                Json.to_string_opt
                            in
                            let reasons =
                              match Json.member "reasons" j with
                              | Some (Json.Arr l) -> l
                              | _ -> []
                            in
                            match verdict with
                            | Some (("ok" | "degraded" | "unhealthy") as v) ->
                                if v = "ok" <> (reasons = []) then begin
                                  health_truthful := false;
                                  note
                                    "health verdict '%s' inconsistent with %d \
                                     reason(s)"
                                    v (List.length reasons)
                                end
                            | _ ->
                                health_truthful := false;
                                note "health response without a verdict")
                        | _ -> ());
                        match
                          Option.bind (Json.member "id" j) Json.to_string_opt
                        with
                        | Some id -> (
                            match Hashtbl.find_opt expected id with
                            | Some owner when owner <> c.index ->
                                incr misrouted
                            | Some _ -> Hashtbl.replace got id ()
                            | None -> ())
                        | None -> if not ok then c.anon_errors <- c.anon_errors + 1
                        ))
                  end;
                  split (nl + 1)
              | None -> Buffer.add_substring c.rbuf text start (String.length text - start)
            in
            split 0
          end
        in
        let reconnect c =
          let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.set_nonblock cfd;
          ignore (Serve_mux.adopt mux sfd);
          c.fd <- cfd;
          c.reconnects <- c.reconnects + 1
        in
        let write_step c =
          if c.alive then
            if c.out_off < String.length c.outq then begin
              let len = String.length c.outq - c.out_off in
              let nwrite = if c.slow then 1 else len in
              (match Unix.write_substring c.fd c.outq c.out_off nwrite with
              | nw -> c.out_off <- c.out_off + nw
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                ->
                  ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
                ->
                  (* server closed us mid-script: reconnect and move on *)
                  drain_reads c;
                  Unix.close c.fd;
                  reconnect c;
                  c.outq <- "";
                  c.out_off <- 0);
              if c.out_off >= String.length c.outq && c.close_after then begin
                (* mid-write disconnect: the prefix is on the wire, the
                   frame will never terminate *)
                drain_reads c;
                Unix.close c.fd;
                reconnect c;
                c.close_after <- false;
                c.outq <- "";
                c.out_off <- 0
              end
            end
            else
              match c.script with
              | [] -> ()
              | action :: rest ->
                  c.script <- rest;
                  c.slow <- false;
                  c.out_off <- 0;
                  (match action with
                  | Send s -> c.outq <- s ^ "\n"
                  | Send_slow s ->
                      c.slow <- true;
                      c.outq <- s ^ "\n"
                  | Torn s ->
                      c.close_after <- true;
                      c.outq <- String.sub s 0 (max 1 (String.length s / 2))
                  | Flood size -> c.outq <- String.make size 'z' ^ "\n")
        in
        let turn () =
          Array.iter write_step cls;
          Serve_mux.step ~wait:false mux;
          Array.iter drain_reads cls
        in
        let work_left () =
          Array.exists
            (fun c ->
              c.script <> [] || c.out_off < String.length c.outq)
            cls
          || Hashtbl.length got < Hashtbl.length expected
        in
        let iters = ref 0 in
        let last_progress = ref 0 and stall = ref 0 in
        while work_left () && !stall < 5_000 && !iters < 400_000 do
          incr iters;
          turn ();
          let progress =
            Hashtbl.length got
            + Array.fold_left
                (fun acc c -> acc - List.length c.script)
                0 cls
          in
          if progress = !last_progress then incr stall
          else begin
            stall := 0;
            last_progress := progress
          end
        done;
        if work_left () then
          note "transport storm stalled after %d turn(s)" !iters;
        (* shutdown through client 0; every surviving client gets a bye *)
        cls.(0).script <- [ Send (json_line "shutdown" "t-bye" []) ];
        let budget = ref 0 in
        while (not (Serve_mux.stopped mux)) && !budget < 60_000 do
          incr budget;
          turn ()
        done;
        Array.iter drain_reads cls;
        if not (Serve_mux.stopped mux) then begin
          note "mux did not stop after shutdown";
          Serve_mux.shutdown_fds mux
        end;
        let lost =
          Hashtbl.fold
            (fun id _ acc ->
              if Hashtbl.mem got id then acc else id :: acc)
            expected []
        in
        List.iteri
          (fun i id -> if i < 5 then note "committed request %s unanswered" id)
          (List.sort compare lost);
        let bye_all = Array.for_all (fun c -> c.bye) cls in
        let overflow_answers =
          Array.fold_left (fun acc c -> acc + c.anon_errors) 0 cls
        in
        if overflow_answers = 0 then
          note "flooding clients saw no typed overflow response";
        let reconnects =
          Array.fold_left (fun acc c -> acc + c.reconnects) 0 cls
        in
        Array.iter
          (fun c -> if c.alive then try Unix.close c.fd with Unix.Unix_error _ -> ())
          cls;
        let tr_exit = Serve_server.exit_code server in

        (* ---- phase B: kill -9 mid-storm, replay, converge ---- *)
        let wal = Filename.concat dir "requests.wal" in
        (match Serve_journal.open_ ~path:wal with
        | Error e -> Error ("crash journal: " ^ e)
        | Ok (j1, _) ->
            let rng = Prng.create (seed + 777) in
            let bad_dumps =
              Array.init 8 (fun j ->
                  let campaign = Conferr.inject rng app arr.(j mod npop) ~n:2 in
                  Collector.image_to_text campaign.Conferr.image)
            in
            let cconfig =
              {
                sconfig with
                Serve_server.queue_capacity = 256;
                ring_capacity = 32;
              }
            in
            let mk_server journal =
              let c = Serve_cache.create ~provider:(fun ~app:_ -> Ok model) in
              Serve_server.create ~config:cconfig ?journal c
            in
            let server1 = mk_server (Some j1) in
            let storm_line i =
              let id = Printf.sprintf "k%06d" i in
              if i mod 211 = 17 then json_line "crash" id []
              else if i mod 20 = 3 then
                Chaos.mangle_request ~rng (mk_check id (Prng.int rng npop))
              else if i mod 7 = 2 then
                json_line "check" id
                  [ ("image", Json.Str bad_dumps.(i mod 8)) ]
              else if i mod 5 = 1 then mk_watch id (i mod npop)
              else mk_check id (Prng.int rng npop)
            in
            (* trace -> the responses the uninterrupted prefix produced *)
            let precrash : (string, string) Hashtbl.t = Hashtbl.create 512 in
            let record_step () =
              List.iter
                (fun j ->
                  match
                    Option.bind (Json.member "trace" j) Json.to_string_opt
                  with
                  | Some trace ->
                      Hashtbl.replace precrash trace (Json.to_string j)
                  | None -> ())
                (Serve_server.step server1)
            in
            let kill_at = max 1 (requests * 3 / 5) in
            (for i = 0 to kill_at - 1 do
               ignore (Serve_server.offer server1 (storm_line i));
               if i mod 3 = 0 then record_step ()
             done);
            (* kill -9: abandon the server with its queue still loaded;
               the journal fd goes away without a reset *)
            Serve_journal.close j1;
            (* a crash mid-append leaves a torn record at the tail *)
            let tear =
              "EJRNL1 R 999999 64 0123456789abcdef0123456789abcdef\ntorn"
            in
            (let fd =
               Unix.openfile wal [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644
             in
             ignore (Unix.write_substring fd tear 0 (String.length tear));
             Unix.close fd);
            (match Serve_journal.open_ ~path:wal with
            | Error e -> Error ("crash recovery: " ^ e)
            | Ok (j2, recovery) ->
                let entries = recovery.Serve_journal.entries in
                let journaled = List.length entries in
                let completed =
                  List.length
                    (List.filter
                       (fun (e : Serve_journal.entry) -> e.completed)
                       entries)
                in
                let collect_replay server journal_entries =
                  let emitted : (int, string) Hashtbl.t =
                    Hashtbl.create 512
                  in
                  ignore
                    (Serve_server.replay server ~entries:journal_entries
                       ~emit:(fun (e : Serve_journal.entry) resps ->
                         Hashtbl.replace emitted e.seq
                           (String.concat "\n"
                              (List.map Json.to_string resps))));
                  ( emitted,
                    List.map Json.to_string (Serve_server.alerts server) )
                in
                let server2 = mk_server (Some j2) in
                let recovered, ring2 = collect_replay server2 entries in
                let server3 = mk_server None in
                let reference, ring3 = collect_replay server3 entries in
                let identical = ref true in
                List.iter
                  (fun (e : Serve_journal.entry) ->
                    let want = Hashtbl.find_opt reference e.seq in
                    let got_resp =
                      if e.completed then
                        let trace =
                          match String.index_opt e.payload ' ' with
                          | Some sp -> String.sub e.payload 0 sp
                          | None -> e.payload
                        in
                        Hashtbl.find_opt precrash trace
                      else Hashtbl.find_opt recovered e.seq
                    in
                    if want <> got_resp && !identical then begin
                      identical := false;
                      note "crash replay diverged at seq %d" e.seq
                    end)
                  entries;
                let ring_identical = ring2 = ring3 in
                if not ring_identical then
                  note "alert ring diverged after crash replay";
                Serve_journal.close j2;
                (* second restart: everything is marked complete, and a
                   second replay lands on byte-identical state *)
                let idempotent =
                  match Serve_journal.open_ ~path:wal with
                  | Error e ->
                      note "reopen after replay: %s" e;
                      false
                  | Ok (j4, recovery2) ->
                      Serve_journal.close j4;
                      let entries2 = recovery2.Serve_journal.entries in
                      let server4 = mk_server None in
                      let again, ring4 = collect_replay server4 entries2 in
                      List.length entries2 = journaled
                      && List.for_all
                           (fun (e : Serve_journal.entry) -> e.completed)
                           entries2
                      && ring4 = ring2
                      && List.for_all
                           (fun (e : Serve_journal.entry) ->
                             Hashtbl.find_opt again e.seq
                             = Hashtbl.find_opt recovered e.seq)
                           entries2
                in
                if not idempotent then note "replay is not idempotent";
                Ok
                  {
                    tr_clients = clients;
                    tr_frames = frames_total + clients;
                    tr_faults = !faults;
                    tr_committed = Hashtbl.length expected;
                    tr_lost = List.length lost;
                    tr_misrouted = !misrouted;
                    tr_overflow_answers = overflow_answers;
                    tr_reconnects = reconnects;
                    tr_health_probes = !health_probes;
                    tr_health_truthful = !health_truthful;
                    tr_bye_all = bye_all;
                    tr_exit;
                    cr_requests = kill_at;
                    cr_journaled = journaled;
                    cr_completed = completed;
                    cr_replayed = journaled - completed;
                    cr_tail_truncated =
                      recovery.Serve_journal.truncated_at <> None;
                    cr_responses_identical = !identical;
                    cr_ring_identical = ring_identical;
                    cr_replay_idempotent = idempotent;
                    tr_notes = !notes;
                  }))
  end

let transport_outcome_to_string o =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "transport storm: %d client(s), %d frame(s), %d injected fault(s) \
        (%.1f%%), %d reconnect(s)\n"
       o.tr_clients o.tr_frames o.tr_faults
       (100.0 *. float_of_int o.tr_faults /. float_of_int (max 1 o.tr_frames))
       o.tr_reconnects);
  Buffer.add_string buf
    (Printf.sprintf
       "committed requests: %d, lost %d%s, misrouted %d; %d typed overflow \
        answer(s)\n"
       o.tr_committed o.tr_lost
       (if o.tr_lost = 0 then "" else " (RESPONSES LOST)")
       o.tr_misrouted o.tr_overflow_answers);
  Buffer.add_string buf
    (Printf.sprintf
       "health: %d probe(s), verdicts %s; drain byes %s; exit code %d\n"
       o.tr_health_probes
       (if o.tr_health_truthful then "truthful" else "UNTRUTHFUL")
       (if o.tr_bye_all then "delivered to every client" else "MISSING")
       o.tr_exit);
  Buffer.add_string buf
    (Printf.sprintf
       "crash drill: killed after %d request(s); %d journaled (%d completed, \
        %d replayed), torn tail %s\n"
       o.cr_requests o.cr_journaled o.cr_completed o.cr_replayed
       (if o.cr_tail_truncated then "truncated" else "NOT DETECTED"));
  Buffer.add_string buf
    (Printf.sprintf "crash replay: responses %s, alert ring %s, replay %s\n"
       (if o.cr_responses_identical then "byte-identical" else "DIVERGED")
       (if o.cr_ring_identical then "byte-identical" else "DIVERGED")
       (if o.cr_replay_idempotent then "idempotent" else "NOT IDEMPOTENT"));
  List.iter
    (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n))
    o.tr_notes;
  Buffer.contents buf
