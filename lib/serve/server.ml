module Json = Encore_obs.Jsonenc
module Res = Encore_util.Resilience
module Deadline = Encore_util.Deadline
module Ometrics = Encore_obs.Metrics
module Otrace = Encore_obs.Trace
module Owindow = Encore_obs.Window
module Osampler = Encore_obs.Sampler
module Image = Encore_sysenv.Image
module Collector = Encore_sysenv.Collector
module Engine = Encore_detect.Engine
module Warning = Encore_detect.Warning

exception Injected_crash

type config = {
  queue_capacity : int;
  max_request_bytes : int;
  deadline_polls : int option;
  deadline_s : float option;
  ring_capacity : int;
  alert_score : float;
  max_sessions : int;
  breaker_threshold : int;
  breaker_cooldown : int;
  window_intervals : int;
  window_interval_ns : int64;
  sampler_interval_ns : int64;
  health_p99_us : float;
  reload_shadow_k : int;
      (* recent check requests replayed against a reload candidate *)
}

let default_config =
  {
    queue_capacity = 64;
    max_request_bytes = 1 lsl 20;
    deadline_polls = None;
    deadline_s = None;
    ring_capacity = 256;
    alert_score = 0.7;
    max_sessions = 128;
    breaker_threshold = 3;
    breaker_cooldown = 4;
    window_intervals = 10;
    window_interval_ns = 1_000_000_000L;
    sampler_interval_ns = 1_000_000_000L;
    health_p99_us = 250_000.0;
    reload_shadow_k = 8;
  }

type state = Running | Draining | Stopped

(* One admitted request waiting for {!step}: its trace id, the
   connection that sent it (None for stdio / direct drivers — responses
   with no origin go to the default sink), its journal sequence number
   when the daemon journals, and the raw line. *)
type queue_item = {
  q_trace : string;
  q_origin : int option;
  q_seq : int option;
  q_line : string;
}

type t = {
  config : config;
  cache : Cache.t;
  learner : (Image.t -> (string, string) result) option;
      (* continuous-learning hook: fold one observed image into the
         resident sufficient statistics and refresh the model behind
         the cache's provider; [Ok note] describes the fold *)
  queue : queue_item Queue.t;
  journal : Journal.t option;
  recent_checks : string Ring.t;
      (* last K raw check lines: the shadow corpus for reload
         validation *)
  ring : Json.t Ring.t;
  sessions : (string, Image.t) Hashtbl.t;
      (* image id -> the image of its last complete check or watch:
         the base a watch replaces one config in *)
  mutable session_order : string list;  (* insertion order, oldest first *)
  breaker : Res.breaker;
  mutable state : state;
  mutable requests : int;
  mutable answered : int;
  mutable shed : int;
  mutable errors : int;
  mutable restarts : int;
  mutable denied : int;
  mutable reloads : int;
  mutable reload_rollbacks : int;
  mutable learned : int;
  mutable replayed : int;
  mutable reload_requested : bool;
      (* set by a SIGHUP handler; step picks it up before queue work *)
  mutable trace_seq : int;
  lat : Owindow.t;  (* rolling request-latency window (µs) *)
  sampler : Osampler.t;
}

let worker_subject = "serve.worker"

let m_requests = Ometrics.counter "serve.requests"
let m_shed = Ometrics.counter "serve.shed"
let m_errors = Ometrics.counter "serve.errors"
let m_restarts = Ometrics.counter "serve.restarts"
let m_denied = Ometrics.counter "serve.breaker_denied"
let m_ring_dropped = Ometrics.counter "serve.ring_dropped"
let m_partial = Ometrics.counter "serve.partial"
let m_reloads = Ometrics.counter "serve.reloads"
let m_learned = Ometrics.counter "serve.learn_appended"
let m_reload_rollbacks = Ometrics.counter "serve.reload_rollbacks"
let m_journal_replayed = Ometrics.counter "serve.journal_replayed"
let m_queue_depth = Ometrics.gauge "serve.queue_depth"
let m_frame_overflow = Ometrics.counter "serve.frame_overflow"
let h_request_us = Ometrics.histogram "serve.request_us"

let breaker_level = function
  | Res.Closed -> 0.0
  | Res.Half_open -> 1.0
  | Res.Open -> 2.0

(* Saturation and robustness state the sampler mirrors into gauges on
   its cadence, so a scrape sees recent values even between requests. *)
let sampled_gauges t () =
  [
    ("serve.sampled.queue_depth", float_of_int (Queue.length t.queue));
    ( "serve.sampled.queue_occupancy",
      float_of_int (Queue.length t.queue)
      /. float_of_int (max 1 t.config.queue_capacity) );
    ( "serve.sampled.breaker",
      breaker_level (Res.state t.breaker ~subject:worker_subject) );
    ("serve.sampled.ring_dropped", float_of_int (Ring.dropped t.ring));
    ("serve.sampled.sessions", float_of_int (Hashtbl.length t.sessions));
  ]

let create ?(config = default_config) ?journal ?learner cache =
  (* the sampler's gauge provider needs the server it belongs to; tie
     the knot through a cell instead of a mutable field *)
  let gauges_src = ref (fun () -> []) in
  let t =
    {
      config;
      cache;
      learner;
      queue = Queue.create ();
      journal;
      recent_checks = Ring.create ~capacity:config.reload_shadow_k;
      ring = Ring.create ~capacity:config.ring_capacity;
      sessions = Hashtbl.create 64;
      session_order = [];
      breaker =
        Res.breaker ~threshold:config.breaker_threshold
          ~cooldown:config.breaker_cooldown ();
      state = Running;
      requests = 0;
      answered = 0;
      shed = 0;
      errors = 0;
      restarts = 0;
      denied = 0;
      reloads = 0;
      reload_rollbacks = 0;
      learned = 0;
      replayed = 0;
      reload_requested = false;
      trace_seq = 0;
      lat =
        Owindow.create ~intervals:config.window_intervals
          ~interval_ns:config.window_interval_ns ();
      sampler =
        Osampler.create ~interval_ns:config.sampler_interval_ns
          ~gauges:(fun () -> !gauges_src ())
          ();
    }
  in
  gauges_src := sampled_gauges t;
  t

let pending t = Queue.length t.queue
let max_request_bytes t = t.config.max_request_bytes

(* A transport's answer to a frame it stopped buffering: not a request
   (no trace id, not counted in serve.requests), since no line was
   ever offered. *)
let frame_overflow t =
  Ometrics.incr m_frame_overflow;
  Proto.error_response
    (Res.diag Res.Overflow ~subject:"serve.frame"
       (Printf.sprintf "unterminated frame exceeds %d bytes: discarded"
          t.config.max_request_bytes))

let state t = match t.state with
  | Running -> `Running
  | Draining -> `Draining
  | Stopped -> `Stopped

let request_shutdown t = if t.state = Running then t.state <- Draining

let request_reload t = if t.state = Running then t.reload_requested <- true

let shed_count t = t.shed
let restart_count t = t.restarts
let ring_dropped t = Ring.dropped t.ring
let replayed_count t = t.replayed
let reload_rollback_count t = t.reload_rollbacks
let alerts t = Ring.to_list t.ring
let latency_window t = Owindow.view t.lat

(* Degraded when robustness machinery had to engage: load was shed,
   the worker crashed, or alerts fell off the ring.  Answered typed
   errors (malformed requests) are normal service, not degradation. *)
let exit_code t =
  if t.shed > 0 || t.restarts > 0 || Ring.dropped t.ring > 0 then 3 else 0

let subject = "serve"

let make_deadline c =
  match (c.deadline_polls, c.deadline_s) with
  | Some n, _ -> Some (Deadline.after_polls n)
  | None, Some s -> Some (Deadline.of_budget_s s)
  | None, None -> None

(* --- sessions ------------------------------------------------------------- *)

let drop_session t id =
  if Hashtbl.mem t.sessions id then begin
    Hashtbl.remove t.sessions id;
    t.session_order <- List.filter (fun i -> i <> id) t.session_order
  end

let put_session t (img : Image.t) =
  let id = img.Image.image_id in
  let fresh = not (Hashtbl.mem t.sessions id) in
  Hashtbl.replace t.sessions id img;
  if fresh then t.session_order <- t.session_order @ [ id ];
  if List.length t.session_order > t.config.max_sessions then
    match t.session_order with
    | oldest :: rest ->
        Hashtbl.remove t.sessions oldest;
        t.session_order <- rest
    | [] -> ()

(* --- the worker ----------------------------------------------------------- *)

let app_key (img : Image.t) =
  match img.Image.configs with
  | { Image.app; _ } :: _ -> Image.app_to_string app
  | [] -> "default"

let push_alerts t ~image warnings =
  let before = Ring.dropped t.ring in
  List.iter
    (fun (w : Warning.t) ->
      if w.Warning.score >= t.config.alert_score then
        Ring.push t.ring (Proto.alert_json ~image w))
    warnings;
  Ometrics.incr ~by:(Ring.dropped t.ring - before) m_ring_dropped

let detections t warnings =
  List.length
    (List.filter
       (fun (w : Warning.t) -> w.Warning.score >= t.config.alert_score)
       warnings)

let read_dump t path =
  match open_in_bin path with
  | exception Sys_error msg -> Error (Res.diag Res.Probe_failure ~subject msg)
  | ic -> (
      match
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let n = in_channel_length ic in
            if n > t.config.max_request_bytes then Error n
            else Ok (really_input_string ic n))
      with
      | Ok text -> Ok text
      | Error n ->
          Error
            (Res.diag Res.Overflow ~subject
               (Printf.sprintf "dump %s is %d bytes (limit %d)" path n
                  t.config.max_request_bytes))
      | exception Sys_error msg ->
          Error (Res.diag Res.Probe_failure ~subject msg))

(* Check [img] on the current cached engine under the request
   deadline.  A complete verdict makes [img] the session of its id; a
   partial one forgets that session, because a watch must extend a
   complete check. *)
let check_image t ?id ~op (img : Image.t) =
  match Cache.engine_for t.cache ~app:(app_key img) with
  | Error d -> Proto.error_response ?id ~op d
  | Ok eng ->
      let verdict =
        Engine.verdict ?deadline:(make_deadline t.config) eng img
      in
      let partial =
        match verdict with
        | Engine.Complete _ ->
            put_session t img;
            false
        | Engine.Partial _ ->
            drop_session t img.Image.image_id;
            Ometrics.incr m_partial;
            true
      in
      let warnings = Engine.warnings_of verdict in
      push_alerts t ~image:img.Image.image_id warnings;
      Proto.verdict_response ?id ~op ~image:img.Image.image_id ~partial
        ~detections:(detections t warnings) warnings

let do_check t ?id source =
  let text =
    match source with
    | Proto.Inline text -> Ok text
    | Proto.Path path -> read_dump t path
  in
  match text with
  | Error d -> Proto.error_response ?id ~op:"check" d
  | Ok text -> (
      match Collector.image_of_text text with
      | Error msg ->
          Proto.error_response ?id ~op:"check"
            (Res.diag Res.Parse_error ~subject ("bad image dump: " ^ msg))
      | Ok img -> (
          (* integrity gate: a dump whose config payload carries control
             bytes or a torn final line was damaged in transit — answer
             a typed error rather than checking garbage *)
          match
            List.concat_map
              (fun (c : Image.config_file) ->
                Res.scan_text ~subject:c.Image.path c.Image.text)
              img.Image.configs
          with
          | d :: _ -> Proto.error_response ?id ~op:"check" d
          | [] -> check_image t ?id ~op:"check" img))

let do_watch t ?id ~image_id ~app ~config_text () =
  let refuse detail =
    Proto.error_response ?id ~op:"watch"
      (Res.diag Res.Parse_error ~subject detail)
  in
  match Image.app_of_string app with
  | None -> refuse (Printf.sprintf "unknown app '%s'" app)
  | Some _ when Res.scan_text ~subject:image_id config_text <> [] ->
      (* same integrity gate as check: a corrupted config must not
         replace a session's config *)
      Proto.error_response ?id ~op:"watch"
        (List.hd (Res.scan_text ~subject:image_id config_text))
  | Some app -> (
      match Hashtbl.find_opt t.sessions image_id with
      | None ->
          refuse
            (Printf.sprintf "unknown image '%s': check it before watching"
               image_id)
      | Some img when Image.config_for img app = None ->
          refuse
            (Printf.sprintf "image '%s' carries no %s config" image_id
               (Image.app_to_string app))
      | Some img ->
          check_image t ?id ~op:"watch" (Image.set_config img app config_text))

(* Shadow-validated reload: compile the candidate model(s) in an
   isolated cache, replay the last K journaled check requests against
   them, and adopt only when nothing errors.  A broken provider or a
   candidate that crashes on traffic the live model served is rolled
   back with a typed refusal — the live cache and its generation stay
   untouched. *)
let shadow_check t cand line =
  match Proto.parse line with
  | Error _ -> Ok false  (* stale corpus line no longer parses: skip *)
  | Ok (Proto.Check { source; _ }) -> (
      let text =
        match source with
        | Proto.Inline text -> Ok text
        | Proto.Path path -> read_dump t path
      in
      match text with
      | Error _ -> Ok false  (* dump since deleted: nothing to shadow *)
      | Ok text -> (
          match Collector.image_of_text text with
          | Error _ -> Ok false
          | Ok img -> (
              match Cache.engine_for cand ~app:(app_key img) with
              | Error d -> Error d
              | Ok eng -> (
                  match Engine.check eng img with
                  | _ -> Ok true
                  | exception exn ->
                      Error
                        (Res.diag Res.Custom_rule_error ~subject
                           (Printf.sprintf "shadow check of %s raised %s"
                              img.Image.image_id (Printexc.to_string exn)))))))
  | Ok _ -> Ok false

let do_reload t ?id () =
  let cand = Cache.candidate t.cache in
  let validated =
    (* eagerly compile every app the live cache serves, then shadow the
       recent check corpus — both must succeed before adoption *)
    let rec compile_apps = function
      | [] -> Ok ()
      | app :: rest -> (
          match Cache.engine_for cand ~app with
          | Ok _ -> compile_apps rest
          | Error d -> Error d)
    in
    match compile_apps (Cache.cached_apps t.cache) with
    | Error d -> Error d
    | Ok () ->
        let rec shadow n = function
          | [] -> Ok n
          | line :: rest -> (
              match shadow_check t cand line with
              | Ok counted -> shadow (if counted then n + 1 else n) rest
              | Error d -> Error d)
        in
        shadow 0 (Ring.to_list t.recent_checks)
  in
  match validated with
  | Error d ->
      t.reload_rollbacks <- t.reload_rollbacks + 1;
      Ometrics.incr m_reload_rollbacks;
      Proto.error_response ?id ~op:"reload"
        (Res.diag d.Res.kind ~subject
           ("reload rejected (rolled back, generation unchanged): "
          ^ d.Res.detail))
  | Ok shadow_checked ->
      let changed = Cache.adopt t.cache ~from:cand in
      t.reloads <- t.reloads + 1;
      Ometrics.incr m_reloads;
      Proto.ok_response ?id ~op:"reload"
        [
          ("changed", Json.Bool changed);
          ("generation", Json.Int (Cache.generation t.cache));
          ("shadow_checked", Json.Int shadow_checked);
          ( "apps",
            Json.Arr
              (List.map (fun a -> Json.Str a) (Cache.cached_apps t.cache)) );
        ]

(* Continuous learning: fold the observed image into the resident
   statistics through the attached hook, then adopt the refreshed
   model through the same shadow-validated reload as the reload verb —
   a refresh that fails validation is rolled back (generation
   unchanged) while the statistics keep the image for the next
   attempt.  Durability comes from the statistics store the hook
   persists to, not the request journal. *)
let do_learn_append t ?id source =
  let op = "learn-append" in
  let text =
    match source with
    | Proto.Inline text -> Ok text
    | Proto.Path path -> read_dump t path
  in
  match text with
  | Error d -> Proto.error_response ?id ~op d
  | Ok text -> (
      match Collector.image_of_text text with
      | Error msg ->
          Proto.error_response ?id ~op
            (Res.diag Res.Parse_error ~subject ("bad image dump: " ^ msg))
      | Ok img -> (
          match
            List.concat_map
              (fun (c : Image.config_file) ->
                Res.scan_text ~subject:c.Image.path c.Image.text)
              img.Image.configs
          with
          | d :: _ -> Proto.error_response ?id ~op d
          | [] -> (
              match t.learner with
              | None ->
                  Proto.error_response ?id ~op
                    (Res.diag Res.Custom_rule_error ~subject
                       "no learner attached: the daemon was started without \
                        learning statistics")
              | Some learn -> (
                  match learn img with
                  | Error msg ->
                      Proto.error_response ?id ~op
                        (Res.diag Res.Custom_rule_error ~subject msg)
                  | Ok note ->
                      t.learned <- t.learned + 1;
                      Ometrics.incr m_learned;
                      let reload = do_reload t ?id:None () in
                      let adopted =
                        match reload with
                        | Json.Obj fields ->
                            List.assoc_opt "ok" fields = Some (Json.Bool true)
                        | _ -> false
                      in
                      Proto.ok_response ?id ~op
                        [
                          ("image", Json.Str img.Image.image_id);
                          ("trained", Json.Str note);
                          ("adopted", Json.Bool adopted);
                          ("reload", reload);
                        ]))))

let do_status t ?id () =
  Proto.ok_response ?id ~op:"status"
    [
      ("requests", Json.Int t.requests);
      ("answered", Json.Int t.answered);
      ("pending", Json.Int (Queue.length t.queue));
      ("shed", Json.Int t.shed);
      ("errors", Json.Int t.errors);
      ("restarts", Json.Int t.restarts);
      ("denied", Json.Int t.denied);
      ("reloads", Json.Int t.reloads);
      ("reload_rollbacks", Json.Int t.reload_rollbacks);
      ("learned", Json.Int t.learned);
      ("replayed", Json.Int t.replayed);
      ("journal", Json.Bool (t.journal <> None));
      ("sessions", Json.Int (Hashtbl.length t.sessions));
      ("generation", Json.Int (Cache.generation t.cache));
      ( "breaker",
        Json.Str
          (Res.breaker_state_to_string
             (Res.state t.breaker ~subject:worker_subject)) );
      ( "ring",
        Json.Obj
          [
            ("length", Json.Int (Ring.length t.ring));
            ("capacity", Json.Int (Ring.capacity t.ring));
            ("dropped", Json.Int (Ring.dropped t.ring));
          ] );
      ("draining", Json.Bool (t.state <> Running));
    ]

(* --- telemetry verbs ------------------------------------------------------- *)

let do_metrics t ?id format =
  ignore (Osampler.poll t.sampler);
  let wv = Owindow.view t.lat in
  (* mirror the rolling stats into gauges so one exposition pass (and
     `encore-cli top` reading either format) carries them *)
  Owindow.export wv ~prefix:"serve.window";
  let snap = Ometrics.snapshot () in
  match format with
  | Proto.Prometheus ->
      Proto.ok_response ?id ~op:"metrics"
        [
          ("format", Json.Str "prometheus");
          ("body", Json.Str (Ometrics.snapshot_to_prom snap));
        ]
  | Proto.Json_body ->
      Proto.ok_response ?id ~op:"metrics"
        [
          ("format", Json.Str "json");
          ("window", Owindow.view_json wv);
          ("metrics", Ometrics.snapshot_to_json snap);
        ]

(* The health verdict: worst of the individual signals, each of which
   contributes a human-readable reason.  Degraded means the daemon is
   answering but robustness machinery engaged or latency drifted;
   unhealthy means new work is effectively not being served. *)
let health t =
  let wv = Owindow.view t.lat in
  let occupancy =
    float_of_int (Queue.length t.queue)
    /. float_of_int (max 1 t.config.queue_capacity)
  in
  let breaker = Res.state t.breaker ~subject:worker_subject in
  let level = ref 0 and reasons = ref [] in
  let flag lvl reason =
    if lvl > !level then level := lvl;
    reasons := reason :: !reasons
  in
  (match breaker with
  | Res.Open ->
      flag 1 "worker breaker open: check/watch denied during backoff"
  | Res.Half_open -> flag 1 "worker breaker half-open: probing with one trial"
  | Res.Closed -> ());
  if wv.Owindow.w_count > 0 && wv.Owindow.w_p99 > t.config.health_p99_us then
    flag 1
      (Printf.sprintf "rolling p99 %.0fus exceeds threshold %.0fus"
         wv.Owindow.w_p99 t.config.health_p99_us);
  if occupancy >= 1.0 then flag 2 "queue full: requests are being shed"
  else if occupancy >= 0.75 then
    flag 1 (Printf.sprintf "queue %.0f%% occupied" (occupancy *. 100.0));
  if breaker = Res.Open && occupancy >= 1.0 then
    flag 2 "worker quarantined with a full queue: not serving";
  (match t.state with
  | Running -> ()
  | Draining -> flag 1 "draining: no new requests admitted"
  | Stopped -> flag 2 "stopped");
  let verdict =
    match !level with 0 -> "ok" | 1 -> "degraded" | _ -> "unhealthy"
  in
  (verdict, List.rev !reasons, wv, occupancy, breaker)

let health_verdict t =
  let verdict, reasons, _, _, _ = health t in
  (verdict, reasons)

let do_health t ?id () =
  ignore (Osampler.poll t.sampler);
  let verdict, reasons, wv, occupancy, breaker = health t in
  Proto.ok_response ?id ~op:"health"
    [
      ("health", Json.Str verdict);
      ("reasons", Json.Arr (List.map (fun r -> Json.Str r) reasons));
      ("window", Owindow.view_json wv);
      ("queue_occupancy", Json.Float occupancy);
      ("breaker", Json.Str (Res.breaker_state_to_string breaker));
      ("restarts", Json.Int t.restarts);
      ("sessions", Json.Int (Hashtbl.length t.sessions));
    ]

(* Dispatch one parsed request.  Check/watch/crash go through the
   supervised worker; control ops (status, reload, metrics, health,
   shutdown) bypass the breaker so the daemon stays steerable — and
   observable — while the worker is quarantined. *)
let dispatch t ~trace req =
  let id = Proto.request_id req in
  match req with
  | Proto.Status { id } -> do_status t ?id ()
  | Proto.Metrics { id; format } -> do_metrics t ?id format
  | Proto.Health { id } -> do_health t ?id ()
  | Proto.Reload { id } -> do_reload t ?id ()
  | Proto.Shutdown { id } ->
      request_shutdown t;
      Proto.ok_response ?id ~op:"shutdown" [ ("draining", Json.Bool true) ]
  | Proto.Check _ | Proto.Learn_append _ | Proto.Watch _ | Proto.Crash _ ->
      let op = Proto.request_op req in
      if not (Res.allow t.breaker ~subject:worker_subject) then begin
        t.denied <- t.denied + 1;
        Ometrics.incr m_denied;
        Proto.error_response ?id ~op
          (Res.diag Res.Probe_failure ~subject
             "worker circuit open: request denied during restart backoff")
      end
      else begin
        let t0 = Encore_obs.Clock.now_ns () in
        let finish resp =
          let us =
            Int64.to_float (Int64.sub (Encore_obs.Clock.now_ns ()) t0) /. 1e3
          in
          Ometrics.observe h_request_us us;
          Owindow.observe t.lat us;
          resp
        in
        match
          Otrace.with_span "serve-request"
            ~attrs:[ ("op", Json.Str op); ("trace", Json.Str trace) ]
            (fun () ->
              match req with
              | Proto.Check { id; source } -> do_check t ?id source
              | Proto.Learn_append { id; source } ->
                  do_learn_append t ?id source
              | Proto.Watch { id; image_id; app; config } ->
                  do_watch t ?id ~image_id ~app ~config_text:config ()
              | Proto.Crash _ -> raise Injected_crash
              | Proto.Status _ | Proto.Reload _ | Proto.Metrics _
              | Proto.Health _ | Proto.Shutdown _ ->
                  assert false)
        with
        | resp ->
            Res.record_success t.breaker ~subject:worker_subject;
            finish resp
        | exception exn ->
            (* the supervisor: the worker "restarts" — its crash is
               contained to this request, persistent state is still
               consistent (a session changes only once a verdict is
               complete), and the breaker gates how fast we let the
               next request at it *)
            t.restarts <- t.restarts + 1;
            Ometrics.incr m_restarts;
            let detail = Printexc.to_string exn in
            Res.record_failure t.breaker ~subject:worker_subject
              (Res.diag Res.Custom_rule_error ~subject:worker_subject detail);
            finish
              (Proto.error_response ?id ~op
                 (Res.diag Res.Custom_rule_error ~subject
                    ("worker crashed (restarted): " ^ detail)))
      end

(* --- the reactor ---------------------------------------------------------- *)

(* Worker ops are journaled (they mutate committed state and their
   responses must survive a crash); control ops are not — replaying a
   journaled shutdown would re-drain the recovered daemon, and
   status/metrics/health answers are views, not commitments. *)
let journalable req =
  match req with
  | Proto.Check _ | Proto.Watch _ | Proto.Crash _ -> true
  | Proto.Learn_append _ ->
      (* durable through the statistics store its hook persists to;
         replaying it against recovered statistics would double-count
         the image *)
      false
  | Proto.Reload _ | Proto.Status _ | Proto.Metrics _ | Proto.Health _
  | Proto.Shutdown _ ->
      false

let offer_from t ?origin line =
  if t.state <> Running then []
  else if String.trim line = "" then []
  else begin
    t.requests <- t.requests + 1;
    Ometrics.incr m_requests;
    (* every admitted request gets a trace id here, before any outcome
       is known, so even an immediate rejection is joinable against the
       event log *)
    t.trace_seq <- t.trace_seq + 1;
    let trace = Printf.sprintf "t-%06d" t.trace_seq in
    let traced resp = Proto.with_trace (Some trace) resp in
    if String.length line > t.config.max_request_bytes then begin
      (* reject before queueing: queue memory stays bounded by
         capacity * max_request_bytes *)
      t.errors <- t.errors + 1;
      Ometrics.incr m_errors;
      [
        traced
          (Proto.error_response
             (Res.diag Res.Overflow ~subject
                (Printf.sprintf "request is %d bytes (limit %d)"
                   (String.length line) t.config.max_request_bytes)));
      ]
    end
    else if Queue.length t.queue >= t.config.queue_capacity then begin
      t.shed <- t.shed + 1;
      Ometrics.incr m_shed;
      (* a shed is still an answer: echo the correlation id and op when
         the line parses so the client can retry the right request *)
      let id, op =
        match Proto.parse line with
        | Ok req -> (Proto.request_id req, Some (Proto.request_op req))
        | Error _ -> (None, None)
      in
      [
        traced
          (Proto.error_response ?id ?op ~overloaded:true
             (Res.diag Res.Overflow ~subject
                (Printf.sprintf "queue full (%d pending): request shed"
                   (Queue.length t.queue))));
      ]
    end
    else begin
      (* WAL: the request record — trace id included, so a replay emits
         byte-identical responses — is durable before the queue sees
         it.  Shed and oversize rejections above are deliberately not
         journaled: they were answered immediately and commit nothing. *)
      let seq =
        match t.journal with
        | Some j
          when (match Proto.parse line with
               | Ok req -> journalable req
               | Error _ -> false) ->
            Some (Journal.append j (trace ^ " " ^ line))
        | _ -> None
      in
      Queue.push { q_trace = trace; q_origin = origin; q_seq = seq; q_line = line }
        t.queue;
      Ometrics.set_max m_queue_depth (float_of_int (Queue.length t.queue));
      []
    end
  end

let offer t line = offer_from t line

(* Process one queued request, tagging each response with the origin it
   must be routed to (None = default sink).  A SIGHUP-requested reload
   runs ahead of queue work so a storm cannot starve it. *)
let step_routed t =
  ignore (Osampler.poll t.sampler);
  if t.reload_requested then begin
    t.reload_requested <- false;
    [ (None, do_reload t ()) ]
  end
  else
    match Queue.take_opt t.queue with
    | None -> []
    | Some { q_trace = trace; q_origin; q_seq; q_line = line } -> (
        let traced resp = Proto.with_trace (Some trace) resp in
        let finish resps =
          (match (t.journal, q_seq) with
          | Some j, Some seq -> Journal.mark_done j seq
          | _ -> ());
          t.answered <- t.answered + 1;
          List.map (fun r -> (q_origin, r)) resps
        in
        match Proto.parse line with
        | Error d ->
            t.errors <- t.errors + 1;
            Ometrics.incr m_errors;
            finish [ traced (Proto.error_response d) ]
        | Ok req ->
            (match req with
            | Proto.Check _ -> Ring.push t.recent_checks line
            | _ -> ());
            finish [ traced (dispatch t ~trace req) ])

let step t = List.map snd (step_routed t)

(* --- crash recovery -------------------------------------------------------- *)

(* Re-execute journaled entries in admission order against a fresh
   server.  Completed entries rebuild committed state (alert ring,
   watch sessions, counters) without re-emitting — their responses were
   already delivered; uncompleted entries are the requests a crash
   swallowed, so their responses are produced again, byte-identical
   (the journaled trace id is reused) to what the uninterrupted run
   would have sent.  The caller decides delivery through [emit], which
   sees every entry with its replayed responses. *)
let replay t ~entries ~emit =
  List.iter
    (fun (e : Journal.entry) ->
      let trace, line =
        match String.index_opt e.Journal.payload ' ' with
        | Some sp ->
            ( String.sub e.Journal.payload 0 sp,
              String.sub e.Journal.payload (sp + 1)
                (String.length e.Journal.payload - sp - 1) )
        | None -> (e.Journal.payload, "")
      in
      (* keep fresh admissions from colliding with replayed trace ids *)
      (if String.length trace > 2 then
         match int_of_string_opt (String.sub trace 2 (String.length trace - 2))
         with
         | Some n when n > t.trace_seq -> t.trace_seq <- n
         | _ -> ());
      t.requests <- t.requests + 1;
      Ometrics.incr m_requests;
      t.replayed <- t.replayed + 1;
      Ometrics.incr m_journal_replayed;
      let traced resp = Proto.with_trace (Some trace) resp in
      let resps =
        match Proto.parse line with
        | Error d ->
            t.errors <- t.errors + 1;
            Ometrics.incr m_errors;
            [ traced (Proto.error_response d) ]
        | Ok req ->
            (match req with
            | Proto.Check _ -> Ring.push t.recent_checks line
            | _ -> ());
            [ traced (dispatch t ~trace req) ]
      in
      t.answered <- t.answered + 1;
      (match t.journal with
      | Some j when not e.Journal.completed -> Journal.mark_done j e.Journal.seq
      | _ -> ());
      emit e resps)
    entries;
  List.length entries

let drain_flush t =
  let alerts = Ring.drain t.ring in
  let bye =
    Proto.ok_response ~op:"bye"
      [
        ("requests", Json.Int t.requests);
        ("answered", Json.Int t.answered);
        ("shed", Json.Int t.shed);
        ("errors", Json.Int t.errors);
        ("restarts", Json.Int t.restarts);
        ("alerts_flushed", Json.Int (List.length alerts));
        ("ring_dropped", Json.Int (Ring.dropped t.ring));
        ("replayed", Json.Int t.replayed);
      ]
  in
  t.state <- Stopped;
  (* clean shutdown: every journaled entry was answered, so the next
     start has nothing to replay *)
  (match t.journal with Some j -> Journal.reset j | None -> ());
  alerts @ [ bye ]

let run t ~recv ~send =
  let emit = List.iter send in
  let rec ingest () =
    match t.state with
    | Draining | Stopped -> ()
    | Running -> (
        (* block only when there is nothing queued to work on; once a
           line arrives, drain the transport greedily so a burst lands
           on the bounded queue (and sheds) instead of lingering in the
           kernel buffer *)
        match recv ~wait:(Queue.is_empty t.queue) with
        | `Line line ->
            emit (offer t line);
            ingest ()
        | `Overflow ->
            emit [ frame_overflow t ];
            ingest ()
        | `Eof -> request_shutdown t
        | `Idle -> ())
  in
  let rec loop () =
    match t.state with
    | Stopped -> exit_code t
    | Draining ->
        if Queue.is_empty t.queue then begin
          emit (drain_flush t);
          loop ()
        end
        else begin
          emit (step t);
          loop ()
        end
    | Running ->
        ingest ();
        emit (step t);
        loop ()
  in
  loop ()
