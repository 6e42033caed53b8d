module Res = Encore_util.Resilience
module Prng = Encore_util.Prng
module Otrace = Encore_obs.Trace
module Ometrics = Encore_obs.Metrics
module Oevents = Encore_obs.Events
module Json = Encore_obs.Jsonenc
module Image = Encore_sysenv.Image
module Flaky = Encore_sysenv.Flaky
module Registry = Encore_confparse.Registry
module Assemble = Encore_dataset.Assemble
module Detector = Encore_detect.Detector
module Template = Encore_rules.Template

type model = Detector.model

let templates_result custom =
  match custom with
  | None -> Ok Template.predefined
  | Some text -> (
      match Encore_rules.Customfile.parse text with
      | Ok parsed ->
          Ok (Template.predefined @ parsed.Encore_rules.Customfile.templates)
      | Error e ->
          Error
            (Res.diag Res.Custom_rule_error ~subject:"customization file"
               (Printf.sprintf "line %d: %s" e.Encore_rules.Customfile.line
                  e.Encore_rules.Customfile.message)))

(* Run [f] with the caller's pool, a transient pool of [config.jobs]
   workers, or none (sequential) — the learned artifacts are identical
   in all three cases. *)
let with_configured_pool ~config pool f =
  match pool with
  | Some _ -> f pool
  | None when config.Config.jobs > 1 ->
      Encore_util.Pool.with_pool ?chunk:config.Config.chunk
        ~jobs:config.Config.jobs (fun p -> f (Some p))
  | None -> f None

let learn_result ?(config = Config.default) ?custom ?pool images =
  match templates_result custom with
  | Error d -> Error d
  | Ok templates ->
      Ok
        (with_configured_pool ~config pool (fun pool ->
             Detector.learn
               ~params:(Config.rule_params config)
               ~templates
               ~entropy_threshold:config.Config.entropy_threshold ?pool images))

let learn ?config ?custom ?pool images =
  match learn_result ?config ?custom ?pool images with
  | Ok model -> model
  | Error d -> invalid_arg (d.Res.subject ^ ", " ^ d.Res.detail)

(* --- mergeable sufficient-statistics learning ----------------------------- *)

let stats_of_images ?(config = Config.default) ?pool ?shards images =
  with_configured_pool ~config pool (fun pool ->
      Encore_rules.Suffstats.of_images ?pool ?shards images)

let learner_result ?(config = Config.default) ?custom ?pool ?mining_cap:_
    stats =
  match templates_result custom with
  | Error d -> Error d
  | Ok templates ->
      Ok
        (with_configured_pool ~config pool (fun pool ->
             Encore_rules.Suffstats.learner_of ?pool
               ~params:(Config.rule_params config)
               ~templates
               ~entropy_threshold:config.Config.entropy_threshold stats))

let learn_append ?(config = Config.default) ?pool learner images =
  with_configured_pool ~config pool (fun pool ->
      Encore_rules.Suffstats.append ?pool learner images)

let model_of_learner learner =
  Detector.model_of_finalized (Encore_rules.Suffstats.current learner)

let learn_sharded_result ?config ?custom ?pool ?shards images =
  let stats = stats_of_images ?config ?pool ?shards images in
  match learner_result ?config ?custom ?pool stats with
  | Error d -> Error d
  | Ok learner -> Ok (model_of_learner learner, learner)

let check ?config:_ model img = Detector.check model img

let detections ?(config = Config.default) model img =
  List.filter
    (fun w -> w.Encore_detect.Warning.score >= config.Config.detection_score)
    (check model img)

(* --- resilient ingestion ------------------------------------------------- *)

type mode = Keep_going | Fail_fast

let mode_to_string = function
  | Keep_going -> "keep-going"
  | Fail_fast -> "fail-fast"

type run_status = Completed | Timed_out_at of Checkpoint.stage

let run_status_to_string = function
  | Completed -> "completed"
  | Timed_out_at stage -> "timed-out:" ^ Checkpoint.stage_to_string stage

type ingest_report = {
  total : int;
  ok : int;
  quarantined : (string * Res.diagnostic list) list;
  retried : int;
  total_backoff_ms : int;
  warnings : Res.diagnostic list;
  histogram : (Res.error_kind * int) list;
  status : run_status;
}

type outcome = {
  model : Detector.model option;
  report : ingest_report;
  resumed : Checkpoint.stage list;
  checkpointed : Checkpoint.stage list;
}

let default_mining_cap = 100_000

(* --- ingestion telemetry -------------------------------------------------- *)

let m_images_total = Ometrics.counter "ingest.images_total"
let m_images_ok = Ometrics.counter "ingest.images_ok"
let m_images_quarantined = Ometrics.counter "ingest.images_quarantined"
let m_retries = Ometrics.counter "ingest.retries"
let m_backoff_ms = Ometrics.counter "ingest.backoff_ms"
let m_warnings = Ometrics.counter "ingest.warnings"

let emit_report_telemetry report =
  List.iter
    (fun (d : Res.diagnostic) ->
      Oevents.emit_diag
        ~kind:(Res.kind_to_string d.Res.kind)
        ~subject:d.Res.subject ~detail:d.Res.detail)
    (List.concat_map snd report.quarantined @ report.warnings);
  Oevents.emit "ingest_report"
    ~fields:
      [
        ("total", Json.Int report.total);
        ("ok", Json.Int report.ok);
        ("quarantined", Json.Int (List.length report.quarantined));
        ("retried", Json.Int report.retried);
        ("backoff_ms", Json.Int report.total_backoff_ms);
        ("status", Json.Str (run_status_to_string report.status));
      ]

let learn_durable ?(config = Config.default) ?custom ?(mode = Keep_going)
    ?max_retries ?flaky ?pool ?checkpoint ?resume
    ?(deadline = Encore_util.Deadline.none) ?kill_after images =
  with_configured_pool ~config pool
  @@ fun pool ->
  Otrace.with_span "learn"
    ~attrs:[ ("images", Json.Int (List.length images)) ]
  @@ fun () ->
  let ( let* ) = Result.bind in
  let* templates = templates_result custom in
  let fp =
    Checkpoint.fingerprint ~config ~custom ~mode:(mode_to_string mode)
      ~max_retries images
  in
  let resumed = ref [] and checkpointed = ref [] in
  (* Persist runs after a stage completes; the kill-at-checkpoint hook
     fires right after the write, so a "crashed" run always left a
     loadable checkpoint behind. *)
  let persist stage save =
    match checkpoint with
    | None -> ()
    | Some ck ->
        save ck;
        checkpointed := !checkpointed @ [ stage ];
        if kill_after = Some stage then raise (Checkpoint.Simulated_crash stage)
  in
  let restore stage load =
    match resume with
    | None -> None
    | Some ck -> (
        match load ck with
        | Some v ->
            resumed := !resumed @ [ stage ];
            Some v
        | None -> None)
  in
  let flaky =
    match flaky with
    | Some f -> f
    | None -> Flaky.reliable ~rng:(Prng.create (config.Config.seed + 101))
  in
  (* one fatal diagnostic is enough to distrust an image for training *)
  let breaker = Res.breaker ~threshold:1 () in
  let retried = ref 0 and backoff = ref 0 in
  (* newest-first; read through [warnings ()] — appending per image
     made warning accumulation quadratic in the fleet size *)
  let warnings_rev = ref [] in
  let add_warnings ds =
    List.iter (fun d -> warnings_rev := d :: !warnings_rev) ds
  in
  let warnings () = List.rev !warnings_rev in
  let probe_with sim img =
    Encore_util.Deadline.raise_if_expired deadline;
    Otrace.with_span "probe"
      ~attrs:[ ("image", Json.Str img.Image.image_id) ]
      (fun () -> Flaky.collect_with_retries ?max_retries sim img)
  in
  let probe img =
    let att = probe_with flaky img in
    retried := !retried + att.Res.retries;
    backoff := !backoff + att.Res.backoff_ms;
    att.Res.outcome
  in
  let parse img =
    Otrace.with_span "parse"
      ~attrs:[ ("image", Json.Str img.Image.image_id) ]
      (fun () -> Registry.parse_image_diag img)
  in
  (* Fail-fast path: probe and parse strictly interleaved, aborting on
     the first fatal diagnostic, exactly as a sequential run would —
     the flaky simulator's PRNG must not be drawn for images past the
     failure point. *)
  let rec ingest_fail_fast acc = function
    | [] -> Ok (List.rev acc)
    | img :: rest -> (
        let id = img.Image.image_id in
        match probe img with
        | Error d ->
            Res.record_failure breaker ~subject:id d;
            Error d
        | Ok (_records, probe_diags) -> (
            add_warnings probe_diags;
            let parsed = parse img in
            match parsed.Registry.fatal with
            | first :: _ -> Error first
            | [] ->
                add_warnings parsed.Registry.warnings;
                Res.record_success breaker ~subject:id;
                ingest_fail_fast (img :: acc) rest))
  in
  (* Keep-going path, in three phases, all pool-parallel.  Probing used
     to stay sequential because the flaky simulator owned one PRNG
     stream whose draw order defined reproducibility; instead each
     image now probes against its own fork of that stream, taken in
     image order before fan-out — a stable (seed, image-index) stream —
     so draws are identical no matter which domain runs the probe or
     how the pool interleaves tasks.  The final merge walks images in
     order, so the breaker's quarantine list, the warning order, the
     retry/backoff totals and the ingest report are byte-identical to a
     sequential run at any [--jobs]. *)
  let ingest_keep_going () =
    let with_sims = List.map (fun img -> (img, Flaky.fork flaky)) images in
    let probe_task (img, sim) = (img, probe_with sim img) in
    let attempts =
      match pool with
      | Some p -> Encore_util.Pool.map p probe_task with_sims
      | None -> List.map probe_task with_sims
    in
    let probed =
      List.map
        (fun (img, (att : _ Res.attempt)) ->
          retried := !retried + att.Res.retries;
          backoff := !backoff + att.Res.backoff_ms;
          (img, att.Res.outcome))
        attempts
    in
    let to_parse =
      List.filter_map
        (fun (img, outcome) ->
          match outcome with Ok _ -> Some img | Error _ -> None)
        probed
    in
    let parsed =
      match pool with
      | Some p -> Encore_util.Pool.map p (fun img -> (img, parse img)) to_parse
      | None -> List.map (fun img -> (img, parse img)) to_parse
    in
    (* [parsed] is the Ok-subsequence of [probed] in the same order, so
       the merge consumes it head-first — the [List.assq] it replaces
       rescanned the list per image. *)
    let remaining = ref parsed in
    let next_parsed img =
      match !remaining with
      | (img', p) :: tl when img' == img ->
          remaining := tl;
          Some p
      | _ -> None
    in
    let survivors =
      List.filter_map
        (fun (img, outcome) ->
          let id = img.Image.image_id in
          match outcome with
          | Error d ->
              Res.record_failure breaker ~subject:id d;
              None
          | Ok (_records, probe_diags) -> (
              add_warnings probe_diags;
              match next_parsed img with
              | None -> None
              | Some parsed -> (
                  match parsed.Registry.fatal with
                  | _ :: _ as fatal ->
                      List.iter
                        (fun d -> Res.record_failure breaker ~subject:id d)
                        fatal;
                      None
                  | [] ->
                      add_warnings parsed.Registry.warnings;
                      Res.record_success breaker ~subject:id;
                      Some img)))
        probed
    in
    Ok survivors
  in
  let current = ref Checkpoint.Ingest in
  let ingest_state : Checkpoint.ingest_state option ref = ref None in
  (* One report builder for every way a run can end, so the histogram
     and the metric counters always reconcile with the diagnostics. *)
  let build_report ~status ~extra_warnings () =
    let quarantined, base_warnings, ret, back, ok =
      match !ingest_state with
      | Some st ->
          ( st.Checkpoint.quarantined, st.Checkpoint.warnings,
            st.Checkpoint.retried, st.Checkpoint.total_backoff_ms,
            List.length st.Checkpoint.survivor_ids )
      | None -> ([], warnings (), !retried, !backoff, 0)
    in
    let warnings = base_warnings @ extra_warnings in
    let all_diags = List.concat_map snd quarantined @ warnings in
    {
      total = List.length images;
      ok;
      quarantined;
      retried = ret;
      total_backoff_ms = back;
      warnings;
      histogram = Res.histogram all_diags;
      status;
    }
  in
  let finalize report =
    Ometrics.incr ~by:report.total m_images_total;
    Ometrics.incr ~by:report.retried m_retries;
    Ometrics.incr ~by:report.total_backoff_ms m_backoff_ms;
    Ometrics.incr ~by:report.ok m_images_ok;
    Ometrics.incr ~by:(List.length report.quarantined) m_images_quarantined;
    Ometrics.incr ~by:(List.length report.warnings) m_warnings;
    Otrace.with_span "report" (fun () -> emit_report_telemetry report);
    if Oevents.enabled () then Oevents.emit_metrics ();
    report
  in
  let run () =
    (* --- stage 1: ingest -------------------------------------------- *)
    current := Checkpoint.Ingest;
    Encore_util.Deadline.raise_if_expired deadline;
    let* st =
      match
        restore Checkpoint.Ingest (fun ck ->
            Checkpoint.load_ingest ck ~fingerprint:fp)
      with
      | Some st -> Ok st
      | None ->
          let* survivors =
            Otrace.with_span "ingest" (fun () ->
                match mode with
                | Fail_fast -> ingest_fail_fast [] images
                | Keep_going -> ingest_keep_going ())
          in
          let st =
            {
              Checkpoint.survivor_ids =
                List.map (fun img -> img.Image.image_id) survivors;
              quarantined = Res.quarantined breaker;
              warnings = warnings ();
              retried = !retried;
              total_backoff_ms = !backoff;
            }
          in
          persist Checkpoint.Ingest (fun ck ->
              Checkpoint.save_ingest ck ~fingerprint:fp st);
          Ok st
    in
    ingest_state := Some st;
    let survivors =
      (* hashed membership: the [List.mem] filter it replaces was
         quadratic in the fleet size *)
      let ids = Hashtbl.create (List.length st.Checkpoint.survivor_ids) in
      List.iter
        (fun id -> Hashtbl.replace ids id ())
        st.Checkpoint.survivor_ids;
      List.filter (fun img -> Hashtbl.mem ids img.Image.image_id) images
    in
    match survivors with
    | [] ->
        ignore
          (finalize
             (build_report ~status:Completed ~extra_warnings:[] ()));
        Error
          (Res.diag Res.Corrupt_image ~subject:"training population"
             (Printf.sprintf
                "all %d image(s) quarantined; nothing to learn from"
                (List.length images)))
    | _ ->
        (* Post-ingest stages key their checkpoints on the survivor set
           the ingest stage actually produced, so a resume after a
           flaky run cannot reuse artifacts from a different one. *)
        let sfp =
          Checkpoint.stage_fingerprint ~fingerprint:fp
            ~survivor_ids:st.Checkpoint.survivor_ids
            ~quarantined_ids:(List.map fst st.Checkpoint.quarantined)
        in
        (* --- stage 2: assemble -------------------------------------- *)
        current := Checkpoint.Assemble;
        Encore_util.Deadline.raise_if_expired deadline;
        let assembled =
          match
            restore Checkpoint.Assemble (fun ck ->
                Checkpoint.load_assemble ck ~fingerprint:sfp)
          with
          | Some a -> a
          | None ->
              let a =
                Otrace.with_span "assemble" (fun () ->
                    Assemble.assemble_training ?pool survivors)
              in
              persist Checkpoint.Assemble (fun ck ->
                  Checkpoint.save_assemble ck ~fingerprint:sfp a);
              a
        in
        (* --- stage 3: model ----------------------------------------- *)
        current := Checkpoint.Model;
        Encore_util.Deadline.raise_if_expired deadline;
        let model =
          match
            restore Checkpoint.Model (fun ck ->
                Checkpoint.load_model ck ~fingerprint:sfp)
          with
          | Some m -> m
          | None ->
              let rows = Encore_dataset.Table.rows assembled.Assemble.table in
              let training =
                List.map2 (fun img (_, row) -> (img, row)) survivors rows
              in
              let model =
                Detector.model_of_training
                  ~params:(Config.rule_params config)
                  ~templates
                  ~entropy_threshold:config.Config.entropy_threshold ?pool
                  ~types:assembled.Assemble.types training
              in
              persist Checkpoint.Model (fun ck ->
                  Checkpoint.save_model ck ~fingerprint:sfp model);
              model
        in
        let report =
          finalize (build_report ~status:Completed ~extra_warnings:[] ())
        in
        Ok
          {
            model = Some model;
            report;
            resumed = !resumed;
            checkpointed = !checkpointed;
          }
  in
  let with_pool_deadline f =
    match pool with
    | Some p -> Encore_util.Pool.with_deadline p deadline f
    | None -> f ()
  in
  match with_pool_deadline run with
  | result -> result
  | exception Encore_util.Deadline.Expired reason ->
      (* graceful degradation: every completed stage already has its
         checkpoint on disk; report how far the run got *)
      let stage = !current in
      Oevents.emit_deadline
        ~stage:(Checkpoint.stage_to_string stage)
        ~reason:(Encore_util.Deadline.reason_to_string reason);
      let timeout_warning =
        Res.diag Res.Timed_out
          ~subject:(Checkpoint.stage_to_string stage)
          (Printf.sprintf "deadline expired (%s) during the %s stage"
             (Encore_util.Deadline.reason_to_string reason)
             (Checkpoint.stage_to_string stage))
      in
      let report =
        finalize
          (build_report ~status:(Timed_out_at stage)
             ~extra_warnings:[ timeout_warning ] ())
      in
      Ok
        {
          model = None;
          report;
          resumed = !resumed;
          checkpointed = !checkpointed;
        }

let learn_resilient ?config ?custom ?mode ?max_retries ?flaky ?pool images =
  match learn_durable ?config ?custom ?mode ?max_retries ?flaky ?pool images with
  | Error d -> Error d
  | Ok { model = Some model; report; _ } -> Ok (model, report)
  | Ok { model = None; _ } ->
      (* unreachable: without a deadline the pipeline cannot time out *)
      Error
        (Res.diag Res.Timed_out ~subject:"pipeline"
           "pipeline timed out without a deadline")

let exit_code = function
  | Error _ -> 1
  | Ok { report; _ } ->
      if report.status <> Completed || report.quarantined <> [] then 3 else 0

let report_to_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "ingested %d/%d image(s); %d quarantined; %d probe retrie(s), %d ms \
        virtual backoff\n"
       r.ok r.total
       (List.length r.quarantined)
       r.retried r.total_backoff_ms);
  Buffer.add_string buf "error histogram:";
  List.iter
    (fun (kind, n) ->
      Buffer.add_string buf
        (Printf.sprintf " %s=%d" (Res.kind_to_string kind) n))
    r.histogram;
  Buffer.add_char buf '\n';
  List.iter
    (fun (subject, diags) ->
      let cause =
        match diags with
        | d :: _ -> Res.diagnostic_to_string d
        | [] -> "unknown"
      in
      Buffer.add_string buf
        (Printf.sprintf "quarantined %s: %s\n" subject cause))
    r.quarantined;
  (match r.status with
   | Completed -> ()
   | Timed_out_at stage ->
       Buffer.add_string buf
         (Printf.sprintf
            "degraded: deadline expired during the %s stage; completed \
             stages were checkpointed\n"
            (Checkpoint.stage_to_string stage)));
  Buffer.contents buf

(* --- degraded-mode checking ---------------------------------------------- *)

type degraded_check = {
  result : Encore_detect.Warning.t list;
  notes : string list;  (** degradations that limit detection coverage *)
}

(* --- fleet checking (the serving path) ----------------------------------- *)

type fleet_image_report = {
  fi_image : string;
  fi_warnings : Encore_detect.Warning.t list;
  fi_detections : int;
}

type fleet_status = Fleet_completed | Fleet_timed_out

let fleet_status_to_string = function
  | Fleet_completed -> "completed"
  | Fleet_timed_out -> "timed-out"

type fleet_report = {
  fleet_total : int;
  fleet_checked : int;
  fleet_warning_count : int;
  fleet_detection_count : int;
  fleet_images : fleet_image_report list;
  fleet_status : fleet_status;
}

let m_fleet_images = Ometrics.counter "fleet.images_checked"
let m_fleet_warnings = Ometrics.counter "fleet.warnings"

let fleet_image_line r =
  Json.to_string
    (Json.Obj
       [
         ("image", Json.Str r.fi_image);
         ("warnings", Json.Int (List.length r.fi_warnings));
         ("detections", Json.Int r.fi_detections);
         ( "items",
           Json.Arr (List.map Encore_detect.Report.warning_json r.fi_warnings)
         );
       ])

let check_fleet ?(config = Config.default) ?pool
    ?(deadline = Encore_util.Deadline.none) ?stream model targets =
  with_configured_pool ~config pool
  @@ fun pool ->
  Otrace.with_span "check-fleet"
    ~attrs:[ ("images", Json.Int (List.length targets)) ]
  @@ fun () ->
  (* compile once; the engine is immutable, so the worker domains share
     it without copies *)
  let engine = Encore_detect.Engine.compile model in
  let check_one img =
    let ws = Encore_detect.Engine.check engine img in
    {
      fi_image = img.Image.image_id;
      fi_warnings = ws;
      fi_detections =
        List.length
          (List.filter
             (fun (w : Encore_detect.Warning.t) ->
               w.Encore_detect.Warning.score >= config.Config.detection_score)
             ws);
    }
  in
  let emit_batch rs =
    match stream with
    | None -> ()
    | Some out -> List.iter (fun r -> out (fleet_image_line r)) rs
  in
  let result =
    match pool with
    | Some p ->
        Encore_util.Pool.map_batched p ~deadline ~yield:emit_batch check_one
          targets
    | None ->
        (* sequential serving: the deadline stops between images, so the
           partial report covers a prefix of the targets — the same
           shape the pooled path produces at batch granularity *)
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | img :: rest -> (
              match
                Encore_util.Deadline.raise_if_expired deadline;
                check_one img
              with
              | r ->
                  emit_batch [ r ];
                  go (r :: acc) rest
              | exception Encore_util.Deadline.Expired _ ->
                  Error (List.rev acc))
        in
        go [] targets
  in
  let images, status =
    match result with
    | Ok rs -> (rs, Fleet_completed)
    | Error rs -> (rs, Fleet_timed_out)
  in
  let warning_count =
    List.fold_left (fun n r -> n + List.length r.fi_warnings) 0 images
  in
  let detection_count =
    List.fold_left (fun n r -> n + r.fi_detections) 0 images
  in
  Ometrics.incr ~by:(List.length images) m_fleet_images;
  Ometrics.incr ~by:warning_count m_fleet_warnings;
  (match status with
  | Fleet_completed -> ()
  | Fleet_timed_out ->
      let reason =
        match Encore_util.Deadline.status deadline with
        | Some r -> Encore_util.Deadline.reason_to_string r
        | None -> "timed-out"
      in
      Oevents.emit_deadline ~stage:"check-fleet" ~reason);
  Oevents.emit_fleet
    ~images_total:(List.length targets)
    ~images_checked:(List.length images)
    ~warnings:warning_count
    ~status:(fleet_status_to_string status);
  {
    fleet_total = List.length targets;
    fleet_checked = List.length images;
    fleet_warning_count = warning_count;
    fleet_detection_count = detection_count;
    fleet_images = images;
    fleet_status = status;
  }

let fleet_exit_code r =
  match r.fleet_status with Fleet_completed -> 0 | Fleet_timed_out -> 3

let fleet_report_to_string r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "checked %d/%d image(s): %d warning(s), %d detection(s)\n"
       r.fleet_checked r.fleet_total r.fleet_warning_count
       r.fleet_detection_count);
  List.iter
    (fun i ->
      match i.fi_warnings with
      | [] -> ()
      | top :: _ ->
          Buffer.add_string buf
            (Printf.sprintf "  %s: %d warning(s), top: %s\n" i.fi_image
               (List.length i.fi_warnings)
               top.Encore_detect.Warning.message))
    r.fleet_images;
  (match r.fleet_status with
  | Fleet_completed -> ()
  | Fleet_timed_out ->
      Buffer.add_string buf
        (Printf.sprintf
           "degraded: deadline expired after %d of %d image(s); partial \
            report above\n"
           r.fleet_checked r.fleet_total));
  Buffer.contents buf

let check_degraded ?config ?report model img =
  let result =
    match config with
    | Some config -> check ~config model img
    | None -> check model img
  in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (match report with
  | Some r when r.quarantined <> [] ->
      note
        "%d of %d training image(s) quarantined: value statistics cover less \
         of the corpus"
        (List.length r.quarantined) r.total
  | Some _ | None -> ());
  (match report with
  | Some r
    when List.exists
           (fun (d : Res.diagnostic) -> d.Res.kind = Res.Custom_rule_error)
           (List.concat_map snd r.quarantined) ->
      note "a custom lens failed during ingestion: its app's entries are absent"
  | Some _ | None -> ());
  let learned_classes =
    List.sort_uniq compare
      (List.map
         (fun (r : Template.rule) -> r.Template.template.Template.tname)
         model.Detector.rules)
  in
  let missing =
    List.filter
      (fun (t : Template.t) -> not (List.mem t.Template.tname learned_classes))
      Template.predefined
  in
  if missing <> [] then
    note "no rules learned for template class(es) %s: their violations cannot \
          be flagged"
      (String.concat ", "
         (List.map (fun (t : Template.t) -> t.Template.tname) missing));
  { result; notes = List.rev !notes }
