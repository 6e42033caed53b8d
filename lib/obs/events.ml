type sink = Nil | Channel of out_channel | Buffer of Buffer.t

let sink_ref = ref Nil

let set_sink s = sink_ref := s

let sink () = !sink_ref

let enabled () = match !sink_ref with Nil -> false | Channel _ | Buffer _ -> true

(* JSONL lines may be emitted from pool worker domains (a span stream
   sink finishing spans concurrently); serialize writes so lines never
   interleave mid-record. *)
let mu = Mutex.create ()

let write_line line =
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () ->
      match !sink_ref with
      | Nil -> ()
      | Channel oc ->
          output_string oc line;
          output_char oc '\n'
      | Buffer b ->
          Buffer.add_string b line;
          Buffer.add_char b '\n')

let emit ?(fields = []) kind =
  if enabled () then
    write_line
      (Jsonenc.to_string
         (Jsonenc.Obj
            (("ts_ns", Jsonenc.Int (Int64.to_int (Clock.now_ns ())))
             :: ("ev", Jsonenc.Str kind)
             :: fields)))

let emit_span sp = emit ~fields:(Trace.to_fields sp) "span"

let stream_spans () = Trace.set_sink (Trace.Stream emit_span)

let emit_diag ~kind ~subject ~detail =
  emit "diag"
    ~fields:
      [
        ("diag_kind", Jsonenc.Str kind);
        ("subject", Jsonenc.Str subject);
        ("detail", Jsonenc.Str detail);
      ]

let emit_rollback ~from_path ~to_path ~error =
  emit "snapshot_rollback"
    ~fields:
      [
        ("from", Jsonenc.Str from_path);
        ("to", Jsonenc.Str to_path);
        ("error", Jsonenc.Str error);
      ]

let emit_deadline ~stage ~reason =
  emit "deadline"
    ~fields:[ ("stage", Jsonenc.Str stage); ("reason", Jsonenc.Str reason) ]

let emit_fleet ~images_total ~images_checked ~warnings ~status =
  emit "fleet_report"
    ~fields:
      [
        ("images_total", Jsonenc.Int images_total);
        ("images_checked", Jsonenc.Int images_checked);
        ("warnings", Jsonenc.Int warnings);
        ("status", Jsonenc.Str status);
      ]

let emit_metrics () =
  if enabled () then
    emit "metric_snapshot"
      ~fields:[ ("metrics", Metrics.snapshot_to_json (Metrics.snapshot ())) ]
