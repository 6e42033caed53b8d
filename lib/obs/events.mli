(** Append-only structured event log (JSONL).

    Every line is one JSON object with at least [ts_ns] (from {!Clock})
    and [ev] (the event kind); remaining fields are kind-specific.  The
    stable kinds are documented in DESIGN.md §7: [span], [diag],
    [retry], [breaker_trip], [ingest_report], [metric_snapshot].  With
    the default {!Nil} sink every emitter is a no-op. *)

type sink = Nil | Channel of out_channel | Buffer of Buffer.t

val set_sink : sink -> unit
val sink : unit -> sink
val enabled : unit -> bool

val write_line : string -> unit
(** Append one pre-rendered line verbatim (used to replay captured
    logs into an outer sink). *)

val emit : ?fields:(string * Jsonenc.t) list -> string -> unit
(** [emit kind ~fields] appends [{"ts_ns":…,"ev":kind,…fields}]. *)

val emit_span : Trace.span -> unit
(** One [span] event with the flat fields of {!Trace.to_fields}. *)

val stream_spans : unit -> unit
(** Point the trace sink at this event log: every finished span
    becomes a [span] event. *)

val emit_diag : kind:string -> subject:string -> detail:string -> unit
(** One [diag] event; [kind] is a resilience error-kind string. *)

val emit_rollback : from_path:string -> to_path:string -> error:string -> unit
(** One [snapshot_rollback] event: the store abandoned [from_path]
    (which failed verification with [error]) for [to_path]. *)

val emit_deadline : stage:string -> reason:string -> unit
(** One [deadline] event: the pipeline stopped at [stage] because the
    execution budget expired ([reason] from
    [Deadline.reason_to_string]). *)

val emit_fleet :
  images_total:int -> images_checked:int -> warnings:int -> status:string ->
  unit
(** One [fleet_report] event summarizing a fleet check: images offered
    and actually checked, total warnings, and the run status
    (["completed"] or ["timed-out"]). *)

val emit_metrics : unit -> unit
(** One [metric_snapshot] event carrying {!Metrics.snapshot}. *)
