(** Trace analysis: turn a JSONL event log (or in-memory span trees)
    into a per-stage wall-time breakdown.

    Wall time is the duration sum of the outermost (lowest-depth)
    spans; a "stage" is a span one level below that, grouped by name.
    The coverage percentage says how much of the wall time the stage
    spans account for — an instrumentation-completeness check.  It
    counts the union of the stage spans' intervals, so stages that ran
    side by side on pool domains count once; a stage's own [pct] is
    its busy time and may sum past 100 with others. *)

type stage = {
  stage_name : string;
  total_ns : int;
  calls : int;
  pct : float;  (** of wall time *)
}

type t = {
  wall_ns : int;
  span_count : int;
  event_count : int;
  bad_lines : int;       (** unparseable or incomplete JSONL lines *)
  truncated : bool;
      (** the source file ended mid-line (writer killed mid-record);
          the torn final line was skipped, not counted in [bad_lines] *)
  stages : stage list;   (** descending by total time *)
  covered_ns : int;
      (** wall time inside some stage span: the union of their
          intervals, plus the whole duration of any span logged
          without a start time *)
  coverage_pct : float;  (** [covered_ns] of [wall_ns] *)
  slowest : (string * int * int) list;  (** (name, dur_ns, depth), top-k *)
  event_kinds : (string * int) list;    (** [ev] value -> count *)
  diag_kinds : (string * int) list;     (** [diag] events by [diag_kind] *)
}

val of_lines : ?top:int -> ?truncated:bool -> string list -> t
(** [top] bounds the slowest-span list (default 10); [truncated]
    (default false) marks the summary as built from a torn log. *)

val of_file : ?top:int -> string -> (t, string) result
(** Tolerates a file ending mid-line: the torn final line is dropped
    and the summary's [truncated] flag set, so a log from a daemon
    killed mid-write still summarizes. *)

val of_spans : ?top:int -> ?truncated:bool -> Trace.span list -> t
(** Summarize {!Trace.roots} collected by the memory sink.
    [truncated] (default false) marks the summary as built from a torn
    source — same semantics as {!of_lines}, so in-memory and replayed
    summaries agree on the flag. *)

val to_string : t -> string
