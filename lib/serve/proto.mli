(** The serve daemon's wire protocol: JSONL request/response.

    One JSON object per line in both directions.  Requests carry an
    [op] field and an optional correlation [id] (echoed back);
    responses carry [ok] plus either a verdict or a typed error whose
    [error] field is an {!Encore_util.Resilience.error_kind} string.

    Request shapes:
    - [{"op":"check","image":<dump>}] or [{"op":"check","path":<file>}]
      — check one collector image dump, inline or on disk;
    - [{"op":"learn-append","image":<dump>}] or
      [{"op":"learn-append","path":<file>}] — fold one observed image
      into the daemon's learning statistics (continuous learning) and
      adopt the refreshed model via the shadow-validated reload;
    - [{"op":"watch","image":<id>,"app":<app>,"config":<text>}] —
      replace one app's config text on a previously checked image and
      check the result in full;
    - [{"op":"reload"}] — re-read the model from the provider and
      invalidate stale engines;
    - [{"op":"status"}] — counters, ring and breaker state;
    - [{"op":"metrics","format":"prometheus"|"json"}] — a metrics
      scrape: Prometheus exposition text in a [body] field (default),
      or the JSON snapshot plus the rolling window view;
    - [{"op":"health"}] — rolling health verdict (ok / degraded /
      unhealthy) with the reasons listed;
    - [{"op":"shutdown"}] — drain the queue, flush the alert ring, exit;
    - [{"op":"crash"}] — fault injection: the worker raises mid-request
      (chaos drills exercise the supervisor with it).

    Every response to an admitted request additionally carries a
    [trace] field — the per-request trace id the server assigned at
    {!Server.offer} — joining the response to the [serve-request] span
    in the JSONL event log. *)

type check_source = Inline of string | Path of string

type metrics_format = Prometheus | Json_body

type request =
  | Check of { id : string option; source : check_source }
  | Learn_append of { id : string option; source : check_source }
      (** fold one observed image into the daemon's learning statistics
          and adopt the refreshed model through the shadow-validated
          reload path *)
  | Watch of {
      id : string option;
      image_id : string;
      app : string;
      config : string;
    }
  | Reload of { id : string option }
  | Status of { id : string option }
  | Metrics of { id : string option; format : metrics_format }
  | Health of { id : string option }
  | Shutdown of { id : string option }
  | Crash of { id : string option }

val request_op : request -> string
val request_id : request -> string option

val ops : string list
(** Every accepted [op] value, for help/error text. *)

val parse : string -> (request, Encore_util.Resilience.diagnostic) result
(** Parse one request line.  Never raises: malformed JSON, a missing
    or unknown [op], and missing operands all yield a [Parse_error]
    diagnostic (the server answers with {!error_response}). *)

val ok_response :
  ?id:string -> op:string -> (string * Encore_obs.Jsonenc.t) list ->
  Encore_obs.Jsonenc.t
(** [{"ok":true,"id":..,"op":..,<fields>}]. *)

val error_response :
  ?id:string ->
  ?op:string ->
  ?overloaded:bool ->
  Encore_util.Resilience.diagnostic ->
  Encore_obs.Jsonenc.t
(** [{"ok":false,...,"error":<kind>,"detail":..}]; [overloaded:true]
    marks a load-shed rejection. *)

val verdict_response :
  ?id:string ->
  op:string ->
  image:string ->
  partial:bool ->
  detections:int ->
  Encore_detect.Warning.t list ->
  Encore_obs.Jsonenc.t
(** A check/watch verdict: warning count, detection count, ranked
    [items] (each rendered by {!Encore_detect.Report.warning_json}),
    [partial:true] when a deadline cut the check short. *)

val with_trace : string option -> Encore_obs.Jsonenc.t -> Encore_obs.Jsonenc.t
(** Stamp a trace id onto a finished response object (appended last);
    identity on [None] or a non-object. *)

val alert_json :
  image:string -> Encore_detect.Warning.t -> Encore_obs.Jsonenc.t
(** One ring entry: the warning's wire shape plus [ev:"alert"] and the
    image id — the line format of the shutdown flush. *)
