(** Resilience layer: typed ingestion errors, deterministic
    retry-with-backoff, and a per-subject circuit breaker.

    Production-scale training corpora are messy — images arrive with
    malformed configuration files, unreadable metadata and flaky
    collectors.  Every fallible step of the ingestion pipeline reports
    through the {!diagnostic} type instead of raising, so the pipeline
    stays total: one bad image can never kill a run.

    All backoff "delays" are virtual (accumulated milliseconds computed
    from a seeded PRNG), never wall-clock sleeps: a retry schedule is
    reproducible from the seed alone. *)

type error_kind =
  | Parse_error        (** malformed configuration text or records *)
  | Probe_failure      (** environment probe failed or metadata unreadable *)
  | Corrupt_image      (** content damaged beyond recovery (garbage bytes) *)
  | Overflow           (** a bounded computation hit its cap and truncated *)
  | Custom_rule_error  (** user customization file rejected *)
  | Timed_out          (** a deadline expired before the work finished *)

val all_kinds : error_kind list
val kind_to_string : error_kind -> string

type diagnostic = {
  kind : error_kind;
  subject : string;  (** what failed: image id, file path or attribute *)
  detail : string;
}

val diag : error_kind -> subject:string -> string -> diagnostic
val diagnostic_to_string : diagnostic -> string

val histogram : diagnostic list -> (error_kind * int) list
(** Count per kind, in {!all_kinds} order, zero-count kinds included —
    so histograms from different runs always align column-wise. *)

val histogram_total : (error_kind * int) list -> int

(* --- integrity scanning ------------------------------------------------- *)

val scan_text : subject:string -> string -> diagnostic list
(** Content-integrity check for a collected text file.  Control bytes
    (outside tab/newline/CR) mean the payload was damaged in transit
    ([Corrupt_image]); a non-empty file without a trailing newline was
    truncated mid-record ([Parse_error]), since every collector dump and
    lens render ends with ['\n']. *)

(* --- deterministic retry ------------------------------------------------ *)

type 'a attempt = {
  outcome : ('a, diagnostic) result;  (** last attempt's result *)
  retries : int;          (** retries performed (0 = first try succeeded) *)
  backoff_ms : int;       (** total virtual backoff accumulated *)
}

val with_retries :
  ?max_retries:int ->
  ?base_delay_ms:int ->
  ?retry_on:error_kind list ->
  rng:Prng.t ->
  (attempt:int -> ('a, diagnostic) result) ->
  'a attempt
(** [with_retries ~rng f] runs [f ~attempt:0], retrying on failure up to
    [max_retries] (default 3) more times with exponential backoff
    [base_delay_ms * 2^n] (default 10) plus PRNG jitter.  Only failures
    whose kind is in [retry_on] (default [[Probe_failure]]) are retried:
    a corrupt payload will not heal, but a flaky probe may. *)

(* --- circuit breaker ---------------------------------------------------- *)

type breaker
(** Per-subject circuit breaker.  A subject's circuit is [Closed] until
    [threshold] failures accumulate, then [Open]: callers should stop
    spending retries on it.  After [cooldown] denied probes ({!allow}
    returning [false]) the circuit moves to [Half_open] and admits one
    trial — a success closes it again, a failure re-opens it. *)

type breaker_state = Closed | Open | Half_open

val breaker_state_to_string : breaker_state -> string

val breaker : ?threshold:int -> ?cooldown:int -> unit -> breaker
(** [threshold] defaults to 3; [cooldown] (minimum 1) defaults to 3. *)

val record_failure : breaker -> subject:string -> diagnostic -> unit
(** Count a failure.  Opens the circuit at [threshold] failures, and
    re-opens a half-open circuit immediately (the trial failed). *)

val record_success : breaker -> subject:string -> unit
(** A success closes the circuit and clears the failure count. *)

val state : breaker -> subject:string -> breaker_state

val allow : breaker -> subject:string -> bool
(** Should the caller probe this subject?  [Closed] and [Half_open]
    always admit; [Open] denies until [cooldown] denials have
    accumulated, then flips to [Half_open] and admits the trial. *)

val tripped : breaker -> subject:string -> bool
(** The circuit is not [Closed]. *)

val quarantined : breaker -> (string * diagnostic list) list
(** Subjects whose circuit is currently open or half-open, with their
    recorded diagnostics, in first-trip order.  Subjects whose circuit
    closed again after tripping are excluded. *)
