type error_kind =
  | Parse_error
  | Probe_failure
  | Corrupt_image
  | Overflow
  | Custom_rule_error
  | Timed_out

let all_kinds =
  [
    Parse_error; Probe_failure; Corrupt_image; Overflow; Custom_rule_error;
    Timed_out;
  ]

let kind_to_string = function
  | Parse_error -> "parse-error"
  | Probe_failure -> "probe-failure"
  | Corrupt_image -> "corrupt-image"
  | Overflow -> "overflow"
  | Custom_rule_error -> "custom-rule-error"
  | Timed_out -> "timed-out"

type diagnostic = { kind : error_kind; subject : string; detail : string }

let diag kind ~subject detail = { kind; subject; detail }

let diagnostic_to_string d =
  Printf.sprintf "[%s] %s: %s" (kind_to_string d.kind) d.subject d.detail

let histogram diags =
  List.map
    (fun kind ->
      (kind, List.length (List.filter (fun d -> d.kind = kind) diags)))
    all_kinds

let histogram_total h = List.fold_left (fun acc (_, n) -> acc + n) 0 h

(* --- integrity scanning ------------------------------------------------- *)

let control_byte c =
  match c with '\n' | '\t' | '\r' -> false | c -> Char.code c < 0x20

let scan_text ~subject text =
  let n = String.length text in
  let garbage = ref 0 in
  String.iter (fun c -> if control_byte c then incr garbage) text;
  let corrupt =
    if !garbage > 0 then
      [ diag Corrupt_image ~subject
          (Printf.sprintf "%d garbage byte(s) in %d-byte payload" !garbage n) ]
    else []
  in
  let truncated =
    if n > 0 && text.[n - 1] <> '\n' then
      [ diag Parse_error ~subject "truncated: payload ends mid-record" ]
    else []
  in
  corrupt @ truncated

(* --- deterministic retry ------------------------------------------------ *)

type 'a attempt = {
  outcome : ('a, diagnostic) result;
  retries : int;
  backoff_ms : int;
}

let m_retries = Encore_obs.Metrics.counter "resilience.retries"

let with_retries ?(max_retries = 3) ?(base_delay_ms = 10)
    ?(retry_on = [ Probe_failure ]) ~rng f =
  let rec go attempt backoff =
    match f ~attempt with
    | Ok v -> { outcome = Ok v; retries = attempt; backoff_ms = backoff }
    | Error d when attempt < max_retries && List.mem d.kind retry_on ->
        (* exponential backoff with jitter, accumulated virtually: the
           schedule is part of the deterministic experiment, not a sleep *)
        let delay =
          (base_delay_ms * (1 lsl attempt)) + Prng.int rng (max 1 base_delay_ms)
        in
        Encore_obs.Metrics.incr m_retries;
        Encore_obs.Events.emit "retry"
          ~fields:
            [
              ("subject", Encore_obs.Jsonenc.Str d.subject);
              ("diag_kind", Encore_obs.Jsonenc.Str (kind_to_string d.kind));
              ("attempt", Encore_obs.Jsonenc.Int attempt);
              ("delay_ms", Encore_obs.Jsonenc.Int delay);
            ];
        go (attempt + 1) (backoff + delay)
    | Error d -> { outcome = Error d; retries = attempt; backoff_ms = backoff }
  in
  go 0 0

(* --- circuit breaker ---------------------------------------------------- *)

type breaker_state = Closed | Open | Half_open

let breaker_state_to_string = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type circuit = {
  mutable diags : diagnostic list;  (* newest first *)
  mutable circuit_state : breaker_state;
  mutable denied : int;  (* probes denied since the circuit opened *)
}

type breaker = {
  threshold : int;
  cooldown : int;
  circuits : (string, circuit) Hashtbl.t;
  mutable trip_order : string list;  (* reverse order of first trip *)
}

let breaker ?(threshold = 3) ?(cooldown = 3) () =
  {
    threshold;
    cooldown = max 1 cooldown;
    circuits = Hashtbl.create 16;
    trip_order = [];
  }

let circuit b subject =
  match Hashtbl.find_opt b.circuits subject with
  | Some c -> c
  | None ->
      let c = { diags = []; circuit_state = Closed; denied = 0 } in
      Hashtbl.add b.circuits subject c;
      c

let m_breaker_trips = Encore_obs.Metrics.counter "resilience.breaker_trips"

(* State-transition counters: the serve supervisor's breaker-gated
   backoff is driven by these edges, so export each one.  The target
   state names the counter; the source state is implied (the machine
   has one edge into each state apart from re-opening from half-open,
   which still lands in [to_open]). *)
let m_breaker_to_open = Encore_obs.Metrics.counter "resilience.breaker_to_open"

let m_breaker_to_half_open =
  Encore_obs.Metrics.counter "resilience.breaker_to_half_open"

let m_breaker_to_closed =
  Encore_obs.Metrics.counter "resilience.breaker_to_closed"

let record_failure b ~subject d =
  let c = circuit b subject in
  c.diags <- d :: c.diags;
  let opening =
    match c.circuit_state with
    | Half_open -> true  (* the trial probe failed: straight back to open *)
    | Open -> false
    | Closed -> List.length c.diags >= b.threshold
  in
  if opening then begin
    c.circuit_state <- Open;
    c.denied <- 0;
    if not (List.mem subject b.trip_order) then
      b.trip_order <- subject :: b.trip_order;
    Encore_obs.Metrics.incr m_breaker_trips;
    Encore_obs.Metrics.incr m_breaker_to_open;
    Encore_obs.Events.emit "breaker_trip"
      ~fields:
        [
          ("subject", Encore_obs.Jsonenc.Str subject);
          ("failures", Encore_obs.Jsonenc.Int (List.length c.diags));
          ("diag_kind", Encore_obs.Jsonenc.Str (kind_to_string d.kind));
        ]
  end

let record_success b ~subject =
  match Hashtbl.find_opt b.circuits subject with
  | None -> ()
  | Some c ->
      if c.circuit_state <> Closed then
        Encore_obs.Metrics.incr m_breaker_to_closed;
      c.diags <- [];
      c.circuit_state <- Closed;
      c.denied <- 0

let state b ~subject =
  match Hashtbl.find_opt b.circuits subject with
  | Some c -> c.circuit_state
  | None -> Closed

let tripped b ~subject = state b ~subject <> Closed

let allow b ~subject =
  match Hashtbl.find_opt b.circuits subject with
  | None -> true
  | Some c -> (
      match c.circuit_state with
      | Closed | Half_open -> true
      | Open ->
          c.denied <- c.denied + 1;
          if c.denied >= b.cooldown then begin
            c.circuit_state <- Half_open;
            Encore_obs.Metrics.incr m_breaker_to_half_open;
            true
          end
          else false)

let quarantined b =
  List.filter_map
    (fun subject ->
      match Hashtbl.find_opt b.circuits subject with
      | Some c when c.circuit_state <> Closed ->
          Some (subject, List.rev c.diags)
      | Some _ | None -> None)
    (List.rev b.trip_order)
