(** Execution budgets and cooperative cancellation.

    A deadline is a token threaded through the pipeline stages and the
    {!Pool} task loops: long-running work polls it between units of
    work and aborts cooperatively when the budget is exhausted or the
    caller cancels.  Nothing is preempted — a run always stops at a
    clean boundary, which is what lets the pipeline report the stage it
    reached and [Timed_out] instead of dying mid-stage.

    Time flows through {!Encore_obs.Clock.now_ns} (monotonic,
    test-pluggable).  For fully deterministic tests and chaos drills,
    {!after_polls} expires after a fixed number of polls, independent of
    any clock. *)

type reason =
  | Timed_out   (** the monotonic budget ran out *)
  | Cancelled   (** {!cancel} was called *)

val reason_to_string : reason -> string

exception Expired of reason
(** Raised by {!raise_if_expired}; internal control flow only — every
    public pipeline entry point catches it and returns a degraded
    result. *)

type t

val none : t
(** Never expires, never cancelled (unless {!cancel} is called). *)

val of_budget_s : float -> t
(** Expires [budget] seconds of monotonic clock after creation.  A
    non-positive budget is already expired. *)

val at_ns : int64 -> t
(** Expires when {!Encore_obs.Clock.now_ns} reaches the given absolute
    timestamp. *)

val after_polls : int -> t
(** Deterministic trigger: the first [n] calls to {!status} /
    {!expired} / {!raise_if_expired} / {!guard} see the token alive;
    every later call sees it timed out.  Clock-free, for tests and
    chaos drills. *)

val cancel : t -> unit
(** Flip the token to [Cancelled].  Thread-safe; wins over [Timed_out]
    in {!status}. *)

val status : t -> reason option
(** [None] while the token is alive.  This is a poll: for
    {!after_polls} tokens it consumes one allowance. *)

val expired : t -> bool

val raise_if_expired : t -> unit
(** @raise Expired when the token is no longer alive. *)

val guard : t -> (unit, reason) result

val remaining_ns : t -> int64 option
(** Budget left on a clock-based token ([None] for unlimited or
    poll-based tokens); never negative. *)

val is_unlimited : t -> bool
(** [true] only for {!none}-like tokens that can never time out on
    their own (cancellation still applies). *)
