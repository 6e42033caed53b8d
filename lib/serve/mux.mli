(** Select-driven multi-client transport over the serve reactor.

    Replaces the one-client accept loop: each connection gets an
    independent line reader and a write buffer, admission into the
    server's bounded queue is round-robin across connections, and
    responses are routed back by origin through
    {!Server.offer_from} / {!Server.step_routed}.

    Robustness bounds, per connection:
    - short writes and [EAGAIN] keep the remainder buffered and counted
      ([serve.short_writes]) — a response line is never silently
      truncated to a live peer;
    - a peer that stops reading is evicted once its pending output
      exceeds [max_write_buffer];
    - a slowloris peer — holding a partial frame without progress for
      [idle_polls_budget] polls — is evicted; idle connections with no
      partial frame are never charged;
    - an unterminated frame past the server's [max_request_bytes]
      ({!Server.max_request_bytes}) is answered with
      {!Server.frame_overflow} and the stream discards to the next
      newline;
    - a half-closed peer still receives the responses to its admitted
      requests before its socket closes, and EOF with a torn trailing
      frame delivers that frame for a typed rejection.

    Drain is deterministic: when the server finishes its queue after
    shutdown, every surviving connection receives the flushed alerts
    and the bye summary (bounded settle), then sockets close and
    {!stopped} holds.

    Metrics: [serve.connections_active] (gauge),
    [serve.connections_accepted], [serve.connections_evicted],
    [serve.short_writes], [serve.send_truncated]. *)

type config = {
  max_connections : int;  (** accepted sockets beyond this wait in the
                              kernel backlog *)
  read_chunk_bytes : int;
  idle_polls_budget : int;  (** slowloris eviction threshold *)
  max_write_buffer : int;  (** pending output bound per connection *)
  tick_s : float;  (** select timeout when [wait] *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?listen_fd:Unix.file_descr ->
  ?orphan:(Encore_obs.Jsonenc.t -> unit) ->
  Server.t ->
  t
(** [listen_fd] (made nonblocking) accepts new clients; omit it and
    feed sockets with {!adopt} for in-process drills.  [orphan]
    receives responses with no live origin: internally generated ones
    (SIGHUP reload), responses to {!Server.offer} lines (filesystem
    watcher deltas), and the drain summary of a clientless daemon. *)

val adopt : t -> Unix.file_descr -> int
(** Register an already-connected socket (made nonblocking) as a
    client; returns its connection id. *)

val step : ?wait:bool -> t -> unit
(** One reactor turn: select, read, admit round-robin, process the
    server queue, route and flush responses, charge hostile-client
    budgets, finish the drain when the server empties.  [wait:false]
    polls without blocking (deterministic drivers). *)

val run : t -> int
(** {!step} until drained; returns the server's exit code. *)

val stopped : t -> bool
(** The drain finished: every connection got its bye and closed. *)

val connection_count : t -> int

val shutdown_fds : t -> unit
(** Close every connection and the listener (abnormal teardown). *)
