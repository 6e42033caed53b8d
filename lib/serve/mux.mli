(** The serve daemon's one transport loop: a select-driven
    multiplexer over every client connection, the daemon's own
    stdin/stdout included.

    Each connection gets an independent line reader and a write buffer,
    admission into the server's bounded queue is round-robin across
    connections, and responses are routed back by origin through
    {!Server.offer_from} / {!Server.step_routed}.  The same request
    lines get the same answers over stdio and a socket.

    Robustness bounds, per connection:
    - short writes and [EAGAIN] keep the remainder buffered and counted
      ([serve.short_writes]) — a response line is never silently
      truncated to a live peer;
    - a peer that stops reading is evicted once its pending output
      exceeds 4 MiB;
    - a slowloris peer — holding a partial frame without progress for
      [idle_polls_budget] polls — is evicted; idle connections with no
      partial frame are never charged;
    - an unterminated frame past the server's [max_request_bytes]
      ({!Server.max_request_bytes}) is answered once with a typed
      [overflow] error ([serve.frame_overflow]) and the stream discards
      to the next newline; one turn stops reading a connection once it
      has read that many bytes;
    - a half-closed peer still receives the responses to its admitted
      requests (and, during a drain, the bye) before its socket closes,
      and EOF with a torn trailing frame delivers that frame for a
      typed rejection.

    Drain is deterministic: when the server finishes its queue after
    shutdown, every surviving connection receives the flushed alerts
    and the bye summary (bounded settle), then sockets close and
    {!stopped} holds.  A mux without a listening socket starts that
    drain itself once its last open input reaches EOF — after the lines
    read before the EOF are answered, so the bye comes last.

    Metrics: [serve.connections_active] (gauge),
    [serve.connections_accepted], [serve.connections_evicted],
    [serve.short_writes], [serve.send_truncated],
    [serve.frame_overflow]. *)

type config = {
  max_connections : int;  (** accepted sockets beyond this wait in the
                              kernel backlog *)
  idle_polls_budget : int;  (** slowloris eviction threshold *)
}
(** Fixed: reads ask for 4 KiB at a time, and a waiting {!step}
    blocks in [select] for at most 0.25 s. *)

val default_config : config

type t

val create :
  ?config:config ->
  ?listen_fd:Unix.file_descr ->
  ?orphan:(Encore_obs.Jsonenc.t -> unit) ->
  Server.t ->
  t
(** [listen_fd] (made nonblocking) accepts new clients; omit it and
    register connections with {!adopt} or {!attach}, before the first
    {!step}: a mux with no listener and no open input drains.  [orphan]
    receives responses with no live origin: internally generated ones
    (SIGHUP reload), responses to {!Server.offer} lines (filesystem
    watcher deltas), and the drain summary of a clientless daemon. *)

val adopt : t -> Unix.file_descr -> int
(** Register an already-connected socket (made nonblocking, closed with
    the connection) as a client; returns its connection id. *)

val attach : t -> input:Unix.file_descr -> output:Unix.file_descr -> int
(** Register a borrowed descriptor pair — the daemon's inherited stdin
    and stdout — as one client that reads [input] and writes [output];
    returns its connection id.  Their file status flags are left alone,
    since they are shared with the parent process, and the mux never
    closes them.  Reads happen only when select reports [input] ready;
    a blocking [output] holds the loop back while its reader is slow,
    rather than losing a response. *)

val step : ?wait:bool -> t -> unit
(** One reactor turn: select, read, admit round-robin, process the
    server queue, route and flush responses, charge hostile-client
    budgets, finish the drain when the server empties.  [wait:false]
    polls without blocking (deterministic drivers). *)

val run : ?feed:(unit -> string list) -> t -> int
(** {!step} until drained; returns the server's exit code.  Before each
    turn, the request lines [feed] returns (the watch-dir feed) are
    offered with no origin.  {!step} answers every queued request
    before it returns, so [feed] runs only when the queue is empty. *)

val stopped : t -> bool
(** The drain finished: every connection got its bye and closed. *)

val connection_count : t -> int

val shutdown_fds : t -> unit
(** Drop every connection, closing its socket, and close the listener
    (abnormal teardown). *)
