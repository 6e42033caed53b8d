(* Select-driven multi-client transport for the serve reactor.

   The mux owns the file descriptors; the server stays transport-free.
   Each connection gets an independent line reader (partial frames
   accumulate per connection, never bleed across clients) and a write
   buffer drained with a short-write/EAGAIN-correct loop.  Admission
   into the server's bounded queue is round-robin across connections so
   one firehose client cannot starve the others.  Hostile clients are
   bounded: a connection holding a partial frame for more than
   [idle_polls_budget] polls (slowloris) or growing its pending output
   past [max_write_buffer] (never reads) is evicted; an unterminated
   frame past the server's [max_request_bytes] is answered with the
   server's typed overflow and the connection discards bytes until the
   next newline.  Drain is deterministic: every surviving connection
   receives the flushed alerts and the bye summary before its socket
   closes. *)

module Json = Encore_obs.Jsonenc
module Ometrics = Encore_obs.Metrics

type config = {
  max_connections : int;
  read_chunk_bytes : int;
  idle_polls_budget : int;
  max_write_buffer : int;
  tick_s : float;
}

let default_config =
  {
    max_connections = 64;
    read_chunk_bytes = 4096;
    idle_polls_budget = 2000;
    max_write_buffer = 1 lsl 22;
    tick_s = 0.25;
  }

type conn = {
  cid : int;
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* bytes of the current partial frame *)
  lines : string Queue.t;  (* complete frames awaiting admission *)
  mutable discarding : bool;
      (* an oversized unterminated frame was rejected; drop bytes until
         the next newline resynchronizes the stream *)
  mutable rd_open : bool;
  mutable out : string list;  (* pending output, head first *)
  mutable out_off : int;  (* bytes of the head already written *)
  mutable out_bytes : int;
  mutable idle_polls : int;  (* polls since the partial frame grew *)
  mutable closed : bool;
}

type t = {
  mconfig : config;
  server : Server.t;
  max_frame : int;  (* the server's max_request_bytes *)
  listen_fd : Unix.file_descr option;
  conns : (int, conn) Hashtbl.t;
  mutable order : int list;  (* cids in accept order *)
  mutable rr : int;  (* round-robin admission offset *)
  mutable next_cid : int;
  mutable stopped : bool;
  orphan : Json.t -> unit;  (* responses with no (live) origin *)
}

let m_conns_active = Ometrics.gauge "serve.connections_active"
let m_conns_accepted = Ometrics.counter "serve.connections_accepted"
let m_conns_evicted = Ometrics.counter "serve.connections_evicted"
let m_short_writes = Ometrics.counter "serve.short_writes"
let m_send_truncated = Ometrics.counter "serve.send_truncated"

let create ?(config = default_config) ?listen_fd ?(orphan = fun _ -> ())
    server =
  Option.iter Unix.set_nonblock listen_fd;
  {
    mconfig = config;
    server;
    max_frame = Server.max_request_bytes server;
    listen_fd;
    conns = Hashtbl.create 16;
    order = [];
    rr = 0;
    next_cid = 0;
    stopped = false;
    orphan;
  }

let connection_count t = Hashtbl.length t.conns
let stopped t = t.stopped

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let remove_conn t (c : conn) =
  if not c.closed then begin
    c.closed <- true;
    close_fd c.fd;
    Hashtbl.remove t.conns c.cid;
    t.order <- List.filter (fun cid -> cid <> c.cid) t.order;
    Ometrics.set m_conns_active (float_of_int (Hashtbl.length t.conns))
  end

let evict t (c : conn) =
  (* pending output dies with the connection: responses already queued
     for a hostile client are truncated, and counted as such *)
  if c.out <> [] then Ometrics.incr m_send_truncated;
  Ometrics.incr m_conns_evicted;
  remove_conn t c

let adopt t fd =
  Unix.set_nonblock fd;
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  let c =
    {
      cid;
      fd;
      rbuf = Buffer.create 256;
      lines = Queue.create ();
      discarding = false;
      rd_open = true;
      out = [];
      out_off = 0;
      out_bytes = 0;
      idle_polls = 0;
      closed = false;
    }
  in
  Hashtbl.replace t.conns cid c;
  t.order <- t.order @ [ cid ];
  Ometrics.incr m_conns_accepted;
  Ometrics.set m_conns_active (float_of_int (Hashtbl.length t.conns));
  cid

(* --- writing --------------------------------------------------------------- *)

let enqueue_out t (c : conn) s =
  if not c.closed then begin
    c.out <- c.out @ [ s ];
    c.out_bytes <- c.out_bytes + String.length s;
    if c.out_bytes > t.mconfig.max_write_buffer then
      (* the client stopped reading; holding its output unboundedly
         would let one dead peer exhaust the daemon *)
      evict t c
  end

(* Drain as much pending output as the socket accepts right now.  Short
   writes keep the remainder buffered (counted); EAGAIN stops quietly;
   a dead peer truncates and closes. *)
let flush_writes t (c : conn) =
  let rec go () =
    match c.out with
    | [] -> ()
    | head :: rest -> (
        let remaining = String.length head - c.out_off in
        match Unix.write_substring c.fd head c.out_off remaining with
        | n ->
            c.out_bytes <- c.out_bytes - n;
            if n = remaining then begin
              c.out <- rest;
              c.out_off <- 0;
              go ()
            end
            else begin
              Ometrics.incr m_short_writes;
              c.out_off <- c.out_off + n
            end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (_, _, _) ->
            Ometrics.incr m_send_truncated;
            remove_conn t c)
  in
  if not c.closed then go ()

let response_line resp = Json.to_string resp ^ "\n"

let route t (origin, resp) =
  match origin with
  | Some cid when Hashtbl.mem t.conns cid ->
      let c = Hashtbl.find t.conns cid in
      enqueue_out t c (response_line resp);
      flush_writes t c
  | _ -> t.orphan resp

(* --- reading --------------------------------------------------------------- *)

(* Split buffered bytes into frames, honouring discard mode and the
   per-connection frame bound. *)
let ingest_bytes t (c : conn) s =
  let flush_line () =
    let line = Buffer.contents c.rbuf in
    Buffer.clear c.rbuf;
    c.idle_polls <- 0;
    if c.discarding then c.discarding <- false else Queue.push line c.lines
  in
  String.iter
    (fun ch ->
      if ch = '\n' then flush_line ()
      else if not c.discarding then begin
        Buffer.add_char c.rbuf ch;
        if Buffer.length c.rbuf > t.max_frame then begin
          (* flood containment: answer a typed overflow now, drop what
             accumulated, skip the rest of this frame *)
          Buffer.clear c.rbuf;
          c.discarding <- true;
          enqueue_out t c (response_line (Server.frame_overflow t.server));
          flush_writes t c
        end
      end)
    s;
  if String.length s > 0 then c.idle_polls <- 0

let read_conn t (c : conn) =
  let chunk = Bytes.create t.mconfig.read_chunk_bytes in
  let rec go () =
    if c.closed || not c.rd_open then ()
    else
      match Unix.read c.fd chunk 0 (Bytes.length chunk) with
      | 0 ->
          c.rd_open <- false;
          (* a torn final frame still gets an answer: deliver it as a
             line so the server can reject it with a typed error *)
          if Buffer.length c.rbuf > 0 && not c.discarding then begin
            Queue.push (Buffer.contents c.rbuf) c.lines;
            Buffer.clear c.rbuf
          end
      | n ->
          ingest_bytes t c (Bytes.sub_string chunk 0 n);
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> remove_conn t c
  in
  go ()

(* --- admission ------------------------------------------------------------- *)

(* Round-robin: starting at a rotating offset, admit one frame per
   connection per pass until every buffered frame is admitted.  The
   server's bounded queue does the actual back-pressure (shed
   responses come back immediately and are routed to the sender). *)
let admit_frames t =
  let order = Array.of_list t.order in
  let n = Array.length order in
  if n > 0 then begin
    t.rr <- (t.rr + 1) mod n;
    let progress = ref true in
    while !progress do
      progress := false;
      for i = 0 to n - 1 do
        let cid = order.((i + t.rr) mod n) in
        match Hashtbl.find_opt t.conns cid with
        | None -> ()
        | Some c -> (
            match Queue.take_opt c.lines with
            | None -> ()
            | Some line ->
                progress := true;
                List.iter
                  (fun resp -> route t (Some cid, resp))
                  (Server.offer_from t.server ~origin:cid line))
      done
    done
  end

(* --- lifecycle ------------------------------------------------------------- *)

let accept_ready t =
  match t.listen_fd with
  | None -> ()
  | Some sfd ->
      let rec go () =
        if
          Server.state t.server = `Running
          && Hashtbl.length t.conns < t.mconfig.max_connections
        then
          match Unix.accept sfd with
          | fd, _ ->
              ignore (adopt t fd);
              go ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (_, _, _) -> ()
      in
      go ()

let live_conns t =
  Hashtbl.fold (fun _ c acc -> if c.closed then acc else c :: acc) t.conns []

(* The slowloris budget charges only connections holding a partial
   frame: an idle-but-framed client (a resident `top`, a quiet watcher)
   costs nothing and lives forever. *)
let charge_idle t =
  List.iter
    (fun (c : conn) ->
      if Buffer.length c.rbuf > 0 && not c.discarding then begin
        c.idle_polls <- c.idle_polls + 1;
        if c.idle_polls > t.mconfig.idle_polls_budget then evict t c
      end)
    (live_conns t)

let broadcast t resps =
  List.iter
    (fun (c : conn) ->
      List.iter (fun r -> enqueue_out t c (response_line r)) resps;
      flush_writes t c)
    (live_conns t);
  (* the default sink sees the drain too: a daemon with zero clients
     still reports its bye summary *)
  if live_conns t = [] then List.iter t.orphan resps

let finish_drain t =
  let resps = Server.drain_flush t.server in
  broadcast t resps;
  (* give every surviving connection a bounded chance to take its bye:
     poll writability until all buffers empty or progress stops *)
  let budget = ref 200 in
  let rec settle () =
    let pending =
      List.filter (fun (c : conn) -> c.out <> []) (live_conns t)
    in
    if pending <> [] && !budget > 0 then begin
      decr budget;
      let fds = List.map (fun (c : conn) -> c.fd) pending in
      (match Unix.select [] fds [] 0.05 with
      | _, ws, _ ->
          List.iter
            (fun (c : conn) -> if List.mem c.fd ws then flush_writes t c)
            pending
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      settle ()
    end
  in
  settle ();
  List.iter
    (fun (c : conn) ->
      if c.out <> [] then Ometrics.incr m_send_truncated;
      remove_conn t c)
    (live_conns t);
  t.stopped <- true

(* One reactor turn: wait for readiness (unless [wait] is false), pull
   bytes, admit frames fairly, process the whole queue, route
   responses, flush writers, charge slowloris budgets, and finish the
   drain when the server empties out. *)
let step ?(wait = true) t =
  if not t.stopped then begin
    let conns = live_conns t in
    let rds =
      (match t.listen_fd with
      | Some sfd when Server.state t.server = `Running -> [ sfd ]
      | _ -> [])
      @ List.filter_map
          (fun (c : conn) -> if c.rd_open then Some c.fd else None)
          conns
    in
    let wrs =
      List.filter_map
        (fun (c : conn) -> if c.out <> [] then Some c.fd else None)
        conns
    in
    let timeout = if wait then t.mconfig.tick_s else 0.0 in
    (match Unix.select rds wrs [] timeout with
    | rs, ws, _ ->
        (match t.listen_fd with
        | Some sfd when List.mem sfd rs -> accept_ready t
        | _ -> ());
        List.iter
          (fun (c : conn) -> if List.mem c.fd rs then read_conn t c)
          conns;
        List.iter
          (fun (c : conn) ->
            if (not c.closed) && List.mem c.fd ws then flush_writes t c)
          conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    admit_frames t;
    let rec drain_queue () =
      match Server.step_routed t.server with
      | [] -> ()
      | resps ->
          List.iter (route t) resps;
          drain_queue ()
    in
    drain_queue ();
    charge_idle t;
    (* a client that half-closed after its last frame is done once its
       output drains *)
    List.iter
      (fun (c : conn) ->
        if
          (not c.closed) && (not c.rd_open)
          && Queue.is_empty c.lines && c.out = []
          && Buffer.length c.rbuf = 0
        then remove_conn t c)
      (live_conns t);
    if Server.state t.server = `Draining && Server.pending t.server = 0 then
      finish_drain t
  end

let run t =
  while not t.stopped do
    step t
  done;
  Server.exit_code t.server

let shutdown_fds t =
  List.iter (fun (c : conn) -> remove_conn t c) (live_conns t);
  Option.iter close_fd t.listen_fd
