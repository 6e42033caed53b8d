(* Tests for the concurrent serving stack grown in PR 9: the
   write-ahead request journal (framing, torn-tail truncation, replay
   convergence and idempotence), shadow-validated model reload with
   automatic rollback, the select multiplexer's hostile-client bounds
   (slowloris eviction, frame overflow, torn EOF frames, drain byes),
   stdin/stdout as one of its connections over a pipe pair, the
   filesystem watcher, and a QCheck property that interleaved
   multi-client serving answers each client exactly as a serial run
   would. *)

module Image = Encore_sysenv.Image
module Collector = Encore_sysenv.Collector
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Prng = Encore_util.Prng
module Json = Encore_obs.Jsonenc
module Cache = Encore_serve.Cache
module Server = Encore_serve.Server
module Journal = Encore_serve.Journal
module Mux = Encore_serve.Mux
module Fswatch = Encore_serve.Fswatch
module Conferr = Encore_inject.Conferr
module Chaosrun = Encore.Chaosrun

let check = Alcotest.check

(* --- fixtures -------------------------------------------------------------- *)

let model =
  lazy
    (match
       Encore.Pipeline.learn_result
         (Population.clean (Population.generate ~seed:11 Image.Mysql ~n:40))
     with
     | Ok m -> m
     | Error d -> Alcotest.fail d.Encore_util.Resilience.detail)

let target seed id =
  Population.generator_for Image.Mysql Profile.ec2 (Prng.create seed) ~id

let mutate_config rng img =
  let campaign = Conferr.inject rng Image.Mysql img ~n:1 in
  match Image.config_for campaign.Conferr.image Image.Mysql with
  | Some c -> c.Image.text
  | None -> Alcotest.fail "mutant lost its mysql config"

let str_field name j = Option.bind (Json.member name j) Json.to_string_opt

let bool_field name j =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let is_ok j = bool_field "ok" j = Some true

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec scan i = i + n <= l && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let line fields = Json.to_string (Json.Obj fields)

let check_line ?id img =
  let id = match id with Some i -> [ ("id", Json.Str i) ] | None -> [] in
  line
    (("op", Json.Str "check")
    :: id
    @ [ ("image", Json.Str (Collector.image_to_text img)) ])

let op_line ?id op =
  let id = match id with Some i -> [ ("id", Json.Str i) ] | None -> [] in
  line (("op", Json.Str op) :: id)

let tmp_name =
  let counter = ref 0 in
  fun stem ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "encore-mux-%d-%d-%s" (Unix.getpid ()) !counter stem)

let write_raw path text =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  ignore (Unix.write_substring fd text 0 (String.length text));
  Unix.close fd

let mk_cache () = Cache.create ~provider:(fun ~app:_ -> Ok (Lazy.force model))

let make_server ?(config = Server.default_config) ?journal () =
  Server.create ~config ?journal (mk_cache ())

(* --- journal framing and recovery ------------------------------------------ *)

let test_journal_roundtrip () =
  let path = tmp_name "roundtrip.wal" in
  (match Journal.open_ ~path with
  | Error e -> Alcotest.fail e
  | Ok (j, r) ->
      check Alcotest.int "fresh journal is empty" 0
        (List.length r.Journal.entries);
      check Alcotest.int "first seq" 1 (Journal.append j "t-000001 alpha");
      check Alcotest.int "second seq" 2 (Journal.append j "t-000002 beta\nwith newline");
      Journal.mark_done j 1;
      Journal.close j);
  (match Journal.open_ ~path with
  | Error e -> Alcotest.fail e
  | Ok (j, r) ->
      check Alcotest.int "both entries recovered" 2
        (List.length r.Journal.entries);
      check
        Alcotest.(list (pair string bool))
        "payloads and completion marks survive"
        [ ("t-000001 alpha", true); ("t-000002 beta\nwith newline", false) ]
        (List.map
           (fun (e : Journal.entry) -> (e.payload, e.completed))
           r.Journal.entries);
      check Alcotest.bool "no torn tail" true (r.Journal.truncated_at = None);
      (* sequence numbering resumes after the recovered tail *)
      check Alcotest.int "next seq continues" 3 (Journal.append j "t-000003 gamma");
      Journal.close j);
  Sys.remove path

let test_journal_torn_tail_truncated () =
  let path = tmp_name "torn.wal" in
  (match Journal.open_ ~path with
  | Error e -> Alcotest.fail e
  | Ok (j, _) ->
      ignore (Journal.append j "t-000001 alpha");
      ignore (Journal.append j "t-000002 beta");
      Journal.close j);
  let good_size = (Unix.stat path).Unix.st_size in
  (* a crash mid-append: valid header, payload cut short *)
  write_raw path "EJRNL1 R 3 64 0123456789abcdef0123456789abcdef\ntorn";
  (match Journal.open_ ~path with
  | Error e -> Alcotest.fail e
  | Ok (j, r) ->
      check Alcotest.int "good records kept" 2 (List.length r.Journal.entries);
      check Alcotest.bool "tear detected" true (r.Journal.truncated_at <> None);
      check Alcotest.int "file physically truncated" good_size
        (Unix.stat path).Unix.st_size;
      Journal.close j);
  (* a digest mismatch ends the scan at the corrupt record *)
  write_raw path
    (Printf.sprintf "EJRNL1 R 3 5 %s\nhello\n"
       (Digest.to_hex (Digest.string "other")));
  (match Journal.open_ ~path with
  | Error e -> Alcotest.fail e
  | Ok (j, r) ->
      check Alcotest.int "corrupt record dropped" 2
        (List.length r.Journal.entries);
      check Alcotest.bool "corruption counted as a tear" true
        (r.Journal.truncated_at <> None);
      Journal.close j);
  Sys.remove path

(* Crash recovery end to end at the server level: journal a mix of
   alert-producing checks, step only part of it, abandon the server,
   then recover.  Replay must converge on the reference (an
   uninterrupted replay of the same entries) byte-for-byte — responses
   and alert ring — and a second recovery must be idempotent. *)
let test_journal_replay_convergence () =
  let path = tmp_name "replay.wal" in
  let config =
    {
      Server.default_config with
      Server.queue_capacity = 64;
      ring_capacity = 3;
      alert_score = 0.0;
    }
  in
  let rng = Prng.create 51 in
  let lines =
    List.init 8 (fun i ->
        let img = target (700 + i) (Printf.sprintf "rp-%d" i) in
        let drifted = Image.set_config img Image.Mysql (mutate_config rng img) in
        check_line ~id:(Printf.sprintf "c%d" i) drifted)
  in
  (match Journal.open_ ~path with
  | Error e -> Alcotest.fail e
  | Ok (j, _) ->
      let srv = make_server ~config ~journal:j () in
      List.iter (fun l -> ignore (Server.offer srv l)) lines;
      (* the "crash": only three requests answered, the rest queued *)
      for _ = 1 to 3 do
        ignore (Server.step srv)
      done;
      Journal.close j);
  let collect journal entries =
    let srv = make_server ~config ?journal () in
    let emitted = ref [] in
    ignore
      (Server.replay srv ~entries ~emit:(fun (e : Journal.entry) resps ->
           emitted :=
             (e.Journal.seq, e.Journal.completed,
              String.concat "\n" (List.map Json.to_string resps))
             :: !emitted));
    (List.rev !emitted, List.map Json.to_string (Server.alerts srv), srv)
  in
  match Journal.open_ ~path with
  | Error e -> Alcotest.fail e
  | Ok (j2, r) ->
      check Alcotest.int "every offered line journaled" 8
        (List.length r.Journal.entries);
      check Alcotest.int "three completion marks survived" 3
        (List.length
           (List.filter (fun (e : Journal.entry) -> e.completed)
              r.Journal.entries));
      let recovered, ring2, srv2 = collect (Some j2) r.Journal.entries in
      let reference, ring3, _ = collect None r.Journal.entries in
      check Alcotest.bool "replayed responses match the uninterrupted run"
        true
        (List.map (fun (s, _, r) -> (s, r)) recovered
        = List.map (fun (s, _, r) -> (s, r)) reference);
      check Alcotest.(list string) "alert ring byte-identical" ring3 ring2;
      (* the 3-slot ring dropped the oldest replay-inserted alerts *)
      check Alcotest.int "ring kept its bound" 3 (List.length ring2);
      check Alcotest.bool "drop-oldest under replay" true
        (Server.ring_dropped srv2 > 0);
      check Alcotest.int "replayed counter" 8 (Server.replayed_count srv2);
      Journal.close j2;
      (* second restart: everything marked complete, same state again *)
      (match Journal.open_ ~path with
      | Error e -> Alcotest.fail e
      | Ok (j4, r2) ->
          Journal.close j4;
          check Alcotest.bool "all entries completed after recovery" true
            (List.for_all
               (fun (e : Journal.entry) -> e.completed)
               r2.Journal.entries);
          let again, ring4, _ = collect None r2.Journal.entries in
          check Alcotest.bool "second replay idempotent" true
            (List.map (fun (s, _, r) -> (s, r)) again
            = List.map (fun (s, _, r) -> (s, r)) recovered);
          check Alcotest.(list string) "ring idempotent" ring2 ring4);
      Sys.remove path

(* --- shadow-validated reload ----------------------------------------------- *)

let test_reload_shadow_rollback () =
  let good = ref true in
  let cache =
    Cache.create
      ~provider:(fun ~app:_ ->
        if !good then Ok (Lazy.force model) else Error "model store corrupted")
  in
  let srv = Server.create cache in
  let img = target 801 "reload-t" in
  let ask l =
    ignore (Server.offer srv l);
    match Server.step srv with [ r ] -> r | _ -> Alcotest.fail "one response"
  in
  check Alcotest.bool "seed check ok" true (is_ok (ask (check_line ~id:"c" img)));
  let gen0 = Cache.generation cache in
  (* healthy provider: reload passes shadow validation, generation bumps *)
  let r1 = ask (op_line ~id:"r1" "reload") in
  check Alcotest.bool "healthy reload ok" true (is_ok r1);
  check Alcotest.int "generation bumped" (gen0 + 1) (Cache.generation cache);
  (* poisoned provider: the candidate fails, the daemon rolls back *)
  good := false;
  let r2 = ask (op_line ~id:"r2" "reload") in
  check Alcotest.bool "poisoned reload refused" true (not (is_ok r2));
  check Alcotest.bool "refusal is typed and explicit" true
    (match str_field "detail" r2 with
    | Some d -> contains d "reload rejected (rolled back"
    | None -> false);
  check Alcotest.int "generation unchanged on rollback" (gen0 + 1)
    (Cache.generation cache);
  check Alcotest.int "rollback counted" 1 (Server.reload_rollback_count srv);
  (* the old model still serves *)
  check Alcotest.bool "checks still served after rollback" true
    (is_ok (ask (check_line ~id:"c2" img)));
  (* the SIGHUP path: an internally requested reload answers with no
     origin and the same rollback semantics *)
  Server.request_reload srv;
  (match Server.step_routed srv with
  | [ (None, resp) ] ->
      check Alcotest.bool "sighup reload refused too" true (not (is_ok resp))
  | _ -> Alcotest.fail "expected one unrouted reload response");
  good := true

(* --- interleaving property -------------------------------------------------- *)

(* Interleaved multi-client serving is observationally per-client
   serial: whatever order clients' (session-disjoint) requests are
   admitted in, each client's response sequence — modulo the global
   trace ids — is byte-identical to running its requests alone on a
   fresh daemon.  Crash/status ops are excluded: they couple clients
   through global supervisor and counter state by design. *)
let strip_trace j =
  match j with
  | Json.Obj fields ->
      Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "trace") fields))
  | other -> Json.to_string other

let interleave_prop =
  let open QCheck in
  (* per client: an op sequence over its own image; the schedule picks
     which client admits next *)
  let gen = pair (list_of_size Gen.(1 -- 12) (int_bound 2)) (list_of_size Gen.(0 -- 40) (int_bound 2)) in
  Test.make ~count:40 ~name:"interleaved serving is per-client serial" gen
    (fun (ops_skeleton, schedule) ->
      let nclients = 3 in
      let images =
        Array.init nclients (fun c -> target (860 + c) (Printf.sprintf "il-%d" c))
      in
      let cfg_variants =
        Array.init nclients (fun c ->
            let rng = Prng.create (77 + c) in
            mutate_config rng images.(c))
      in
      (* every client runs the same generated op skeleton against its
         own image: op 0 = check, 1 = watch original, 2 = watch drifted *)
      let line_for c op i =
        let id = Printf.sprintf "cl%d-%d" c i in
        match op with
        | 0 -> check_line ~id images.(c)
        | 1 ->
            line
              [
                ("op", Json.Str "watch");
                ("id", Json.Str id);
                ("image", Json.Str images.(c).Image.image_id);
                ("app", Json.Str (Image.app_to_string Image.Mysql));
                ("config", Json.Str cfg_variants.(c));
              ]
        | _ ->
            line
              [
                ("op", Json.Str "watch");
                ("id", Json.Str id);
                ("image", Json.Str images.(c).Image.image_id);
                ("app", Json.Str (Image.app_to_string Image.Mysql));
                ("config", Json.Str "user=root\n");
              ]
      in
      let scripts =
        Array.init nclients (fun c ->
            ref (List.mapi (fun i op -> line_for c op i) ops_skeleton))
      in
      (* interleaved run on one server, responses routed by origin *)
      let srv = make_server () in
      let got = Array.make nclients [] in
      let feed c =
        match !(scripts.(c)) with
        | [] -> false
        | l :: rest ->
            scripts.(c) := rest;
            ignore (Server.offer_from srv ~origin:c l);
            List.iter
              (fun (origin, resp) ->
                match origin with
                | Some o -> got.(o) <- strip_trace resp :: got.(o)
                | None -> ())
              (Server.step_routed srv);
            true
      in
      (* follow the generated schedule, then drain remaining scripts
         round-robin so every request is admitted *)
      List.iter (fun c -> ignore (feed (c mod nclients))) schedule;
      let rec drain () = if Array.exists (fun s -> feed s) (Array.init nclients Fun.id) then drain () in
      drain ();
      while Server.pending srv > 0 do
        List.iter
          (fun (origin, resp) ->
            match origin with
            | Some o -> got.(o) <- strip_trace resp :: got.(o)
            | None -> ())
          (Server.step_routed srv)
      done;
      (* serial oracle: each client alone on a fresh server *)
      let serial c =
        let srv = make_server () in
        let acc = ref [] in
        List.iteri
          (fun i op ->
            ignore (Server.offer srv (line_for c op i));
            List.iter (fun r -> acc := strip_trace r :: !acc) (Server.step srv))
          ops_skeleton;
        List.rev !acc
      in
      Array.for_all Fun.id
        (Array.init nclients (fun c -> List.rev got.(c) = serial c)))

(* --- the multiplexer over socketpairs --------------------------------------- *)

let mux_fixture ?(mconfig = Mux.default_config) ?(config = Server.default_config)
    nclients =
  let srv = make_server ~config () in
  let orphaned = ref [] in
  let mux =
    Mux.create ~config:mconfig ~orphan:(fun r -> orphaned := r :: !orphaned) srv
  in
  let clients =
    Array.init nclients (fun _ ->
        let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock cfd;
        ignore (Mux.adopt mux sfd);
        cfd)
  in
  (srv, mux, clients, orphaned)

let send_all fd text =
  let rec go off =
    if off < String.length text then
      match Unix.write_substring fd text off (String.length text - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          go off
  in
  go 0

let read_lines fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ();
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))

let steps mux n =
  for _ = 1 to n do
    Mux.step ~wait:false mux
  done

let step_until_stopped mux =
  let budget = ref 200 in
  while (not (Mux.stopped mux)) && !budget > 0 do
    decr budget;
    Mux.step ~wait:false mux
  done

(* A client of the daemon over one transport: [send] and [recv] are the
   client's ends (nonblocking), and [close] releases what the client
   holds. *)
type client = {
  send : Unix.file_descr;
  recv : Unix.file_descr;
  close : unit -> unit;
}

let socket_client mux =
  let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock cfd;
  ignore (Mux.adopt mux sfd);
  { send = cfd; recv = cfd; close = (fun () -> Unix.close cfd) }

(* The daemon's stdin/stdout as a pipe pair.  The daemon's ends stay
   blocking, as inherited descriptors do; the client's ends (returned
   first) are nonblocking.  The mux only borrows the daemon's ends, so
   the returned function closes them. *)
let stdio_pipes mux =
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  Unix.set_nonblock in_w;
  Unix.set_nonblock out_r;
  ignore (Mux.attach mux ~input:in_r ~output:out_w);
  ( in_w,
    out_r,
    fun () ->
      Unix.close in_r;
      Unix.close out_w )

let pipe_client mux =
  let send, recv, release = stdio_pipes mux in
  {
    send;
    recv;
    close =
      (fun () ->
        Unix.close send;
        Unix.close recv;
        release ());
  }

let transports = [ ("socketpair", socket_client); ("pipe pair", pipe_client) ]

let test_mux_routes_two_clients () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let _, mux, cls, _ = mux_fixture 2 in
  let img = target 870 "mux-a" in
  send_all cls.(0) (check_line ~id:"a1" img ^ "\n");
  send_all cls.(1) (op_line ~id:"b1" "status" ^ "\n");
  steps mux 10;
  let l0 = read_lines cls.(0) and l1 = read_lines cls.(1) in
  check Alcotest.bool "client 0 got its check (and only its own)" true
    (List.exists (fun l -> contains l "\"id\":\"a1\"") l0
    && not (List.exists (fun l -> contains l "\"id\":\"b1\"") l0));
  check Alcotest.bool "client 1 got its status" true
    (List.exists (fun l -> contains l "\"id\":\"b1\"") l1
    && not (List.exists (fun l -> contains l "\"id\":\"a1\"") l1));
  (* shutdown from one client: everyone gets the bye *)
  send_all cls.(0) (op_line ~id:"quit" "shutdown" ^ "\n");
  step_until_stopped mux;
  check Alcotest.bool "mux drained" true (Mux.stopped mux);
  let l0 = read_lines cls.(0) and l1 = read_lines cls.(1) in
  check Alcotest.bool "both clients got the bye" true
    (List.exists (fun l -> contains l "\"op\":\"bye\"") l0
    && List.exists (fun l -> contains l "\"op\":\"bye\"") l1);
  Array.iter Unix.close cls

let test_mux_slowloris_evicted () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let mconfig = { Mux.default_config with Mux.idle_polls_budget = 5 } in
  let _, mux, cls, _ = mux_fixture ~mconfig 2 in
  (* client 0 parks a partial frame and stalls; client 1 is idle with
     no partial frame — only the slowloris is evicted *)
  send_all cls.(0) "{\"op\":\"status\",\"id\":";
  steps mux 30;
  check Alcotest.int "slowloris evicted, idle client kept" 1
    (Mux.connection_count mux);
  check Alcotest.bool "evicted socket reads EOF" true
    (match Unix.read cls.(0) (Bytes.create 1) 0 1 with
    | 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false);
  (* the surviving client still gets service *)
  send_all cls.(1) (op_line ~id:"s" "status" ^ "\n");
  steps mux 10;
  check Alcotest.bool "idle client still served" true
    (List.exists (fun l -> contains l "\"id\":\"s\"") (read_lines cls.(1)));
  Mux.shutdown_fds mux;
  Array.iter Unix.close cls

let test_mux_frame_overflow_resyncs () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config = { Server.default_config with Server.max_request_bytes = 256 } in
  List.iter
    (fun (name, connect) ->
      let _, mux, _, _ = mux_fixture ~config 0 in
      let cl = connect mux in
      (* an unterminated flood past the bound: typed overflow, stream
         discarded to the next newline, then normal service resumes *)
      send_all cl.send (String.make 600 'x');
      steps mux 10;
      let l = read_lines cl.recv in
      check Alcotest.bool (name ^ ": typed overflow response") true
        (List.exists (fun s -> contains s "unterminated frame exceeds") l);
      send_all cl.send ("junk-tail\n" ^ op_line ~id:"after" "status" ^ "\n");
      steps mux 10;
      check Alcotest.bool (name ^ ": stream resyncs after the newline") true
        (List.exists
           (fun s -> contains s "\"id\":\"after\"")
           (read_lines cl.recv));
      Mux.shutdown_fds mux;
      cl.close ())
    transports

(* Stdin and stdout as one connection: requests written and the input
   closed at once are all answered, in order, before the EOF drains the
   daemon — so the health probe still reads ok — and the bye comes
   last. *)
let test_mux_stdio_eof_drains_after_answers () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let srv, mux, _, orphaned = mux_fixture 0 in
  let send, recv, release = stdio_pipes mux in
  send_all send
    (String.concat "\n"
       [
         op_line ~id:"s1" "status";
         check_line ~id:"c1" (target 873 "stdio-a");
         op_line ~id:"h1" "health";
       ]
    ^ "\n");
  Unix.close send;
  step_until_stopped mux;
  check Alcotest.bool "mux drained" true (Mux.stopped mux);
  let l = read_lines recv in
  let parsed =
    List.map
      (fun s ->
        match Json.of_string s with
        | Ok j -> j
        | Error e -> Alcotest.failf "unparsable response %S: %s" s e)
      l
  in
  check
    Alcotest.(list string)
    "every id answered in order" [ "s1"; "c1"; "h1" ]
    (List.filter_map (str_field "id") parsed);
  check Alcotest.bool "health ok" true
    (List.exists
       (fun j -> str_field "id" j = Some "h1" && str_field "health" j = Some "ok")
       parsed);
  check
    Alcotest.(option string)
    "bye last" (Some "bye")
    (match List.rev parsed with j :: _ -> str_field "op" j | [] -> None);
  check Alcotest.int "clean exit" 0 (Server.exit_code srv);
  check Alcotest.int "nothing orphaned" 0 (List.length !orphaned);
  Unix.close recv;
  release ()

(* A burst written before the first turn is admitted in one pass over
   either transport, so the bounded queue sheds the same lines. *)
let test_mux_stdio_burst_sheds_as_socket () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let overloaded (_, connect) =
    let srv, mux, _, _ = mux_fixture 0 in
    let cl = connect mux in
    send_all cl.send
      (String.concat ""
         (List.init 200 (fun i ->
              op_line ~id:(Printf.sprintf "b%d" i) "status" ^ "\n")));
    (* one turn answers the whole burst: about 40 KB, which the pipe
       buffer holds while the daemon's blocking writes fill it *)
    Mux.step ~wait:false mux;
    let got = read_lines cl.recv in
    check Alcotest.int "every line answered in one turn" 200 (List.length got);
    Mux.shutdown_fds mux;
    cl.close ();
    ( Server.shed_count srv,
      List.length (List.filter (fun s -> contains s "\"overloaded\":true") got) )
  in
  match List.map overloaded transports with
  | [ sock; pipe ] ->
      check Alcotest.(pair int int) "socketpair sheds 136" (136, 136) sock;
      check Alcotest.(pair int int) "pipe pair sheds as the socketpair" sock pipe
  | _ -> assert false

(* A stdout reader that goes away early costs the daemon its output,
   not its life: the connection is dropped, and with no input left the
   daemon drains, its bye going to the default sink. *)
let test_mux_stdio_reader_gone_drains () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let _, mux, _, orphaned = mux_fixture 0 in
  let send, recv, release = stdio_pipes mux in
  Unix.close recv;
  send_all send
    (op_line ~id:"s1" "status" ^ "\n" ^ check_line ~id:"c1" (target 874 "stdio-b")
   ^ "\n");
  step_until_stopped mux;
  check Alcotest.bool "mux drained" true (Mux.stopped mux);
  check Alcotest.int "connection dropped" 0 (Mux.connection_count mux);
  check Alcotest.bool "bye to the default sink" true
    (List.exists (fun j -> str_field "op" j = Some "bye") !orphaned);
  Unix.close send;
  release ()

(* The frame bound is the server's request limit, not a transport
   constant: a 2 MB request under a 4 MB limit is answered. *)
let test_mux_frame_bound_follows_server () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config = { Server.default_config with Server.max_request_bytes = 4_000_000 } in
  let _, mux, cls, _ = mux_fixture ~config 1 in
  let line =
    Printf.sprintf "{\"op\":\"status\",\"id\":\"big\",\"pad\":\"%s\"}\n"
      (String.make 2_000_000 'x')
  in
  (* the socketpair buffers far less than 2 MB: step the mux whenever
     the write would block *)
  let rec feed off =
    if off < String.length line then
      match Unix.write_substring cls.(0) line off (String.length line - off) with
      | n -> feed (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Mux.step ~wait:false mux;
          feed off
  in
  feed 0;
  steps mux 10;
  check Alcotest.bool "2 MB request answered ok" true
    (List.exists
       (fun s -> contains s "\"id\":\"big\"" && contains s "\"ok\":true")
       (read_lines cls.(0)));
  Mux.shutdown_fds mux;
  Unix.close cls.(0)

let test_mux_torn_eof_frame_rejected () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let _, mux, cls, _ = mux_fixture 1 in
  (* half-close with a torn trailing frame: the frame is delivered for
     a typed rejection, and the response still reaches the client; it
     was the last open input, so the drain follows and the half-closed
     client gets the bye too *)
  send_all cls.(0) "{\"op\":\"check\",\"id\":\"torn";
  Unix.shutdown cls.(0) Unix.SHUTDOWN_SEND;
  steps mux 10;
  let l = read_lines cls.(0) in
  check Alcotest.bool "torn trailing frame answered with a typed error" true
    (List.exists
       (fun s -> contains s "\"ok\":false" && contains s "parse-error")
       l);
  check Alcotest.bool "bye to the half-closed client" true
    (List.exists (fun s -> contains s "\"op\":\"bye\"") l);
  Mux.shutdown_fds mux;
  Unix.close cls.(0)

(* --- filesystem watcher ------------------------------------------------------ *)

let test_fswatch_deltas () =
  let dir = tmp_name "watchdir" in
  Unix.mkdir dir 0o755;
  let write name text =
    let fd =
      Unix.openfile (Filename.concat dir name)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
        0o644
    in
    ignore (Unix.write_substring fd text 0 (String.length text));
    Unix.close fd
  in
  write "img-1@mysql.conf" "user=root\n";
  write "README" "not a config\n";
  let w = Fswatch.create ~dir in
  check Alcotest.int "baseline is not a delta" 0 (List.length (Fswatch.poll w));
  (* a new file and a changed file both surface, in name order *)
  write "img-2@httpd.conf" "listen=80\n";
  write "img-1@mysql.conf" "user=root\nport=3307\n";
  (match Fswatch.poll w with
  | [ d1; d2 ] ->
      check Alcotest.string "first delta" "img-1" d1.Fswatch.d_image_id;
      check Alcotest.string "first app" "mysql" d1.Fswatch.d_app;
      check Alcotest.string "contents read" "user=root\nport=3307\n"
        d1.Fswatch.d_text;
      check Alcotest.string "second delta" "img-2" d2.Fswatch.d_image_id;
      check Alcotest.bool "synthesized watch request" true
        (contains (Fswatch.watch_request d2) "\"id\":\"fswatch:img-2\"")
  | ds -> Alcotest.failf "expected 2 deltas, got %d" (List.length ds));
  check Alcotest.int "quiescent poll is empty" 0 (List.length (Fswatch.poll w));
  Sys.readdir dir
  |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Unix.rmdir dir

(* --- the transport storm drill ---------------------------------------------- *)

(* Run twice in one directory: the second run finds the first one's
   journals and must start from empty ones, not recover their entries. *)
let test_transport_storm_drill () =
  let dir = tmp_name "storm" in
  let run label =
    match
      Chaosrun.transport_storm ~requests:400 ~clients:4 ~n:8 ~dir ~seed:29 ()
    with
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
    | Ok o ->
        if not (Chaosrun.transport_ok o) then
          Alcotest.failf "%s: transport storm contract violated:\n%s" label
            (Chaosrun.transport_outcome_to_string o);
        check Alcotest.int (label ^ ": nothing lost") 0 o.Chaosrun.tr_lost;
        check Alcotest.int (label ^ ": nothing misrouted") 0
          o.Chaosrun.tr_misrouted;
        check Alcotest.bool (label ^ ": fault mix at least 5%") true
          (o.Chaosrun.tr_faults * 20 >= o.Chaosrun.tr_frames);
        check Alcotest.bool (label ^ ": crash replay converged") true
          (o.Chaosrun.cr_responses_identical && o.Chaosrun.cr_ring_identical);
        o
  in
  let first = run "first run" in
  let again = run "second run, same directory" in
  check Alcotest.int "the second run journals only its own requests"
    first.Chaosrun.cr_journaled again.Chaosrun.cr_journaled;
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Unix.rmdir dir

let () =
  Alcotest.run "encore_servemux"
    [
      ( "journal",
        [
          Alcotest.test_case "append, mark, recover" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "torn tail truncated" `Quick
            test_journal_torn_tail_truncated;
          Alcotest.test_case "replay convergence and idempotence" `Quick
            test_journal_replay_convergence;
        ] );
      ( "reload",
        [
          Alcotest.test_case "shadow rollback and generation" `Quick
            test_reload_shadow_rollback;
        ] );
      ( "interleaving",
        [ QCheck_alcotest.to_alcotest interleave_prop ] );
      ( "mux",
        [
          Alcotest.test_case "routes two clients and byes both" `Quick
            test_mux_routes_two_clients;
          Alcotest.test_case "slowloris evicted, idle kept" `Quick
            test_mux_slowloris_evicted;
          Alcotest.test_case "frame overflow resyncs" `Quick
            test_mux_frame_overflow_resyncs;
          Alcotest.test_case "frame bound follows the server" `Quick
            test_mux_frame_bound_follows_server;
          Alcotest.test_case "torn EOF frame rejected" `Quick
            test_mux_torn_eof_frame_rejected;
          Alcotest.test_case "stdio EOF drains after answers" `Quick
            test_mux_stdio_eof_drains_after_answers;
          Alcotest.test_case "stdio burst sheds as a socket does" `Quick
            test_mux_stdio_burst_sheds_as_socket;
          Alcotest.test_case "stdio reader gone, daemon drains" `Quick
            test_mux_stdio_reader_gone_drains;
        ] );
      ( "fswatch",
        [ Alcotest.test_case "stat-signature deltas" `Quick test_fswatch_deltas ] );
      ( "storm",
        [
          Alcotest.test_case "transport storm and crash replay" `Quick
            test_transport_storm_drill;
        ] );
    ]
