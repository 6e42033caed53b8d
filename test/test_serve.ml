(* Tests for the resident check daemon: the bounded alert ring, the
   JSONL protocol, the engine cache, watch re-checking (identity with a
   full engine check of the watched image, across reloads), the
   engine's deadline-bounded verdict, the serve reactor's robustness
   contract (shedding, oversize rejection, typed errors, supervised
   crashes with breaker backoff, graceful drain, partial verdicts under
   deadline) and the 10k-request chaos soak. *)

module Engine = Encore_detect.Engine
module Warning = Encore_detect.Warning
module Image = Encore_sysenv.Image
module Collector = Encore_sysenv.Collector
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Prng = Encore_util.Prng
module Deadline = Encore_util.Deadline
module Res = Encore_util.Resilience
module Json = Encore_obs.Jsonenc
module Ring = Encore_serve.Ring
module Proto = Encore_serve.Proto
module Cache = Encore_serve.Cache
module Server = Encore_serve.Server
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

let warning_str (w : Warning.t) =
  Printf.sprintf "%s score=%.9f attrs=[%s] %s" (Warning.kind_label w)
    w.Warning.score
    (String.concat "," w.Warning.attrs)
    w.Warning.message

let mutate_config rng img =
  let campaign = Conferr.inject rng Image.Mysql img ~n:1 in
  match Image.config_for campaign.Conferr.image Image.Mysql with
  | Some c -> c.Image.text
  | None -> Alcotest.fail "mutant lost its mysql config"

(* a ConfErr mutant the daemon's integrity gate accepts *)
let rec clean_mutant rng img =
  let cfg = mutate_config rng img in
  if Res.scan_text ~subject:"config" cfg = [] then cfg else clean_mutant rng img

(* what the daemon holds after checking [img]: the parsed dump *)
let served_image img =
  match Collector.image_of_text (Collector.image_to_text img) with
  | Ok restored -> restored
  | Error e -> Alcotest.failf "dump round trip failed: %s" e

(* --- response introspection ------------------------------------------------ *)

let str_field name j = Option.bind (Json.member name j) Json.to_string_opt

let bool_field name j =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let int_field name j = Option.bind (Json.member name j) Json.to_int_opt

let is_ok j = bool_field "ok" j = Some true

let items_str j =
  match Json.member "items" j with
  | Some items -> Json.to_string items
  | None -> "<no items>"

let expect_items ws =
  Json.to_string (Json.Arr (List.map Encore_detect.Report.warning_json ws))

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec scan i = i + n <= l && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let one = function
  | [ j ] -> j
  | l -> Alcotest.failf "expected one response, got %d" (List.length l)

let none ctx = function
  | [] -> ()
  | l -> Alcotest.failf "%s: expected no responses, got %d" ctx (List.length l)

(* --- request lines --------------------------------------------------------- *)

let line fields = Json.to_string (Json.Obj fields)

let check_line ?id img =
  let id = match id with Some i -> [ ("id", Json.Str i) ] | None -> [] in
  line
    (("op", Json.Str "check")
    :: id
    @ [ ("image", Json.Str (Collector.image_to_text img)) ])

let watch_line ~id ~image_id ~config =
  line
    [
      ("op", Json.Str "watch");
      ("id", Json.Str id);
      ("image", Json.Str image_id);
      ("app", Json.Str (Image.app_to_string Image.Mysql));
      ("config", Json.Str config);
    ]

let op_line ?id op =
  let id = match id with Some i -> [ ("id", Json.Str i) ] | None -> [] in
  line (("op", Json.Str op) :: id)

let make_server ?(config = Server.default_config) () =
  Server.create ~config
    (Cache.create ~provider:(fun ~app:_ -> Ok (Lazy.force model)))

(* a queued request answered in one step *)
let ask srv l =
  none "ask: should queue" (Server.offer srv l);
  one (Server.step srv)

(* --- ring ------------------------------------------------------------------- *)

let test_ring_drop_oldest () =
  let r = Ring.create ~capacity:3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  check Alcotest.(list int) "newest survive" [ 3; 4; 5 ] (Ring.to_list r);
  check Alcotest.int "length capped" 3 (Ring.length r);
  check Alcotest.int "two casualties" 2 (Ring.dropped r);
  check Alcotest.(list int) "drain oldest-first" [ 3; 4; 5 ] (Ring.drain r);
  check Alcotest.int "empty after drain" 0 (Ring.length r);
  check Alcotest.int "dropped is lifetime" 2 (Ring.dropped r);
  Ring.push r 9;
  check Alcotest.(list int) "usable after drain" [ 9 ] (Ring.to_list r)

let test_ring_wraparound () =
  (* multiple full wraps: the drop counter never regresses and the
     surviving window is always the newest [capacity] items oldest-first *)
  let r = Ring.create ~capacity:3 in
  let last_dropped = ref 0 in
  for i = 1 to 11 do
    Ring.push r i;
    let d = Ring.dropped r in
    check Alcotest.bool
      (Printf.sprintf "dropped monotone at push %d" i)
      true (d >= !last_dropped);
    last_dropped := d;
    let expect_len = min i 3 in
    let expect =
      List.init expect_len (fun k -> i - expect_len + 1 + k)
    in
    check
      Alcotest.(list int)
      (Printf.sprintf "newest window oldest-first at push %d" i)
      expect (Ring.to_list r)
  done;
  check Alcotest.int "dropped = pushed - capacity" 8 (Ring.dropped r);
  (* drain resets contents but not the lifetime counter; wrapping again
     keeps both properties *)
  check Alcotest.(list int) "drain oldest-first" [ 9; 10; 11 ] (Ring.drain r);
  for i = 20 to 27 do
    Ring.push r i
  done;
  check Alcotest.(list int) "oldest-first after drain and rewrap"
    [ 25; 26; 27 ] (Ring.drain r);
  check Alcotest.int "lifetime drops accumulate across wraps" 13
    (Ring.dropped r)

let test_ring_clamps_capacity () =
  let r = Ring.create ~capacity:0 in
  check Alcotest.int "clamped to 1" 1 (Ring.capacity r);
  Ring.push r "a";
  Ring.push r "b";
  check Alcotest.(list string) "holds the newest" [ "b" ] (Ring.to_list r)

(* --- protocol --------------------------------------------------------------- *)

let test_proto_parse_ok () =
  let img = target 300 "proto-a" in
  (match Proto.parse (check_line ~id:"c1" img) with
  | Ok (Proto.Check { id = Some "c1"; source = Proto.Inline text }) ->
      check Alcotest.string "inline dump intact" (Collector.image_to_text img)
        text
  | _ -> Alcotest.fail "check line did not parse");
  (match Proto.parse {|{"op":"check","path":"/tmp/dump"}|} with
  | Ok (Proto.Check { id = None; source = Proto.Path "/tmp/dump" }) -> ()
  | _ -> Alcotest.fail "path check did not parse");
  (match Proto.parse (watch_line ~id:"w1" ~image_id:"img-7" ~config:"a = 1\n") with
  | Ok (Proto.Watch { id = Some "w1"; image_id = "img-7"; app; config }) ->
      check Alcotest.string "app" "mysql" app;
      check Alcotest.string "config" "a = 1\n" config
  | _ -> Alcotest.fail "watch line did not parse");
  List.iter
    (fun op ->
      match Proto.parse (op_line ~id:"x" op) with
      | Ok req ->
          check Alcotest.string "op echoed" op (Proto.request_op req);
          check Alcotest.(option string) "id echoed" (Some "x")
            (Proto.request_id req)
      | Error d -> Alcotest.failf "%s rejected: %s" op d.Res.detail)
    [ "reload"; "status"; "shutdown"; "crash"; "metrics"; "health" ]

let test_proto_parse_errors () =
  List.iter
    (fun (ctx, l) ->
      match Proto.parse l with
      | Ok _ -> Alcotest.failf "%s: accepted %S" ctx l
      | Error d ->
          check Alcotest.string (ctx ^ " is a parse error") "parse-error"
            (Res.kind_to_string d.Res.kind))
    [
      ("torn json", "{\"op\":\"check\",\"image\":");
      ("no op", {|{"id":"x"}|});
      ("non-object", "[1,2,3]");
      ("unknown op", {|{"op":"zorch"}|});
      ("watch missing config", {|{"op":"watch","image":"i","app":"mysql"}|});
      ("check missing operand", {|{"op":"check","id":"c"}|});
      ("check with both operands", {|{"op":"check","image":"a","path":"b"}|});
    ]

let test_proto_error_response_shape () =
  let d = Res.diag Res.Overflow ~subject:"serve" "queue full" in
  let j = Proto.error_response ~id:"r1" ~overloaded:true d in
  check Alcotest.(option bool) "not ok" (Some false) (bool_field "ok" j);
  check Alcotest.(option string) "id echoed" (Some "r1") (str_field "id" j);
  check Alcotest.(option string) "typed kind" (Some "overflow")
    (str_field "error" j);
  check Alcotest.(option bool) "overloaded marker" (Some true)
    (bool_field "overloaded" j)

(* --- engine cache ----------------------------------------------------------- *)

let test_cache_memoize_and_reload () =
  let calls = ref 0 in
  let provider ~app:_ =
    incr calls;
    Ok (Lazy.force model)
  in
  let c = Cache.create ~provider in
  (match Cache.engine_for c ~app:"mysql" with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "first engine_for failed: %s" d.Res.detail);
  ignore (Cache.engine_for c ~app:"mysql");
  check Alcotest.int "compiled once" 1 !calls;
  let fp1 = Cache.fingerprint_of (Lazy.force model) in
  check
    Alcotest.(option string)
    "fingerprint is the model digest" (Some fp1)
    (Cache.fingerprint c ~app:"mysql");
  let g0 = Cache.generation c in
  (match Cache.reload c with
  | Ok changed -> check Alcotest.bool "same model, unchanged" false changed
  | Error d -> Alcotest.failf "reload failed: %s" d.Res.detail);
  check Alcotest.bool "generation bumped" true (Cache.generation c > g0);
  check Alcotest.int "provider re-read eagerly" 2 !calls;
  check
    Alcotest.(option string)
    "fingerprint survives reload" (Some fp1)
    (Cache.fingerprint c ~app:"mysql")

let test_cache_provider_failure_is_typed () =
  let c = Cache.create ~provider:(fun ~app:_ -> Error "store unreachable") in
  match Cache.engine_for c ~app:"mysql" with
  | Ok _ -> Alcotest.fail "provider failure went unnoticed"
  | Error d ->
      check Alcotest.string "probe failure" "probe-failure"
        (Res.kind_to_string d.Res.kind)

(* --- watch ---------------------------------------------------------------- *)

let mysql_text img =
  match Image.config_for img Image.Mysql with
  | Some c -> c.Image.text
  | None -> Alcotest.fail "image lost its mysql config"

(* watch [cfg] into the session of [image_id]; the answer must be a
   complete verdict equal to a full check of the session image [cur]
   with the config replaced.  Returns that image and the response. *)
let watch_full srv eng ~image_id ~id cur cfg =
  let mutated = Image.set_config cur Image.Mysql cfg in
  let w = ask srv (watch_line ~id ~image_id ~config:cfg) in
  check Alcotest.bool (id ^ " ok") true (is_ok w);
  check Alcotest.(option bool) (id ^ " complete") (Some false)
    (bool_field "partial" w);
  check Alcotest.string
    (id ^ " = full check of the mutant")
    (expect_items (Engine.check eng mutated))
    (items_str w);
  (mutated, w)

let test_watch_start_seeds_full_check () =
  (* a complete check answers with the full engine check and seeds the
     session that a watch of the same id needs *)
  let srv = make_server () in
  let eng = Engine.compile (Lazy.force model) in
  let img = target 901 "watch-seed" in
  let cfg = mysql_text (served_image img) in
  let early = ask srv (watch_line ~id:"w0" ~image_id:"watch-seed" ~config:cfg) in
  check Alcotest.bool "watch before any check refused" true (not (is_ok early));
  let c = ask srv (check_line ~id:"c" img) in
  check Alcotest.bool "seeding check ok" true (is_ok c);
  check Alcotest.(option bool) "seeding check complete" (Some false)
    (bool_field "partial" c);
  check Alcotest.string "seeding check = full check"
    (expect_items (Engine.check eng img))
    (items_str c);
  ignore (watch_full srv eng ~image_id:"watch-seed" ~id:"w1" (served_image img)
            cfg)

let test_watch_delta_byte_identical () =
  (* a chain of ConfErr config replacements, each watched into the
     session, answers byte-identically to a full check of every mutant,
     and so does the same chain on the engine a reload compiled *)
  let srv = make_server () in
  let eng = Engine.compile (Lazy.force model) in
  let img = target 902 "watch-delta" in
  check Alcotest.bool "opening check ok" true
    (is_ok (ask srv (check_line ~id:"c" img)));
  let rng = Prng.create 77 in
  let chain tag start =
    List.fold_left
      (fun cur i ->
        fst
          (watch_full srv eng ~image_id:"watch-delta"
             ~id:(Printf.sprintf "%s%d" tag i)
             cur (clean_mutant rng cur)))
      start [ 1; 2; 3; 4; 5; 6 ]
  in
  let cur = chain "w" (served_image img) in
  check Alcotest.bool "reload ok" true
    (is_ok (ask srv (op_line ~id:"r" "reload")));
  ignore (chain "after-reload-" cur)

let test_watch_unchanged_config_is_empty_delta () =
  (* re-watching the config the session already holds changes nothing:
     the answer repeats the last complete verdict for that id *)
  let srv = make_server () in
  let eng = Engine.compile (Lazy.force model) in
  let img = target 903 "watch-same" in
  let c = ask srv (check_line ~id:"c" img) in
  check Alcotest.bool "opening check ok" true (is_ok c);
  let start = served_image img in
  let _, same =
    watch_full srv eng ~image_id:"watch-same" ~id:"noop" start
      (mysql_text start)
  in
  check Alcotest.string "no-op watch repeats the check" (items_str c)
    (items_str same);
  let mutated, w =
    watch_full srv eng ~image_id:"watch-same" ~id:"w1" start
      (clean_mutant (Prng.create 78) start)
  in
  let _, again =
    watch_full srv eng ~image_id:"watch-same" ~id:"noop2" mutated
      (mysql_text mutated)
  in
  check Alcotest.string "no-op watch repeats the last watch" (items_str w)
    (items_str again)

let test_watch_missing_app_is_error () =
  let srv = make_server () in
  let img = target 904 "watch-noapp" in
  let absent =
    match
      List.find_opt (fun a -> Image.config_for img a = None) Image.all_apps
    with
    | Some a -> a
    | None -> Alcotest.fail "fixture carries every app"
  in
  ignore (ask srv (check_line ~id:"c" img));
  let r =
    ask srv
      (line
         [
           ("op", Json.Str "watch");
           ("id", Json.Str "w-absent");
           ("image", Json.Str "watch-noapp");
           ("app", Json.Str (Image.app_to_string absent));
           ("config", Json.Str "x = 1\n");
         ])
  in
  check Alcotest.bool "refused" true (not (is_ok r));
  check Alcotest.(option string) "typed parse error" (Some "parse-error")
    (str_field "error" r);
  (* the session survives the refusal *)
  let cfg = clean_mutant (Prng.create 9) img in
  let w = ask srv (watch_line ~id:"w-ok" ~image_id:"watch-noapp" ~config:cfg) in
  check Alcotest.bool "next valid watch ok" true (is_ok w);
  check Alcotest.string "next valid watch = full check"
    (expect_items
       (Engine.check
          (Engine.compile (Lazy.force model))
          (Image.set_config (served_image img) Image.Mysql cfg)))
    (items_str w)

let test_watch_deadline_verdict_grows () =
  (* a k-poll budget cuts the check after k units: every cut is a
     partial verdict whose warnings the full check also raises, until
     the budget covers every unit and the verdict is the full check *)
  let eng = Engine.compile (Lazy.force model) in
  let img = Image.set_config (target 905 "watch-partial") Image.Mysql
      (clean_mutant (Prng.create 9) (target 905 "watch-partial"))
  in
  let full = List.map warning_str (Engine.check eng img) in
  let rec grow k prev partials =
    if k > 100_000 then Alcotest.fail "no budget completed the check"
    else
      match Engine.verdict ~deadline:(Deadline.after_polls k) eng img with
      | Engine.Partial ws ->
          let ws = List.map warning_str ws in
          List.iter
            (fun w ->
              if not (List.mem w full) then
                Alcotest.failf "k=%d: partial warning not in the full check: %s"
                  k w)
            ws;
          check Alcotest.bool
            (Printf.sprintf "k=%d keeps what k-1 found" k)
            true
            (List.for_all (fun w -> List.mem w ws) prev);
          grow (k + 1) ws (partials + 1)
      | Engine.Complete ws ->
          check Alcotest.(list string) "complete = Engine.check" full
            (List.map warning_str ws);
          partials
  in
  let partials = grow 0 [] 0 in
  check Alcotest.bool "small budgets were partial" true (partials > 1);
  check Alcotest.bool "the full check warns" true (full <> [])

(* --- server: request handling ---------------------------------------------- *)

let test_server_check_roundtrip () =
  let srv = make_server () in
  let img = target 910 "srv-check" in
  let r = ask srv (check_line ~id:"c1" img) in
  check Alcotest.bool "ok" true (is_ok r);
  check Alcotest.(option string) "op" (Some "check") (str_field "op" r);
  check Alcotest.(option string) "id" (Some "c1") (str_field "id" r);
  check Alcotest.(option string) "image id" (Some "srv-check")
    (str_field "image" r);
  check Alcotest.(option bool) "complete" (Some false) (bool_field "partial" r);
  let eng = Engine.compile (Lazy.force model) in
  check Alcotest.string "items = full engine check"
    (expect_items (Engine.check eng img))
    (items_str r)

let learn_line ?id img =
  let id = match id with Some i -> [ ("id", Json.Str i) ] | None -> [] in
  line
    (("op", Json.Str "learn-append")
    :: id
    @ [ ("image", Json.Str (Collector.image_to_text img)) ])

let test_server_learn_append_folds_and_adopts () =
  let taught = ref [] in
  let hook (img : Image.t) =
    taught := img.Image.image_id :: !taught;
    Ok ("folded " ^ img.Image.image_id)
  in
  let srv =
    Server.create ~learner:hook
      (Cache.create ~provider:(fun ~app:_ -> Ok (Lazy.force model)))
  in
  let r = ask srv (learn_line ~id:"l1" (target 917 "srv-learn")) in
  check Alcotest.bool "ok" true (is_ok r);
  check Alcotest.(option string) "op" (Some "learn-append") (str_field "op" r);
  check Alcotest.(option string) "image" (Some "srv-learn")
    (str_field "image" r);
  check Alcotest.(option string) "hook's note" (Some "folded srv-learn")
    (str_field "trained" r);
  check Alcotest.(option bool) "refreshed model adopted" (Some true)
    (bool_field "adopted" r);
  check Alcotest.(list string) "hook saw the image" [ "srv-learn" ] !taught;
  (* the daemon keeps serving checks afterwards *)
  let r2 = ask srv (check_line ~id:"after" (target 918 "after-learn")) in
  check Alcotest.bool "still serving" true (is_ok r2)

let test_server_learn_append_hook_failure_is_typed () =
  let srv =
    Server.create ~learner:(fun _ -> Error "statistics store unwritable")
      (Cache.create ~provider:(fun ~app:_ -> Ok (Lazy.force model)))
  in
  let r = ask srv (learn_line ~id:"l2" (target 919 "srv-learn-fail")) in
  check Alcotest.bool "not ok" true (not (is_ok r));
  check Alcotest.(option string) "typed error" (Some "custom-rule-error")
    (str_field "error" r)

let test_server_learn_append_without_learner () =
  let srv = make_server () in
  let r = ask srv (learn_line ~id:"l3" (target 920 "srv-nolearner")) in
  check Alcotest.bool "not ok" true (not (is_ok r));
  check Alcotest.(option string) "typed error" (Some "custom-rule-error")
    (str_field "error" r)

let test_server_malformed_gets_typed_error () =
  let srv = make_server () in
  let r = ask srv "{\"op\":\"check\",\"image\":" in
  check Alcotest.bool "not ok" true (not (is_ok r));
  check Alcotest.(option string) "typed parse error" (Some "parse-error")
    (str_field "error" r);
  (* the daemon survives and keeps serving *)
  let r2 = ask srv (check_line ~id:"after" (target 911 "after-garbage")) in
  check Alcotest.bool "still serving" true (is_ok r2)

let test_server_oversize_rejected_unqueued () =
  let srv =
    make_server
      ~config:{ Server.default_config with Server.max_request_bytes = 128 }
      ()
  in
  let r = one (Server.offer srv (String.make 129 'x')) in
  check Alcotest.bool "rejected" true (not (is_ok r));
  check Alcotest.(option string) "typed overflow" (Some "overflow")
    (str_field "error" r);
  check Alcotest.int "never queued" 0 (Server.pending srv);
  check Alcotest.int "oversize is not shedding" 0 (Server.shed_count srv)

let test_server_sheds_at_capacity () =
  let srv =
    make_server ~config:{ Server.default_config with Server.queue_capacity = 2 }
      ()
  in
  let img = target 912 "srv-shed" in
  none "first fits" (Server.offer srv (check_line ~id:"a" img));
  none "second fits" (Server.offer srv (check_line ~id:"b" img));
  let r = one (Server.offer srv (check_line ~id:"c" img)) in
  check Alcotest.bool "shed response" true (not (is_ok r));
  check Alcotest.(option bool) "marked overloaded" (Some true)
    (bool_field "overloaded" r);
  check Alcotest.(option string) "shed echoes its id" (Some "c")
    (str_field "id" r);
  check Alcotest.int "one shed" 1 (Server.shed_count srv);
  check Alcotest.int "queue bounded" 2 (Server.pending srv);
  (* the queued pair still completes, and shedding marks degradation *)
  check Alcotest.bool "queued requests answered" true
    (is_ok (one (Server.step srv)) && is_ok (one (Server.step srv)));
  check Alcotest.int "degraded exit" 3 (Server.exit_code srv)

let test_server_crash_supervision_and_breaker () =
  let srv =
    make_server
      ~config:
        {
          Server.default_config with
          Server.breaker_threshold = 2;
          breaker_cooldown = 2;
        }
      ()
  in
  let img = target 913 "srv-crash" in
  (* two injected crashes: both answered with typed errors, circuit opens *)
  List.iter
    (fun id ->
      let r = ask srv (op_line ~id "crash") in
      check Alcotest.bool (id ^ " answered") true (not (is_ok r)))
    [ "k1"; "k2" ];
  check Alcotest.int "two supervised restarts" 2 (Server.restart_count srv);
  (* open circuit: checks are denied (typed, still answered) during backoff *)
  let denied = ask srv (check_line ~id:"d1" img) in
  check Alcotest.bool "denied while open" true (not (is_ok denied));
  check Alcotest.(option string) "denial is typed" (Some "probe-failure")
    (str_field "error" denied);
  ignore (ask srv (check_line ~id:"d2" img));
  (* cooldown spent: the half-open trial admits work and recloses *)
  let r = ask srv (check_line ~id:"trial" img) in
  check Alcotest.bool "half-open trial served" true (is_ok r);
  let r2 = ask srv (check_line ~id:"steady" img) in
  check Alcotest.bool "circuit closed again" true (is_ok r2);
  (* control ops bypass the breaker throughout *)
  check Alcotest.bool "status always served" true
    (is_ok (ask srv (op_line ~id:"s" "status")));
  check Alcotest.int "crashes degrade the exit code" 3 (Server.exit_code srv)

let test_server_status_and_reload () =
  let srv = make_server () in
  ignore (ask srv (check_line ~id:"c" (target 914 "srv-status")));
  let s = ask srv (op_line ~id:"s1" "status") in
  check Alcotest.bool "status ok" true (is_ok s);
  check Alcotest.bool "reports requests" true
    (match int_field "requests" s with Some n -> n >= 1 | None -> false);
  check Alcotest.bool "reports ring state" true
    (Json.member "ring" s <> None);
  check Alcotest.bool "reports breaker state" true
    (str_field "breaker" s <> None);
  let r = ask srv (op_line ~id:"r1" "reload") in
  check Alcotest.bool "reload ok" true (is_ok r);
  check Alcotest.bool "clean run exits 0" true (Server.exit_code srv = 0)

let test_server_watch_delta_and_reload_fallback () =
  let srv = make_server () in
  let img = target 915 "srv-watch" in
  ignore (ask srv (check_line ~id:"c" img));
  let eng = Engine.compile (Lazy.force model) in
  let rng = Prng.create 21 in
  let cfg = mutate_config rng img in
  let mutated = Image.set_config img Image.Mysql cfg in
  let w = ask srv (watch_line ~id:"w1" ~image_id:"srv-watch" ~config:cfg) in
  check Alcotest.bool "watch ok" true (is_ok w);
  check Alcotest.string "delta = full check of the mutant"
    (expect_items (Engine.check eng mutated))
    (items_str w);
  (* the session outlives a reload: the next watch is checked on the
     freshly compiled engine and still answers identically *)
  ignore (ask srv (op_line ~id:"r" "reload"));
  let cfg2 = mutate_config rng mutated in
  let mutated2 = Image.set_config mutated Image.Mysql cfg2 in
  let w2 = ask srv (watch_line ~id:"w2" ~image_id:"srv-watch" ~config:cfg2) in
  check Alcotest.bool "watch after reload ok" true (is_ok w2);
  check Alcotest.string "full fallback identical"
    (expect_items (Engine.check eng mutated2))
    (items_str w2);
  (* and the watch after that *)
  let cfg3 = mutate_config rng mutated2 in
  ignore (ask srv (watch_line ~id:"w3" ~image_id:"srv-watch" ~config:cfg3))

let test_server_watch_unknown_image () =
  let srv = make_server () in
  let r = ask srv (watch_line ~id:"w" ~image_id:"never-seen" ~config:"a=1\n") in
  check Alcotest.bool "typed error" true (not (is_ok r));
  check Alcotest.(option string) "parse-error kind" (Some "parse-error")
    (str_field "error" r)

let test_server_partial_verdict_under_deadline () =
  let srv =
    make_server
      ~config:{ Server.default_config with Server.deadline_polls = Some 1 } ()
  in
  let img = target 916 "srv-deadline" in
  let r = ask srv (check_line ~id:"c" img) in
  check Alcotest.bool "partial verdict still ok" true (is_ok r);
  check Alcotest.(option bool) "marked partial" (Some true)
    (bool_field "partial" r);
  (* a partial check seeds no session, so watch refuses the image *)
  let w = ask srv (watch_line ~id:"w" ~image_id:"srv-deadline" ~config:"a=1\n") in
  check Alcotest.bool "no session from a partial check" true (not (is_ok w))

let test_server_graceful_drain () =
  let srv = make_server () in
  let img = target 917 "srv-drain" in
  none "queued 1" (Server.offer srv (check_line ~id:"c1" img));
  none "queued 2" (Server.offer srv (check_line ~id:"c2" img));
  none "shutdown accepted" (Server.offer srv (op_line ~id:"bye" "shutdown"));
  check Alcotest.bool "still running until the shutdown op runs" true
    (Server.state srv = `Running);
  (* in-flight requests finish during the drain *)
  check Alcotest.bool "c1 served" true (is_ok (one (Server.step srv)));
  check Alcotest.bool "c2 served" true (is_ok (one (Server.step srv)));
  let bye_ack = one (Server.step srv) in
  check Alcotest.bool "shutdown acknowledged" true (is_ok bye_ack);
  check Alcotest.bool "draining" true (Server.state srv = `Draining);
  (* new arrivals are ignored once draining *)
  none "post-shutdown offer ignored" (Server.offer srv (check_line img));
  let final = Server.drain_flush srv in
  check Alcotest.bool "bye emitted" true
    (List.exists (fun j -> str_field "op" j = Some "bye") final);
  check Alcotest.bool "stopped" true (Server.state srv = `Stopped);
  check Alcotest.int "clean exit" 0 (Server.exit_code srv)

(* --- telemetry verbs -------------------------------------------------------- *)

let test_server_metrics_verb () =
  let srv = make_server () in
  ignore (ask srv (check_line ~id:"c" (target 930 "srv-metrics")));
  (* default format is the Prometheus exposition *)
  let m = ask srv (op_line ~id:"m1" "metrics") in
  check Alcotest.bool "metrics ok" true (is_ok m);
  check Alcotest.(option string) "op" (Some "metrics") (str_field "op" m);
  check Alcotest.(option string) "format" (Some "prometheus")
    (str_field "format" m);
  (match str_field "body" m with
  | None -> Alcotest.fail "prometheus body missing"
  | Some body ->
      check Alcotest.bool "TYPE headers present" true
        (contains body "# TYPE ");
      check Alcotest.bool "request counter family" true
        (contains body "serve_requests");
      check Alcotest.bool "latency histogram series" true
        (contains body "serve_request_us_bucket");
      check Alcotest.bool "rolling-window gauges exported" true
        (contains body "serve_window_p99"));
  (* json format carries the window view and the structured registry *)
  let mj =
    ask srv
      (line
         [
           ("op", Json.Str "metrics");
           ("id", Json.Str "m2");
           ("format", Json.Str "json");
         ])
  in
  check Alcotest.bool "json metrics ok" true (is_ok mj);
  check Alcotest.bool "window view present" true
    (Json.member "window" mj <> None);
  check Alcotest.bool "registry present" true (Json.member "metrics" mj <> None);
  (* an unknown format is a typed parse error, not a crash *)
  let mb =
    ask srv (line [ ("op", Json.Str "metrics"); ("format", Json.Str "xml") ])
  in
  check Alcotest.bool "unknown format rejected" true (not (is_ok mb));
  check Alcotest.(option string) "rejection is typed" (Some "parse-error")
    (str_field "error" mb)

let test_server_health_verb_and_breaker () =
  let srv =
    make_server
      ~config:
        {
          Server.default_config with
          Server.breaker_threshold = 2;
          breaker_cooldown = 2;
        }
      ()
  in
  let h = ask srv (op_line ~id:"h0" "health") in
  check Alcotest.bool "health ok" true (is_ok h);
  check Alcotest.(option string) "verdict ok" (Some "ok") (str_field "health" h);
  (match Json.member "reasons" h with
  | Some (Json.Arr []) -> ()
  | _ -> Alcotest.fail "an ok verdict must carry no reasons");
  (* two crashes open the breaker: the verdict degrades but the probe
     is still served (control ops bypass the breaker) *)
  ignore (ask srv (op_line ~id:"k1" "crash"));
  ignore (ask srv (op_line ~id:"k2" "crash"));
  let h1 = ask srv (op_line ~id:"h1" "health") in
  check Alcotest.bool "served while breaker open" true (is_ok h1);
  check Alcotest.(option string) "degraded verdict" (Some "degraded")
    (str_field "health" h1);
  check Alcotest.(option string) "breaker reported open" (Some "open")
    (str_field "breaker" h1);
  (match Json.member "reasons" h1 with
  | Some (Json.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "a degraded verdict must list its reasons");
  (* burn the cooldown with denied checks, serve the half-open trial,
     and the verdict recovers *)
  let img = target 931 "srv-health" in
  ignore (ask srv (check_line ~id:"d1" img));
  ignore (ask srv (check_line ~id:"d2" img));
  let trial = ask srv (check_line ~id:"trial" img) in
  check Alcotest.bool "half-open trial served" true (is_ok trial);
  let h2 = ask srv (op_line ~id:"h2" "health") in
  check Alcotest.(option string) "verdict recovered" (Some "ok")
    (str_field "health" h2)

let test_server_trace_ids () =
  let spans = ref [] in
  Encore_obs.Trace.set_sink
    (Encore_obs.Trace.Stream (fun s -> spans := s :: !spans));
  Fun.protect
    ~finally:(fun () -> Encore_obs.Trace.set_sink Encore_obs.Trace.Nil)
    (fun () ->
      let srv = make_server () in
      let img = target 932 "srv-trace" in
      let r1 = ask srv (check_line ~id:"c1" img) in
      let r2 = ask srv (check_line ~id:"c2" img) in
      let t1 = str_field "trace" r1 and t2 = str_field "trace" r2 in
      check Alcotest.bool "every response carries a trace id" true
        (t1 <> None && t2 <> None);
      check Alcotest.bool "trace ids are distinct" true (t1 <> t2);
      (* responses produced before any processing are traced too *)
      let bad = ask srv "{\"op\":" in
      check Alcotest.bool "parse-error response traced" true
        (str_field "trace" bad <> None);
      let small =
        make_server
          ~config:{ Server.default_config with Server.max_request_bytes = 64 }
          ()
      in
      let rej = one (Server.offer small (String.make 65 'x')) in
      check Alcotest.bool "oversize rejection traced" true
        (str_field "trace" rej <> None);
      (* the echoed id joins the response to its serve-request span *)
      let span_traces =
        List.filter_map
          (fun (s : Encore_obs.Trace.span) ->
            if s.Encore_obs.Trace.name = "serve-request" then
              Option.bind
                (List.assoc_opt "trace" s.Encore_obs.Trace.attrs)
                Json.to_string_opt
            else None)
          !spans
      in
      check Alcotest.bool "trace id resolves to a span" true
        (match t1 with
        | Some tid -> List.mem tid span_traces
        | None -> false))

let test_server_check_is_engine_check () =
  (* a serve check is one Engine check: it counts in detect.checks and
     its check span nests under the request's serve-request span *)
  let spans = ref [] in
  let srv = make_server () in
  let img = target 933 "srv-engine" in
  (* the first request compiles the engine; count the second only *)
  ignore (ask srv (check_line ~id:"warm" img));
  let checks () =
    Encore_obs.Metrics.count (Encore_obs.Metrics.counter "detect.checks")
  in
  Encore_obs.Trace.set_sink
    (Encore_obs.Trace.Stream (fun s -> spans := s :: !spans));
  let before = checks () in
  let r =
    Fun.protect
      ~finally:(fun () -> Encore_obs.Trace.set_sink Encore_obs.Trace.Nil)
      (fun () -> ask srv (check_line ~id:"c" img))
  in
  check Alcotest.bool "ok" true (is_ok r);
  check Alcotest.int "one engine check counted" (before + 1) (checks ());
  check Alcotest.bool "check span under serve-request" true
    (List.exists
       (fun (sp : Encore_obs.Trace.span) ->
         sp.Encore_obs.Trace.name = "check"
         && sp.Encore_obs.Trace.parent = Some "serve-request")
       !spans)

(* --- alert ring under storm ------------------------------------------------- *)

let test_server_ring_bounds_alerts () =
  let srv =
    make_server
      ~config:
        { Server.default_config with Server.ring_capacity = 4; alert_score = 0.0 }
      ()
  in
  (* every warning is an alert at threshold 0.0: checks on drifted
     images overflow a 4-slot ring without growing it *)
  let rng = Prng.create 33 in
  for i = 0 to 7 do
    let img = target (920 + i) (Printf.sprintf "ring-%d" i) in
    let drifted =
      Image.set_config img Image.Mysql (mutate_config rng img)
    in
    ignore (ask srv (check_line ~id:(Printf.sprintf "c%d" i) drifted))
  done;
  let s = ask srv (op_line ~id:"s" "status") in
  let ring_len =
    Option.bind (Json.member "ring" s) (int_field "length")
  in
  check Alcotest.bool "ring stayed inside its bound" true
    (match ring_len with Some n -> n <= 4 | None -> false);
  check Alcotest.bool "overflow recorded as drops" true
    (Server.ring_dropped srv > 0);
  let final = Server.drain_flush srv in
  let flushed =
    List.filter (fun j -> str_field "ev" j = Some "alert") final
  in
  check Alcotest.bool "drain flushes at most capacity alerts" true
    (List.length flushed <= 4)

(* --- the chaos soak ---------------------------------------------------------- *)

let test_serve_storm_soak () =
  match Chaosrun.serve_storm ~requests:10_000 ~n:12 ~seed:5 () with
  | Error d -> Alcotest.failf "storm failed to launch: %s" d.Res.detail
  | Ok o ->
      check Alcotest.int "10k requests replayed" 10_000 o.Chaosrun.serve_requests;
      check Alcotest.bool ">=5% malformed" true
        (o.Chaosrun.serve_malformed * 20 >= o.Chaosrun.serve_requests);
      check Alcotest.bool ">=5% oversized" true
        (o.Chaosrun.serve_oversized * 20 >= o.Chaosrun.serve_requests);
      check Alcotest.bool "crash ops in the mix" true
        (o.Chaosrun.serve_crash_ops > 0);
      check Alcotest.bool "storm forced shedding" true (o.Chaosrun.serve_shed > 0);
      check Alcotest.bool "supervisor restarted the worker" true
        (o.Chaosrun.serve_restarts > 0);
      check Alcotest.bool "every queued request answered" true
        o.Chaosrun.serve_all_answered;
      check Alcotest.bool "ring bound held" true o.Chaosrun.serve_ring_bound_ok;
      check Alcotest.bool "watch deltas compared" true
        (o.Chaosrun.serve_watch_verified > 0);
      check Alcotest.bool "watch deltas byte-identical" true
        o.Chaosrun.serve_watch_identical;
      check Alcotest.bool "drained cleanly" true o.Chaosrun.serve_drained;
      check Alcotest.int "degraded-but-alive exit" 3 o.Chaosrun.serve_exit;
      check Alcotest.bool "metrics scrapes served under load" true
        (o.Chaosrun.serve_metrics_served > 0);
      check Alcotest.bool "every scrape was valid Prometheus text" true
        o.Chaosrun.serve_metrics_valid;
      check Alcotest.bool "per-rule counters appeared in a scrape" true
        o.Chaosrun.serve_rule_counters_seen;
      check Alcotest.bool "health probes served under load" true
        (o.Chaosrun.serve_health_served > 0);
      check Alcotest.bool "health degraded behind a crash burst" true
        o.Chaosrun.serve_health_degraded_seen;
      check Alcotest.string "health recovered to ok by the end" "ok"
        o.Chaosrun.serve_health_final;
      check Alcotest.bool "every check/watch response traced" true
        o.Chaosrun.serve_traced;
      check Alcotest.(list string) "no contract violations" []
        o.Chaosrun.serve_notes

let () =
  Alcotest.run "encore_serve"
    [
      ( "ring",
        [
          Alcotest.test_case "drop-oldest bound" `Quick test_ring_drop_oldest;
          Alcotest.test_case "wraparound order and drop monotonicity" `Quick
            test_ring_wraparound;
          Alcotest.test_case "capacity clamp" `Quick test_ring_clamps_capacity;
        ] );
      ( "proto",
        [
          Alcotest.test_case "parses every op" `Quick test_proto_parse_ok;
          Alcotest.test_case "typed parse errors" `Quick test_proto_parse_errors;
          Alcotest.test_case "error response shape" `Quick
            test_proto_error_response_shape;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memoize and reload" `Quick
            test_cache_memoize_and_reload;
          Alcotest.test_case "typed provider failure" `Quick
            test_cache_provider_failure_is_typed;
        ] );
      ( "watch",
        [
          Alcotest.test_case "start seeds full check" `Quick
            test_watch_start_seeds_full_check;
          Alcotest.test_case "delta byte-identical to full check" `Quick
            test_watch_delta_byte_identical;
          Alcotest.test_case "unchanged config empty delta" `Quick
            test_watch_unchanged_config_is_empty_delta;
          Alcotest.test_case "missing app is an error" `Quick
            test_watch_missing_app_is_error;
          Alcotest.test_case "deadline verdict grows to full" `Quick
            test_watch_deadline_verdict_grows;
        ] );
      ( "server",
        [
          Alcotest.test_case "check roundtrip" `Quick test_server_check_roundtrip;
          Alcotest.test_case "learn-append folds and adopts" `Quick
            test_server_learn_append_folds_and_adopts;
          Alcotest.test_case "learn-append hook failure typed" `Quick
            test_server_learn_append_hook_failure_is_typed;
          Alcotest.test_case "learn-append without learner" `Quick
            test_server_learn_append_without_learner;
          Alcotest.test_case "malformed typed error" `Quick
            test_server_malformed_gets_typed_error;
          Alcotest.test_case "oversize rejected unqueued" `Quick
            test_server_oversize_rejected_unqueued;
          Alcotest.test_case "sheds at capacity" `Quick
            test_server_sheds_at_capacity;
          Alcotest.test_case "crash supervision and breaker" `Quick
            test_server_crash_supervision_and_breaker;
          Alcotest.test_case "status and reload" `Quick
            test_server_status_and_reload;
          Alcotest.test_case "watch delta and reload fallback" `Quick
            test_server_watch_delta_and_reload_fallback;
          Alcotest.test_case "watch unknown image" `Quick
            test_server_watch_unknown_image;
          Alcotest.test_case "partial verdict under deadline" `Quick
            test_server_partial_verdict_under_deadline;
          Alcotest.test_case "graceful drain" `Quick test_server_graceful_drain;
          Alcotest.test_case "ring bounds alerts" `Quick
            test_server_ring_bounds_alerts;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics verb" `Quick test_server_metrics_verb;
          Alcotest.test_case "health verb and breaker transitions" `Quick
            test_server_health_verb_and_breaker;
          Alcotest.test_case "trace ids join responses to spans" `Quick
            test_server_trace_ids;
          Alcotest.test_case "serve check is an engine check" `Quick
            test_server_check_is_engine_check;
        ] );
      ( "soak",
        [
          Alcotest.test_case "10k-request chaos storm" `Quick
            test_serve_storm_soak;
        ] );
    ]
