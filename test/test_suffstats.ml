(* Tests for the mergeable sufficient-statistics learner: merge
   algebra laws, shard/append byte-identity against the batch path,
   and envelope persistence. *)

module Suffstats = Encore_rules.Suffstats
module Detector = Encore_detect.Detector
module Model_io = Encore_detect.Model_io
module Pipeline = Encore.Pipeline
module Stats_io = Encore.Stats_io
module Config = Encore.Config
module Synthfleet = Encore_workloads.Synthfleet
module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts

let check = Alcotest.check

let fleet = Synthfleet.generate ~seed:7 ~n:60 ()

let payload t = Suffstats.to_payload t

let model_string learner =
  Model_io.to_string (Detector.model_of_finalized (Suffstats.current learner))

(* Batch reference: the model [learn_durable] learns. *)
let batch_model_string images =
  match Pipeline.learn_durable images with
  | Ok { Pipeline.model = Some model; _ } -> Model_io.to_string model
  | Ok { Pipeline.model = None; _ } -> Alcotest.fail "learn_durable: no model"
  | Error d -> Alcotest.failf "learn_durable: %s" d.Encore_util.Resilience.detail

(* cut a list at ascending positions *)
let split_at cuts xs =
  let rec go acc cur i cuts = function
    | [] -> List.rev (List.rev cur :: acc)
    | x :: rest -> (
        match cuts with
        | c :: cuts' when i = c ->
            go (List.rev cur :: acc) [ x ] (i + 1) cuts' rest
        | _ -> go acc (x :: cur) (i + 1) cuts rest)
  in
  go [] [] 0 (List.sort_uniq compare cuts) xs

(* --- merge algebra --------------------------------------------------------- *)

let test_merge_unit () =
  let t = Suffstats.of_images (List.filteri (fun i _ -> i < 10) fleet) in
  check Alcotest.string "left unit" (payload t)
    (payload (Suffstats.merge Suffstats.empty t));
  check Alcotest.string "right unit" (payload t)
    (payload (Suffstats.merge t Suffstats.empty))

let qcheck_associative =
  QCheck.Test.make ~name:"suffstats merge is associative" ~count:30
    QCheck.(pair (int_bound 59) (int_bound 59))
    (fun (i, j) ->
      let i, j = (min i j, max i j) in
      match split_at [ i; j ] fleet with
      | [ xs; ys; zs ] | [ xs; ys; zs; _ ] ->
          let a = Suffstats.of_images xs
          and b = Suffstats.of_images ys
          and c = Suffstats.of_images zs in
          payload (Suffstats.merge (Suffstats.merge a b) c)
          = payload (Suffstats.merge a (Suffstats.merge b c))
      | parts ->
          (* split_at yields 1-3 parts for degenerate cuts; folding is
             then trivially associative *)
          List.length parts <= 3)

let qcheck_partition_invariant =
  QCheck.Test.make
    ~name:"any corpus partition merges to the sequential fold" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 6) (int_bound 59))
    (fun cuts ->
      let parts = split_at cuts fleet in
      let merged =
        List.fold_left Suffstats.merge Suffstats.empty
          (List.map Suffstats.of_images parts)
      in
      payload merged = payload (Suffstats.of_images fleet))

(* --- shard-merge learning -------------------------------------------------- *)

let test_sharded_stats_identity () =
  let seq = Suffstats.of_images fleet in
  List.iter
    (fun shards ->
      let config = { Config.default with Config.jobs = 4 } in
      let sharded = Pipeline.stats_of_images ~config ~shards fleet in
      check Alcotest.string
        (Printf.sprintf "shards=%d equals sequential" shards)
        (payload seq) (payload sharded))
    [ 1; 3; 8 ]

let test_finalize_matches_batch () =
  let expected = batch_model_string fleet in
  List.iter
    (fun (jobs, shards) ->
      let config = { Config.default with Config.jobs = jobs } in
      match Pipeline.learn_durable ~config ~shards fleet with
      | Error d -> Alcotest.failf "learn_durable: %s" d.Encore_util.Resilience.detail
      | Ok { Pipeline.model = None; _ } -> Alcotest.fail "learn_durable: no model"
      | Ok { Pipeline.model = Some model; _ } ->
          check Alcotest.string
            (Printf.sprintf "jobs=%d shards=%d model equals batch" jobs shards)
            expected
            (Model_io.to_string model))
    [ (1, 1); (4, 8) ]

(* --- incremental append ---------------------------------------------------- *)

let learner_of_images images =
  Suffstats.learner_of (Suffstats.of_images images)

let test_append_matches_batch () =
  match split_at [ 40; 50 ] fleet with
  | [ base; mid; tail ] ->
      let one_shot = learner_of_images fleet in
      let appended =
        Suffstats.append (Suffstats.append (learner_of_images base) mid) tail
      in
      check Alcotest.string "appended model equals one-shot learner"
        (model_string one_shot) (model_string appended);
      check Alcotest.string "appended model equals batch pipeline"
        (batch_model_string fleet) (model_string appended);
      check Alcotest.string "appended stats equal the full fold"
        (payload (Suffstats.of_images fleet))
        (payload (Suffstats.stats appended))
  | _ -> Alcotest.fail "bad split"

let test_append_empty_is_noop () =
  let l = learner_of_images (List.filteri (fun i _ -> i < 15) fleet) in
  check Alcotest.string "append [] keeps the model" (model_string l)
    (model_string (Suffstats.append l []))

(* A corpus whose type decision flips when new evidence arrives: [port]
   verifies as Number over the base corpus, then a textual value
   degrades it to String — the resident learner must fall back to a
   full rebuild and still match the batch path. *)
let tiny_image id entries =
  let fs = Fs.add_dir ~owner:"mysql" ~group:"mysql" Fs.empty "/var/lib/mysql" in
  let accounts = Accounts.add_service_account Accounts.base "mysql" in
  let text =
    "[mysqld]\n"
    ^ String.concat "" (List.map (fun (k, v) -> k ^ " = " ^ v ^ "\n") entries)
  in
  Image.make ~id ~fs ~accounts
    [ { Image.app = Image.Mysql; path = "/etc/my.cnf"; text } ]

let test_append_type_shift_rebuilds () =
  let base =
    List.init 12 (fun i ->
        tiny_image
          (Printf.sprintf "base-%d" i)
          [ ("port", string_of_int (3306 + (i mod 2)));
            ("datadir", "/var/lib/mysql") ])
  in
  let shift =
    [ tiny_image "shift-0" [ ("port", "auto"); ("new_knob", "on") ] ]
  in
  let appended = Suffstats.append (learner_of_images base) shift in
  check Alcotest.string "type-shifting append equals one-shot"
    (model_string (learner_of_images (base @ shift)))
    (model_string appended);
  check Alcotest.string "type-shifting append equals batch pipeline"
    (batch_model_string (base @ shift))
    (model_string appended)

let qcheck_append_split_invariant =
  let one_shot = lazy (model_string (learner_of_images fleet)) in
  QCheck.Test.make
    ~name:"learn_append over any split equals one-shot" ~count:8
    QCheck.(int_bound 59)
    (fun cut ->
      match split_at [ cut ] fleet with
      | [ base; rest ] ->
          model_string (Suffstats.append (learner_of_images base) rest)
          = Lazy.force one_shot
      | [ _ ] -> true (* cut at 0: nothing to split *)
      | _ -> false)

(* --- persistence ----------------------------------------------------------- *)

let fresh_dir () =
  let path = Filename.temp_file "encore-suffstats" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_payload_roundtrip () =
  let t = Suffstats.of_images (List.filteri (fun i _ -> i < 25) fleet) in
  match Suffstats.of_payload (Suffstats.to_payload t) with
  | Error (offset, e) -> Alcotest.failf "of_payload: byte %d: %s" offset e
  | Ok t' ->
      check Alcotest.string "payload round-trips" (payload t) (payload t');
      check Alcotest.int "image count survives" (Suffstats.n_images t)
        (Suffstats.n_images t')

let test_store_roundtrip () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Stats_io.Store.create ~dir () in
      let t = Suffstats.of_images (List.filteri (fun i _ -> i < 20) fleet) in
      let (_ : string) = Stats_io.Store.save store t in
      match Stats_io.Store.load_latest store with
      | Error e -> Alcotest.fail (Stats_io.load_error_to_string e)
      | Ok (t', _) ->
          check Alcotest.string "store round-trips" (payload t) (payload t');
          (* the reloaded statistics finalize to the same model *)
          check Alcotest.string "reloaded stats finalize identically"
            (model_string (Suffstats.learner_of t))
            (model_string (Suffstats.learner_of t')))

let test_envelope_rejects_foreign_schema () =
  let path = Filename.temp_file "encore-suffstats" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Encore_util.Snapshot.write_atomic ~kind:Stats_io.snapshot_kind path
        (Encore_util.Snapshot.frame ~schema:"ENCORE-SUFFSTATS 99" "images 0\n@stats\n");
      match Stats_io.load path with
      | Error (Encore_util.Snapshot.Version_mismatch _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Stats_io.load_error_to_string e)
      | Ok _ -> Alcotest.fail "future schema must not load")

(* A rejected line is reported where it starts, counted from the start
   of the framed text: the schema line, then the payload. *)
let test_malformed_line_offset () =
  let body =
    Suffstats.to_payload
      (Suffstats.of_images (List.filteri (fun i _ -> i < 10) fleet))
  in
  let framed = Encore_util.Snapshot.frame ~schema:Suffstats.payload_schema in
  let payload_at = String.length Suffstats.payload_schema + 1 in
  (* the line that starts at [at] replaced by [line] *)
  let replace_line at line =
    let eol = String.index_from body at '\n' in
    String.sub body 0 at ^ line ^ String.sub body eol (String.length body - eol)
  in
  let rec nth_line_after at k =
    if k = 0 then at
    else nth_line_after (String.index_from body at '\n' + 1) (k - 1)
  in
  let stats_at =
    match Encore_util.Strutil.split_once body "\n@stats\n" with
    | Some (before, _) -> String.length before + String.length "\n@stats\n"
    | None -> Alcotest.fail "payload has no @stats section"
  in
  (* the second image's frame: past the first frame line and its dump *)
  let second_frame =
    let first = nth_line_after 0 1 in
    let eol = String.index_from body first '\n' in
    let len = int_of_string (String.sub body (first + 7) (eol - first - 7)) in
    eol + 1 + len + 1
  in
  (* the first dump's header line, blanked at the same length: the dump
     is rejected at its frame line *)
  let first_dump = nth_line_after 0 2 in
  let blank_header =
    String.make (String.index_from body first_dump '\n' - first_dump) 'X'
  in
  let line_at at = String.sub body at (String.index_from body at '\n' - at) in
  let rec find_line at prefix =
    if Encore_util.Strutil.starts_with ~prefix (line_at at) then at
    else find_line (nth_line_after at 1) prefix
  in
  (* the first column record: its header, first two tally lines and
     first two distinct values; it is not overflowed *)
  let header = stats_at in
  let tally1 = nth_line_after header 1 and tally2 = nth_line_after header 2 in
  let d1 = find_line header "d," in
  let d2 = nth_line_after d1 1 in
  let header2 = find_line (nth_line_after header 1) "raw," in
  let glob = find_line header "glob," in
  (* field [k] of a record line, negated *)
  let negate k line =
    String.concat ","
      (List.mapi
         (fun i f -> if i = k then "-" ^ f else f)
         (String.split_on_char ',' line))
  in
  let overflowed at =
    match String.split_on_char ',' (line_at at) with
    | [ tag; attr; samples; "0" ] -> String.concat "," [ tag; attr; samples; "1" ]
    | _ -> Alcotest.failf "not a column header: %s" (line_at at)
  in
  (* four fresh distinct values after the first: the column's second
     value is then its sixth *)
  let four_more =
    String.concat "\n"
      (line_at d1 :: List.init 4 (fun i -> Printf.sprintf "d,fresh-%d" i))
  in
  List.iter
    (fun (name, at, line, rejected_at, needle) ->
      match Stats_io.of_string ~path:"p" (framed (replace_line at line)) with
      | Error (Encore_util.Snapshot.Malformed { offset; detail; _ }) ->
          check Alcotest.int (name ^ ": offset of the rejected line")
            (payload_at + rejected_at) offset;
          check Alcotest.bool (name ^ ": detail names it, " ^ detail) true
            (Encore_util.Strutil.contains_sub detail needle)
      | Error e ->
          Alcotest.failf "%s: expected Malformed, got %s" name
            (Stats_io.load_error_to_string e)
      | Ok _ -> Alcotest.failf "%s: the damaged payload loaded" name)
    [ (let at = nth_line_after stats_at 7 in
       ("stats line", at, "bogus,line", at, "bogus,line"));
      ("image frame", second_frame, "@image x", second_frame, "@image x");
      ("image dump", first_dump, blank_header, nth_line_after 0 1, "image 1");
      ("image count", 0, "images -1", 0, "-1");
      ("negative samples", header, negate 2 (line_at header), header,
       "bad column header");
      ("negative tally count", tally1, negate 2 (line_at tally1), tally1,
       "bad tally line");
      ("repeated column", header2, line_at header, header2, "repeated column");
      ("repeated tally type", tally2, line_at tally1, tally2,
       "repeated tally type");
      ("repeated distinct value", d2, line_at d1, d2,
       "repeated distinct value");
      ("more than distinct_cap values", d1, four_more,
       d1 + String.length four_more + 1, "more than 5 distinct values");
      ("distinct value on an overflowed column", header, overflowed header,
       d1, "overflowed column");
      ("overflowed global column", glob, overflowed glob, glob,
       "bad column header");
      ("distinct value on a global column", glob,
       line_at glob ^ "\nd,fresh", glob + String.length (line_at glob) + 1,
       "global column") ]

(* Two snapshots, the newer one damaged at rest: the store rolls back to
   the older one, which finalizes to the model of the statistics saved. *)
let test_store_rolls_back damage () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Stats_io.Store.create ~dir () in
      let first_n k =
        Suffstats.of_images (List.filteri (fun i _ -> i < k) fleet)
      in
      let older = first_n 15 and newer = first_n 25 in
      let first = Stats_io.Store.save store older in
      let head = Stats_io.Store.save store newer in
      damage ~rng:(Encore_util.Prng.create 19) head;
      match Stats_io.Store.load_latest store with
      | Error e -> Alcotest.fail (Stats_io.load_error_to_string e)
      | Ok (restored, path) ->
          check Alcotest.string "the first snapshot is returned" first path;
          check Alcotest.string "it finalizes to the saved statistics' model"
            (model_string (Suffstats.learner_of older))
            (model_string (Suffstats.learner_of restored)))

let qcheck cases = List.map (QCheck_alcotest.to_alcotest ~long:false) cases

let () =
  Alcotest.run "suffstats"
    [
      ( "merge-algebra",
        [
          Alcotest.test_case "merge unit" `Quick test_merge_unit;
        ]
        @ qcheck [ qcheck_associative; qcheck_partition_invariant ] );
      ( "shard-merge",
        [
          Alcotest.test_case "sharded stats identity" `Quick
            test_sharded_stats_identity;
          Alcotest.test_case "finalize matches batch" `Slow
            test_finalize_matches_batch;
        ] );
      ( "append",
        [
          Alcotest.test_case "append matches batch" `Slow
            test_append_matches_batch;
          Alcotest.test_case "append [] is a no-op" `Quick
            test_append_empty_is_noop;
          Alcotest.test_case "type shift forces rebuild" `Quick
            test_append_type_shift_rebuilds;
        ]
        @ qcheck [ qcheck_append_split_invariant ] );
      ( "persistence",
        [
          Alcotest.test_case "payload round-trip" `Quick test_payload_roundtrip;
          Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "foreign schema rejected" `Quick
            test_envelope_rejects_foreign_schema;
          Alcotest.test_case "malformed line offset" `Quick
            test_malformed_line_offset;
          Alcotest.test_case "store rolls back past a torn head" `Quick
            (test_store_rolls_back Encore_inject.Chaos.truncate_file);
          Alcotest.test_case "store rolls back past a flipped head" `Quick
            (test_store_rolls_back Encore_inject.Chaos.bitflip_file);
        ] );
    ]
