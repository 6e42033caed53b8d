module Res = Encore_util.Resilience
module Engine = Encore_detect.Engine
module Ometrics = Encore_obs.Metrics

type entry = { engine : Engine.t; fingerprint : string }

type provider = app:string -> (Engine.model, string) result

type t = {
  provider : provider;
  entries : (string, entry) Hashtbl.t;
  mutable generation : int;
}

let m_compiles = Ometrics.counter "serve.cache_compiles"
let m_hits = Ometrics.counter "serve.cache_hits"
let m_invalidations = Ometrics.counter "serve.cache_invalidations"

let create ~provider = { provider; entries = Hashtbl.create 8; generation = 0 }

let generation t = t.generation

let fingerprint_of model =
  Digest.to_hex (Digest.string (Encore_detect.Model_io.to_string model))

let compile_for t ~app =
  match t.provider ~app with
  | Error msg ->
      Error
        (Res.diag Res.Probe_failure ~subject:("model:" ^ app)
           (Printf.sprintf "model provider failed: %s" msg))
  | Ok model ->
      Ometrics.incr m_compiles;
      let entry =
        { engine = Engine.compile model; fingerprint = fingerprint_of model }
      in
      Hashtbl.replace t.entries app entry;
      Ok entry

let engine_for t ~app =
  match Hashtbl.find_opt t.entries app with
  | Some e ->
      Ometrics.incr m_hits;
      Ok e.engine
  | None -> Result.map (fun e -> e.engine) (compile_for t ~app)

let fingerprint t ~app =
  Option.map (fun e -> e.fingerprint) (Hashtbl.find_opt t.entries app)

let reload t =
  (* re-read every cached app eagerly so a broken provider surfaces on
     the reload response, not on the next unlucky check *)
  let apps = Hashtbl.fold (fun app _ acc -> app :: acc) t.entries [] in
  let apps = List.sort compare apps in
  let old =
    List.map (fun app -> (app, (Hashtbl.find t.entries app).fingerprint)) apps
  in
  Hashtbl.reset t.entries;
  t.generation <- t.generation + 1;
  Ometrics.incr m_invalidations;
  let rec refresh changed = function
    | [] -> Ok changed
    | (app, old_fp) :: rest -> (
        match compile_for t ~app with
        | Error _ as e -> e
        | Ok entry ->
            refresh (changed || entry.fingerprint <> old_fp) rest)
  in
  refresh false old

let cached_apps t =
  List.sort compare (Hashtbl.fold (fun app _ acc -> app :: acc) t.entries [])

(* --- shadow-validated reload --------------------------------------------- *)

let candidate t =
  (* same provider, empty entry table: the server compiles and probes
     the candidate in isolation while the live cache keeps serving *)
  { provider = t.provider; entries = Hashtbl.create 8; generation = t.generation }

let adopt t ~from =
  let changed =
    Hashtbl.fold
      (fun app (e : entry) acc ->
        acc
        ||
        match Hashtbl.find_opt t.entries app with
        | Some old -> old.fingerprint <> e.fingerprint
        | None -> true)
      from.entries false
    || Hashtbl.length t.entries <> Hashtbl.length from.entries
  in
  Hashtbl.reset t.entries;
  Hashtbl.iter (fun app e -> Hashtbl.replace t.entries app e) from.entries;
  t.generation <- t.generation + 1;
  Ometrics.incr m_invalidations;
  changed
