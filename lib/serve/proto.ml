module Json = Encore_obs.Jsonenc
module Res = Encore_util.Resilience

(* --- requests ------------------------------------------------------------- *)

type check_source = Inline of string | Path of string

type metrics_format = Prometheus | Json_body

type request =
  | Check of { id : string option; source : check_source }
  | Learn_append of { id : string option; source : check_source }
  | Watch of {
      id : string option;
      image_id : string;
      app : string;
      config : string;
    }
  | Reload of { id : string option }
  | Status of { id : string option }
  | Metrics of { id : string option; format : metrics_format }
  | Health of { id : string option }
  | Shutdown of { id : string option }
  | Crash of { id : string option }

let request_op = function
  | Check _ -> "check"
  | Learn_append _ -> "learn-append"
  | Watch _ -> "watch"
  | Reload _ -> "reload"
  | Status _ -> "status"
  | Metrics _ -> "metrics"
  | Health _ -> "health"
  | Shutdown _ -> "shutdown"
  | Crash _ -> "crash"

let request_id = function
  | Check { id; _ }
  | Learn_append { id; _ }
  | Watch { id; _ }
  | Reload { id }
  | Status { id }
  | Metrics { id; _ }
  | Health { id }
  | Shutdown { id }
  | Crash { id } ->
      id

let ops =
  [
    "check"; "learn-append"; "watch"; "reload"; "status"; "metrics"; "health";
    "shutdown"; "crash";
  ]

let subject = "serve"

let bad detail = Error (Res.diag Res.Parse_error ~subject detail)

let parse line =
  match Json.of_string line with
  | Error msg -> bad (Printf.sprintf "malformed request: %s" msg)
  | Ok json -> (
      let str key = Option.bind (Json.member key json) Json.to_string_opt in
      let id = str "id" in
      match str "op" with
      | None -> bad "malformed request: missing 'op' field"
      | Some "check" -> (
          match (str "image", str "path") with
          | Some text, None -> Ok (Check { id; source = Inline text })
          | None, Some path -> Ok (Check { id; source = Path path })
          | Some _, Some _ -> bad "check: give 'image' or 'path', not both"
          | None, None -> bad "check: missing 'image' (inline dump) or 'path'")
      | Some "learn-append" -> (
          match (str "image", str "path") with
          | Some text, None -> Ok (Learn_append { id; source = Inline text })
          | None, Some path -> Ok (Learn_append { id; source = Path path })
          | Some _, Some _ ->
              bad "learn-append: give 'image' or 'path', not both"
          | None, None ->
              bad "learn-append: missing 'image' (inline dump) or 'path'")
      | Some "watch" -> (
          match (str "image", str "app", str "config") with
          | Some image_id, Some app, Some config ->
              Ok (Watch { id; image_id; app; config })
          | _ -> bad "watch: needs 'image' (id), 'app' and 'config' fields")
      | Some "reload" -> Ok (Reload { id })
      | Some "status" -> Ok (Status { id })
      | Some "metrics" -> (
          match str "format" with
          | None | Some "prometheus" | Some "prom" ->
              Ok (Metrics { id; format = Prometheus })
          | Some "json" -> Ok (Metrics { id; format = Json_body })
          | Some other ->
              bad
                (Printf.sprintf
                   "metrics: unknown format '%s' (expected 'prometheus' or \
                    'json')"
                   other))
      | Some "health" -> Ok (Health { id })
      | Some "shutdown" -> Ok (Shutdown { id })
      | Some "crash" -> Ok (Crash { id })
      | Some op ->
          bad
            (Printf.sprintf "unknown op '%s' (expected one of: %s)" op
               (String.concat ", " ops)))

(* --- responses ------------------------------------------------------------ *)

(* Every response is one JSON object per line.  [id] echoes the
   request's correlation id when it carried one; [ok] separates
   verdicts from errors so a consumer can route on one boolean. *)

let with_id id fields =
  match id with Some i -> ("id", Json.Str i) :: fields | None -> fields

let ok_response ?id ~op fields =
  Json.Obj
    (("ok", Json.Bool true) :: with_id id (("op", Json.Str op) :: fields))

let error_response ?id ?op ?(overloaded = false) (d : Res.diagnostic) =
  let op_field = match op with Some o -> [ ("op", Json.Str o) ] | None -> [] in
  Json.Obj
    (("ok", Json.Bool false)
    :: with_id id
         (op_field
         @ [
             ("error", Json.Str (Res.kind_to_string d.Res.kind));
             ("detail", Json.Str d.Res.detail);
           ]
         @ if overloaded then [ ("overloaded", Json.Bool true) ] else []))

let verdict_response ?id ~op ~image ~partial ~detections warnings =
  ok_response ?id ~op
    [
      ("image", Json.Str image);
      ("warnings", Json.Int (List.length warnings));
      ("detections", Json.Int detections);
      ("partial", Json.Bool partial);
      ("items", Json.Arr (List.map Encore_detect.Report.warning_json warnings));
    ]

(* Trace ids are assigned by the server at admission, after the
   response builders ran, so they are stamped onto the finished object;
   appended last to keep ok/id/op leading the line. *)
let with_trace trace json =
  match (trace, json) with
  | Some tid, Json.Obj fields -> Json.Obj (fields @ [ ("trace", Json.Str tid) ])
  | _ -> json

let alert_json ~image (w : Encore_detect.Warning.t) =
  match Encore_detect.Report.warning_json w with
  | Json.Obj fields ->
      Json.Obj (("ev", Json.Str "alert") :: ("image", Json.Str image) :: fields)
  | other -> other
