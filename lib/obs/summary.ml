type flat = {
  fname : string;
  fdepth : int;
  fstart_ns : int option;  (* absent from JSONL lines that lack it *)
  fdur_ns : int;
}

type stage = { stage_name : string; total_ns : int; calls : int; pct : float }

type t = {
  wall_ns : int;
  span_count : int;
  event_count : int;
  bad_lines : int;
  truncated : bool;
  stages : stage list;
  covered_ns : int;
  coverage_pct : float;
  slowest : (string * int * int) list;  (* name, dur_ns, depth *)
  event_kinds : (string * int) list;
  diag_kinds : (string * int) list;
}

let bump table key by =
  Hashtbl.replace table key (by + Option.value ~default:0 (Hashtbl.find_opt table key))

let sorted_counts table =
  List.sort
    (fun (a, _) (b, _) -> compare (a : string) b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let pct_of ~wall ns =
  if wall <= 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int wall

(* Wall time the stage spans cover: the union of their intervals, so
   stages running side by side on pool domains are not counted twice.
   A span without a start time counts its whole duration. *)
let covered stage_spans =
  let timed, untimed =
    List.partition_map
      (fun s ->
        match s.fstart_ns with
        | Some start -> Left (start, start + s.fdur_ns)
        | None -> Right s.fdur_ns)
      stage_spans
  in
  let union, _ =
    List.fold_left
      (fun (acc, stop) (a, b) ->
        if b <= stop then (acc, stop) else (acc + b - max a stop, b))
      (0, min_int) (List.sort compare timed)
  in
  List.fold_left ( + ) union untimed

let of_records ?(top = 10) ?(truncated = false) ~event_kinds ~diag_kinds
    ~bad_lines ~event_count spans =
  let root_depth =
    List.fold_left (fun acc s -> min acc s.fdepth) max_int spans
  in
  let wall_ns =
    List.fold_left
      (fun acc s -> if s.fdepth = root_depth then acc + s.fdur_ns else acc)
      0 spans
  in
  let per_stage = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.fdepth = root_depth + 1 then
        bump per_stage s.fname s.fdur_ns)
    spans;
  let calls = Hashtbl.create 16 in
  List.iter
    (fun s -> if s.fdepth = root_depth + 1 then bump calls s.fname 1)
    spans;
  let stages =
    Hashtbl.fold
      (fun name total acc ->
        {
          stage_name = name;
          total_ns = total;
          calls = Option.value ~default:0 (Hashtbl.find_opt calls name);
          pct = pct_of ~wall:wall_ns total;
        }
        :: acc)
      per_stage []
    |> List.sort (fun a b ->
           match compare b.total_ns a.total_ns with
           | 0 -> compare a.stage_name b.stage_name
           | c -> c)
  in
  let covered_ns =
    covered (List.filter (fun s -> s.fdepth = root_depth + 1) spans)
  in
  let coverage_pct = pct_of ~wall:wall_ns covered_ns in
  let slowest =
    List.map (fun s -> (s.fname, s.fdur_ns, s.fdepth)) spans
    |> List.sort (fun (na, da, _) (nb, db, _) ->
           match compare db da with 0 -> compare na nb | c -> c)
    |> List.filteri (fun i _ -> i < top)
  in
  {
    wall_ns;
    span_count = List.length spans;
    event_count;
    bad_lines;
    truncated;
    stages;
    covered_ns;
    coverage_pct;
    slowest;
    event_kinds;
    diag_kinds;
  }

let of_lines ?top ?truncated lines =
  let spans = ref [] in
  let event_kinds = Hashtbl.create 16 in
  let diag_kinds = Hashtbl.create 16 in
  let bad = ref 0 in
  let events = ref 0 in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match Jsonenc.of_string line with
        | Error _ -> incr bad
        | Ok json -> (
            incr events;
            let str key = Option.bind (Jsonenc.member key json) Jsonenc.to_string_opt in
            let int key = Option.bind (Jsonenc.member key json) Jsonenc.to_int_opt in
            match str "ev" with
            | None -> incr bad
            | Some kind ->
                bump event_kinds kind 1;
                (match kind with
                 | "span" -> (
                     match (str "name", int "depth", int "dur_ns") with
                     | Some fname, Some fdepth, Some fdur_ns ->
                         spans :=
                           { fname; fdepth; fstart_ns = int "start_ns"; fdur_ns }
                           :: !spans
                     | _ -> incr bad)
                 | "diag" -> (
                     match str "diag_kind" with
                     | Some k -> bump diag_kinds k 1
                     | None -> incr bad)
                 | _ -> ())))
    lines;
  of_records ?top ?truncated
    ~event_kinds:(sorted_counts event_kinds)
    ~diag_kinds:(sorted_counts diag_kinds)
    ~bad_lines:!bad ~event_count:!events (List.rev !spans)

(* A writer killed mid-record (daemon crash, SIGKILL during flush)
   leaves a final line with no terminating newline.  That torn tail is
   not a malformed record — it is an incomplete one — so it is dropped
   rather than counted against [bad_lines], and the summary carries a
   [truncated] note instead. *)
let split_torn content =
  let n = String.length content in
  let truncated = n > 0 && content.[n - 1] <> '\n' in
  let lines = String.split_on_char '\n' content in
  let lines =
    if truncated then
      (* every element but the last is newline-terminated in the file *)
      List.filteri (fun i _ -> i < List.length lines - 1) lines
    else lines
  in
  (lines, truncated)

let of_file ?top path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let lines, truncated = split_torn content in
      Ok (of_lines ?top ~truncated lines)

let of_spans ?top ?truncated roots =
  let spans = ref [] in
  List.iter
    (Trace.iter_tree (fun (sp : Trace.span) ->
         spans :=
           {
             fname = sp.Trace.name;
             fdepth = sp.Trace.depth;
             fstart_ns = Some (Int64.to_int sp.Trace.start_ns);
             fdur_ns = Int64.to_int sp.Trace.dur_ns;
           }
           :: !spans))
    roots;
  of_records ?top ?truncated ~event_kinds:[] ~diag_kinds:[] ~bad_lines:0
    ~event_count:0 (List.rev !spans)

let ms ns = float_of_int ns /. 1e6

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d span(s), %d event(s), wall %.3f ms%s\n"
       t.span_count t.event_count (ms t.wall_ns)
       ((if t.bad_lines > 0 then
           Printf.sprintf " (%d unparseable line(s))" t.bad_lines
         else "")
       ^
       if t.truncated then " (truncated: true — torn final line skipped)"
       else ""));
  if t.stages <> [] then begin
    Buffer.add_string buf "stage breakdown (% of wall time):\n";
    List.iter
      (fun st ->
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %10.3f ms  %5.1f%%  (%d span(s))\n"
             st.stage_name (ms st.total_ns) st.pct st.calls))
      t.stages;
    Buffer.add_string buf
      (Printf.sprintf "  %-24s %10.3f ms  %5.1f%%\n" "= covered"
         (ms t.covered_ns) t.coverage_pct)
  end;
  if t.slowest <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "top %d slowest span(s):\n" (List.length t.slowest));
    List.iter
      (fun (name, dur, depth) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-24s %10.3f ms  (depth %d)\n" name (ms dur) depth))
      t.slowest
  end;
  if t.event_kinds <> [] then begin
    Buffer.add_string buf "event kinds:";
    List.iter
      (fun (k, n) -> Buffer.add_string buf (Printf.sprintf " %s=%d" k n))
      t.event_kinds;
    Buffer.add_char buf '\n'
  end;
  if t.diag_kinds <> [] then begin
    Buffer.add_string buf "diagnostics by kind:";
    List.iter
      (fun (k, n) -> Buffer.add_string buf (Printf.sprintf " %s=%d" k n))
      t.diag_kinds;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf
