(* Poll-based filesystem watcher feeding config changes to watch.

   Watches a directory of config files named <image-id>@<app>.conf and
   reports, on each poll, the files whose (mtime, size) signature
   changed since the last poll — creation counts, deletion is
   forgotten silently.  [create] takes the baseline scan, so the first
   [poll] reports only what changed after the daemon started: the
   watcher feeds deltas, it does not replay the directory.

   Polling stat signatures (not inotify) keeps the watcher portable and
   free of extra dependencies.  The serve loop ([Mux.run]) polls once
   before each turn, when every queued request has been answered, so a
   change is noticed within one select tick of an idle daemon. *)

type delta = {
  d_image_id : string;
  d_app : string;
  d_path : string;
  d_text : string;
}

type sig_ = { mtime : float; size : int }

type t = {
  dir : string;
  seen : (string, sig_) Hashtbl.t;  (* file name -> last signature *)
}

(* <image-id>@<app>.conf; image ids may themselves contain '@' only if
   the last one separates the app *)
let parse_name name =
  if Filename.check_suffix name ".conf" then
    let base = Filename.chop_suffix name ".conf" in
    match String.rindex_opt base '@' with
    | Some i when i > 0 && i < String.length base - 1 ->
        Some
          ( String.sub base 0 i,
            String.sub base (i + 1) (String.length base - i - 1) )
    | _ -> None
  else None

let signature path =
  match Unix.stat path with
  | { Unix.st_mtime; st_size; st_kind = Unix.S_REG; _ } ->
      Some { mtime = st_mtime; size = st_size }
  | _ -> None
  | exception Unix.Unix_error (_, _, _) -> None

let scan t ~emit =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.sort compare names;
      Array.iter
        (fun name ->
          match parse_name name with
          | None -> ()
          | Some (image_id, app) -> (
              let path = Filename.concat t.dir name in
              match signature path with
              | None -> Hashtbl.remove t.seen name
              | Some s -> (
                  let changed =
                    match Hashtbl.find_opt t.seen name with
                    | Some old -> old.mtime <> s.mtime || old.size <> s.size
                    | None -> true
                  in
                  if changed then begin
                    Hashtbl.replace t.seen name s;
                    match
                      In_channel.with_open_bin path In_channel.input_all
                    with
                    | text ->
                        emit
                          {
                            d_image_id = image_id;
                            d_app = app;
                            d_path = path;
                            d_text = text;
                          }
                    | exception Sys_error _ -> ()
                  end)))
        names

(* <name>.img: a full collector image dump dropped into the watched
   directory — the continuous-learning feed.  Shares the signature
   table with config files (the suffixes keep the namespaces
   disjoint), so the two polls never disturb each other. *)
let scan_images t ~emit =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.sort compare names;
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".img" then
            let path = Filename.concat t.dir name in
            match signature path with
            | None -> Hashtbl.remove t.seen name
            | Some s ->
                let changed =
                  match Hashtbl.find_opt t.seen name with
                  | Some old -> old.mtime <> s.mtime || old.size <> s.size
                  | None -> true
                in
                if changed then begin
                  Hashtbl.replace t.seen name s;
                  emit path
                end)
        names

let create ~dir =
  let t = { dir; seen = Hashtbl.create 16 } in
  (* baseline: existing files are current state, not deltas *)
  scan t ~emit:(fun _ -> ());
  scan_images t ~emit:(fun _ -> ());
  t

let poll t =
  let acc = ref [] in
  scan t ~emit:(fun d -> acc := d :: !acc);
  List.rev !acc

let poll_images t =
  let acc = ref [] in
  scan_images t ~emit:(fun p -> acc := p :: !acc);
  List.rev !acc

let dir t = t.dir

let learn_request path =
  Encore_obs.Jsonenc.to_string
    (Encore_obs.Jsonenc.Obj
       [
         ("op", Encore_obs.Jsonenc.Str "learn-append");
         ("id", Encore_obs.Jsonenc.Str ("fswatch:" ^ Filename.basename path));
         ("path", Encore_obs.Jsonenc.Str path);
       ])

let watch_request d =
  Encore_obs.Jsonenc.to_string
    (Encore_obs.Jsonenc.Obj
       [
         ("op", Encore_obs.Jsonenc.Str "watch");
         ("id", Encore_obs.Jsonenc.Str ("fswatch:" ^ d.d_image_id));
         ("image", Encore_obs.Jsonenc.Str d.d_image_id);
         ("app", Encore_obs.Jsonenc.Str d.d_app);
         ("config", Encore_obs.Jsonenc.Str d.d_text);
       ])
