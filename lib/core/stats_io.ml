module Snapshot = Encore_util.Snapshot
module Suffstats = Encore_rules.Suffstats

type load_error = Snapshot.error

let load_error_to_string = Snapshot.error_to_string
let snapshot_kind = "suffstats"

let to_string stats =
  Snapshot.frame ~schema:Suffstats.payload_schema (Suffstats.to_payload stats)

let of_string ~path text =
  match Snapshot.unframe ~schema:Suffstats.payload_schema ~path text with
  | Error _ as e -> e
  | Ok payload -> (
      match Suffstats.of_payload payload with
      | Ok stats -> Ok stats
      | Error (offset, detail) ->
          (* the payload starts after the schema line *)
          Error
            (Snapshot.Malformed
               { path;
                 offset = String.length Suffstats.payload_schema + 1 + offset;
                 detail }))

let save path stats =
  Snapshot.write_atomic ~kind:snapshot_kind path (to_string stats)

let load path =
  match Snapshot.read ~kind:snapshot_kind path with
  | Error _ as e -> e
  | Ok payload -> of_string ~path payload

module Store = struct
  type t = Snapshot.Store.t

  let create ?keep ~dir () =
    Snapshot.Store.create ?keep ~kind:snapshot_kind ~dir ()

  let dir = Snapshot.Store.dir
  let snapshots = Snapshot.Store.snapshots
  let latest_path = Snapshot.Store.latest_path
  let save t stats = Snapshot.Store.save t (to_string stats)

  let load_latest t =
    match Snapshot.Store.load_latest t with
    | Error _ as e -> e
    | Ok (payload, path) -> (
        match of_string ~path payload with
        | Ok stats -> Ok (stats, path)
        | Error _ as e -> e)
end
