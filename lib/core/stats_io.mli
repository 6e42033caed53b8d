(** Persistence for learning sufficient statistics.

    A model snapshot answers "what did we learn"; the statistics
    snapshot answers "what did we learn it {e from}" in a form that can
    keep growing — reload it, fold new images in with
    [Pipeline.learn_append], write it back.  The payload is the
    {!Encore_rules.Suffstats} envelope ([ENCORE-SUFFSTATS 1]) framed
    inside the same atomic snapshot envelope as models, so a crashed
    write or a flipped bit can never load. *)

type load_error = Encore_util.Snapshot.error

val load_error_to_string : load_error -> string

val snapshot_kind : string
(** ["suffstats"]. *)

val to_string : Encore_rules.Suffstats.t -> string
val of_string :
  path:string -> string -> (Encore_rules.Suffstats.t, load_error) result
(** [path] only labels errors.  A payload that does not parse is
    [Malformed] at the byte offset, within the text, of the line it
    rejects. *)

val save : string -> Encore_rules.Suffstats.t -> unit
(** Atomic write of the enveloped statistics. *)

val load : string -> (Encore_rules.Suffstats.t, load_error) result

(** Versioned statistics store, mirroring [Model_io.Store]: numbered
    snapshots, a [latest] pointer, pruning, rollback to the newest
    verifiable snapshot. *)
module Store : sig
  type t

  val create : ?keep:int -> dir:string -> unit -> t
  val dir : t -> string
  val snapshots : t -> string list
  val latest_path : t -> string option

  val save : t -> Encore_rules.Suffstats.t -> string
  (** Returns the snapshot path. *)

  val load_latest :
    t -> (Encore_rules.Suffstats.t * string, load_error) result
end
