(** Virtual filesystem model.

    A system image carries a snapshot of its file tree: for each path, the
    owner, group, permission bits, file kind and (for symlinks) the
    target.  The semantic type verifier and the environment augmenter
    query this model exactly as the real EnCore queried the file-system
    metadata dumped by its data collector.

    Paths are absolute, ['/']-separated, with no trailing slash (except
    the root ["/"] itself).

    A tree is two sorted parallel arrays, paths and their metadata,
    with the root first.  {!lookup} is a binary search, and a subtree
    walk ({!children}, {!has_subdir}, {!has_symlink}) scans the
    contiguous run of paths under its directory.  The arrays are
    immutable, so every update copies them: {!add} costs O(n) in the
    size of the tree, and folding it over n records costs O(n{^2}).
    A whole tree is built with {!of_list}, or record by record with a
    {!builder}, in O(n log n): records that ascend parent first (every
    collector dump does) are taken in one pass, and any other order is
    sorted.  A record's parent is found without a search when it is the
    previous record or one of its ancestors, else by binary search. *)

type kind = Regular | Directory | Symlink of string

type meta = {
  owner : string;
  group : string;
  perm : int;  (** e.g. 0o644 *)
  size : int;  (** bytes; 0 for directories *)
  kind : kind;
}

type t
(** Immutable file tree. *)

val empty : t
(** Just the root directory, owned by root:root with mode 0755. *)

val canonicalize : string -> (string, string) result
(** Normalize a path to canonical absolute form: a droppable leading
    ["./"], doubled or trailing slashes and ["."] components are
    absorbed; ["..]"] components resolve against their parent.  Typed
    errors (instead of an exception) for the unsafe cases: the empty
    path, a genuinely relative path, or [".."] escaping the root. *)

val add : t -> string -> meta -> t
(** [add fs path meta] inserts or replaces the node at [path], creating
    any missing parent directories (root-owned, 0755).  The path is
    normalized with {!canonicalize} first.
    @raise Invalid_argument if [path] does not canonicalize. *)

val of_list : (string * meta) list -> t
(** The tree that folding {!add} over the records in order from
    {!empty} builds: the last record for a path wins, and an ancestor
    that no record names is a root-owned 0755 directory.  Records that
    ascend in canonical path order, each after its parent, are taken
    in one pass; any other order is sorted.
    @raise Invalid_argument at the first path that does not
    canonicalize, with {!add}'s message. *)

type builder
(** A tree under construction: records go into growable arrays in
    arrival order, and {!build} hands them to the tree, trimmed to
    size, sorting them only when they are out of order. *)

val builder : unit -> builder

val push : builder -> string -> meta -> unit
(** Append one record.
    @raise Invalid_argument if the path does not canonicalize, with
    {!add}'s message. *)

val build : builder -> t
(** [of_list] of the records pushed so far, in order; O(n log n). *)

(** {2 Metadata by kind}

    The metadata {!add_dir}, {!add_file} and {!add_symlink} store.  A
    directory or a symlink has size 0, and a symlink mode 0777. *)

val dir_meta : owner:string -> group:string -> perm:int -> meta
val file_meta : owner:string -> group:string -> perm:int -> size:int -> meta
val symlink_meta : owner:string -> group:string -> target:string -> meta

val add_dir :
  ?owner:string -> ?group:string -> ?perm:int -> t -> string -> t

val add_file :
  ?owner:string -> ?group:string -> ?perm:int -> ?size:int -> t -> string -> t

val add_symlink :
  ?owner:string -> ?group:string -> t -> string -> target:string -> t

val remove : t -> string -> t
(** Remove a node and all its descendants.  Removing ["/"] or a missing
    path returns the tree unchanged. *)

val lookup : t -> string -> meta option
(** Metadata at [path], without following symlinks. *)

val resolve : t -> string -> meta option
(** Metadata at [path], following symlinks (up to 16 hops). *)

val exists : t -> string -> bool
val is_dir : t -> string -> bool
(** True for a directory, following symlinks. *)

val is_file : t -> string -> bool
(** True for a regular file, following symlinks. *)

val children : t -> string -> string list
(** Immediate child basenames of a directory, sorted; [] otherwise. *)

val has_subdir : t -> string -> bool
(** Directory with at least one subdirectory among its children. *)

val has_symlink : t -> string -> bool
(** Directory with at least one symlink among its children. *)

val all_paths : t -> string list
(** Every path in the tree (excluding the root), sorted. *)

val chown : t -> string -> owner:string -> group:string -> t
(** Change ownership of an existing node; no-op when absent. *)

val chmod : t -> string -> perm:int -> t

val readable_by :
  t -> user:string -> groups:string list -> string -> bool
(** POSIX-style read-permission check on the node itself (owner bits if
    [user] matches, else group bits if any of [groups] matches, else
    other bits).  [false] when the path does not exist.  [root] can read
    everything. *)

val fold : (string -> meta -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every (path, meta) pair, excluding the root. *)
