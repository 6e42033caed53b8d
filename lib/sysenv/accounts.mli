(** Account database: the image's /etc/passwd and /etc/group.

    Type verification consults it for UserName / GroupName entries and
    the augmenter derives [.isAdmin], [.isRootGroup], [.isGroup] from it
    (paper Table 5a).

    A set is two sorted arrays, users by name and groups by group name,
    with one record per name, so a lookup by name is a binary search
    and two equal sets compare equal.  The arrays are immutable, so
    {!add_user} and {!add_group} copy them: O(n), fine for the
    generators' few accounts.  A whole set is built with {!of_list}. *)

type user = {
  name : string;
  uid : int;
  gid : int;
  home : string;
  shell : string;
}

type group = { gname : string; ggid : int; members : string list }

type t

val empty : t

val base : t
(** A typical minimal Linux account set: root, daemon, bin, nobody and
    the wheel/adm groups. *)

val add_user : t -> user -> t
(** Inserts or replaces the user of that name.  Also creates the user's
    primary group, named after the user, when no group with that gid
    exists yet. *)

val add_group : t -> group -> t
(** Inserts or replaces the group of that name. *)

val of_list : groups:group list -> users:user list -> t
(** The set that folding {!add_group} over [groups] and then
    {!add_user} over [users] builds from {!empty}: the last record per
    name wins, and a user whose gid no group holds at its turn gets an
    invented primary group named after it, which replaces any group of
    that name.  Records that ascend strictly by name, with every user's
    gid held by one of the groups, are taken as they are (every
    collector dump lists them so); any other input is replayed through
    hash tables and sorted, O(n log n) either way. *)

val add_service_account : t -> string -> t
(** [add_service_account t name] adds a daemon-style user [name] with a
    same-named primary group, the next free uid in the system range, home
    under /var/lib and a nologin shell. *)

val user_exists : t -> string -> bool
val group_exists : t -> string -> bool
val find_user : t -> string -> user option
val find_group : t -> string -> group option

val users : t -> user list
val groups : t -> group list

val groups_of_user : t -> string -> string list
(** Primary group plus supplementary memberships; [] for unknown users. *)

val user_in_group : t -> user:string -> group:string -> bool

val is_admin : t -> string -> bool
(** uid 0, or member of wheel / adm / sudo. *)

val is_root_group : t -> string -> bool
(** The user's primary group is gid 0. *)

val primary_group : t -> string -> string option
(** The last group in name order whose gid is the user's. *)
