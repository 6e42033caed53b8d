(** Service registry: the image's /etc/services.

    PortNumber semantic verification checks that a numeric value names a
    known service port (paper Table 4).

    A registry is two parallel arrays, ports strictly ascending and
    their names, so a port lookup is a binary search and two equal
    registries compare equal.  {!add} copies the arrays: O(n), fine for
    the generators' few ports.  A whole registry is built with
    {!of_list}. *)

type t

val empty : t

val base : t
(** Common well-known ports (ssh 22, http 80, https 443, mysql 3306,
    smtp 25, dns 53, pop3 110, imap 143, memcached 11211, redis 6379,
    postgres 5432, and the registered alternates 8080/8443). *)

val add : t -> port:int -> name:string -> t
(** Inserts or renames the port. *)

val of_list : (int * string) list -> t
(** The registry that folding {!add} over the (port, name) records
    builds from {!empty}: the last record per port wins.  Records whose
    ports ascend strictly (every collector dump lists them so) are taken
    as they are; any other order is stably sorted, O(n log n). *)

val known_port : t -> int -> bool
val service_of_port : t -> int -> string option
val port_of_service : t -> string -> int option
(** The highest port of that name. *)

val ports : t -> int list
