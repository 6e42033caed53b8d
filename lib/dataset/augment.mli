(** Environment-information integration (paper section 4.3, Tables 5a/5b).

    For each configuration entry whose inferred type carries system
    semantics, append augmented attributes derived from the image:

    - FilePath [p]:  [p.owner], [p.group], [p.type] (dir/file/symlink/
      missing), [p.permission], [p.contents] (digest of child names),
      [p.hasDir], [p.hasSymLink]
    - IPAddress:     [.Local] (RFC 1918 / loopback), [.IPv6], [.AnyAddr]
    - UserName:      [.isRootGroup], [.isAdmin], [.isGroup]
    - PortNumber:    [.service] (name from /etc/services, or "unknown"),
      [.privileged]
    - Size:          [.bytes] (normalized byte count)

    plus the per-image global attributes of Table 5b (Sys.IPAddress,
    Sys.HostName, Sys.FSType, Sys.Users, OS.DistName, OS.Version,
    OS.SEStatus, CPU.Threads, CPU.Freq, MemSize, HDD.AvailSpace and
    Env vars when present).

    Augmented attribute names are the entry name plus a dot-separated
    suffix, exactly as in the paper ("datadir.owner"). *)

module Ctype = Encore_typing.Ctype

val suffixes_for : Ctype.t -> string list
(** The augmentation suffixes an entry of this type receives. *)

val augmented_type : string -> Ctype.t
(** The type assigned to an augmented attribute, from its suffix
    (e.g. ".owner" -> UserName, ".permission" -> Permission). *)

val is_augmented : string -> bool
(** Does this attribute name end in an augmentation suffix? *)

val base_attr : string -> string
(** Strip the augmentation suffix; identity for plain attributes. *)

type typed
(** One attribute under its inferred type, with its augmentation names
    built once. *)

val typed : string -> Ctype.t -> typed

val augment : typed -> Encore_sysenv.Image.t -> string -> (string * string) list
(** The augmented pairs for one configuration instance of the attribute. *)

val globals : Encore_sysenv.Image.t -> (string * string) list
(** The Table 5b image-global attributes. *)
