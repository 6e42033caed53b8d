(** Step 2 of type inference: heavy-weight semantic verification against
    the system environment (paper section 4.2).

    A candidate type is confirmed only if the value resolves to a real
    object of the image: a FilePath must exist in the file tree, a
    UserName in the account database, a PortNumber in the service map,
    and so on.  Types without an external reference (URL, Language,
    Size, Number...) verify by value-shape alone: they are
    {e image-free}, and a checker may settle their verdict once per
    value instead of once per image. *)

val verify : Encore_sysenv.Image.t -> Ctype.t -> string -> bool
(** [verify img t value]: does [value] pass the semantic check of [t]
    in the context of [img]? *)

val image_free : Ctype.t -> bool
(** Whether {!verify}'s verdict for the type is the same on every image:
    true for every type except FilePath, UserName, GroupName,
    PortNumber and custom types, which consult the image's file tree,
    accounts, services or a user-supplied checker. *)

val verify_value : Ctype.t -> string -> bool
(** [verify img t value] for an image-free [t], without an image.
    [false] for the other types, whose verdict needs one. *)

val infer_value : Encore_sysenv.Image.t -> string -> Ctype.t
(** Full two-step inference for a single value in a single image: first
    syntactic candidate that also passes semantic verification, falling
    back to [Number]/[String_t]. *)
