(** Data assembler (paper Figure 3): parse the image's configuration
    files, infer each entry's type, integrate environment information,
    and emit the assembled row.

    The two-pass protocol matches the paper: a first pass over the whole
    training set fixes per-column types; a second pass augments each
    image with environment attributes according to those types.  Target
    images reuse the *training* type environment, so checking and
    learning stay cleanly separated. *)

type assembled = {
  table : Table.t;
  types : Encore_typing.Infer.env;  (** per-column decisions, original and augmented *)
}

val parse_only : Encore_sysenv.Image.t -> Row.t
(** Configuration entries alone (no augmentation): the "Original"
    attribute view of paper Table 2. *)

val augment_row :
  types:Encore_typing.Infer.env -> Encore_sysenv.Image.t -> Row.t -> Row.t
(** Second-pass augmentation of one parsed row under a fixed type
    environment: entry augmentations per typed attribute, then the
    image globals.  [assemble_training] is exactly the first-pass type
    inference followed by this per image.  Partially applied to
    [~types], returns an augmenter with the type environment hashed and
    every typed attribute's augmentation names built once; it may be
    shared by pool domains. *)

val assemble_training :
  ?pool:Encore_util.Pool.t -> Encore_sysenv.Image.t list -> assembled
(** Full pipeline over a training set.  With [pool], the per-image
    parse and augmentation passes run on its worker domains; the result
    is identical for any pool size. *)

val target_assembler :
  types:Encore_typing.Infer.env -> Encore_sysenv.Image.t -> Row.t
(** Parse then {!augment_row}: partially applied to [~types], returns an
    assembler built once — the check-many path.  For every image,
    [target_assembler ~types img = assemble_target ~types img]. *)

val assemble_target :
  types:Encore_typing.Infer.env -> Encore_sysenv.Image.t -> Row.t
(** Assemble one target image using the training type environment. *)

val type_of :
  Encore_typing.Infer.env -> string -> Encore_typing.Ctype.t
(** Column type, falling back to the augmentation-suffix type for
    augmented attributes and [String_t] otherwise. *)
