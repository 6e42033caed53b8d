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

val walk_target :
  resolve:(string -> 'r) ->
  augmentation:('r -> Augment.typed option) ->
  Encore_sysenv.Image.t ->
  (string -> string -> 'r -> unit) ->
  unit
(** The pairs of a target's assembled row, in row order, without the
    row: the parsed configuration entries, then each entry's
    augmentations in entry order, then the image globals.  [resolve]
    runs once per pair, and the visitor gets the pair with its result;
    [augmentation] names how a parsed entry with that result augments
    ({!Augment.typed} of its attribute under the training type
    environment), [None] for an entry that does not.  With [resolve]
    and [augmentation] from the training types, the visited pairs are
    [Row.to_list (assemble_target ~types img)]. *)

val assemble_target :
  types:Encore_typing.Infer.env -> Encore_sysenv.Image.t -> Row.t
(** Assemble one target image using the training type environment:
    the pairs {!walk_target} visits, as a row.  Partially applied to
    [~types], returns an assembler with the type environment hashed
    once. *)

val type_of :
  Encore_typing.Infer.env -> string -> Encore_typing.Ctype.t
(** Column type, falling back to the augmentation-suffix type for
    augmented attributes and [String_t] otherwise. *)
