(** Environment augmentation before the shared augmenter. *)

val augment_row :
  types:Encore_typing.Infer.env -> Encore_sysenv.Image.t ->
  Encore_dataset.Row.t -> Encore_dataset.Row.t
(** What {!Encore_dataset.Assemble.augment_row} must return. *)

val target_assembler :
  types:Encore_typing.Infer.env -> Encore_sysenv.Image.t ->
  Encore_dataset.Row.t
(** What {!Encore_dataset.Assemble.assemble_target} must return. *)
