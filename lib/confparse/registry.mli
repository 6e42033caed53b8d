(** Lens registry: application -> parser/renderer, extensible like the
    Augeas import interface the paper builds on. *)

type lens = {
  parse : app:string -> string -> Kv.t list;
  render : app:string -> Kv.t list -> string;
}

val ini_lens : lens
val apache_lens : lens
val sshd_lens : lens

val default : unit -> (string * lens) list
(** Built-in bindings: apache -> Apache lens, mysql/php -> INI lens,
    sshd -> sshd lens. *)

val lens_for : string -> lens option
(** Look up in the default registry extended by {!register}: a
    registered lens first, then the builtin one.  {!parse_image} and
    {!parse_image_diag} both resolve lenses this way. *)

val register : string -> lens -> unit
(** Bind (or override) the lens used for an application name. *)

val unregister : string -> unit
(** Drop the binding {!register} made for an application name; its
    builtin lens, if any, applies again. *)

val parse_image : Encore_sysenv.Image.t -> Kv.t list
(** Parse every config file carried by an image with its app's lens,
    concatenated in file order.  Files whose app has no lens are
    skipped. *)

type image_parse = {
  kvs : Kv.t list;
  fatal : Encore_util.Resilience.diagnostic list;
      (** payload-level damage: corrupt bytes, truncation, raising
          custom lens.  A non-empty list means the image should not be
          trusted for training. *)
  warnings : Encore_util.Resilience.diagnostic list;
      (** recoverable per-line lens diagnostics; the malformed lines
          were skipped and the remaining [kvs] are usable. *)
}

val parse_image_diag : Encore_sysenv.Image.t -> image_parse
(** Resilient counterpart of {!parse_image}, with the same lenses and
    the same pairs in the same order.  Never raises: config files whose
    raw text fails {!Encore_util.Resilience.scan_text} are excluded
    wholesale and reported under [fatal]; builtin lenses contribute
    skipped-line diagnostics under [warnings]; registered lenses that
    raise are caught and reported as [Custom_rule_error]. *)
