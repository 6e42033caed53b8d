(** The collector-dump decoder before the one-pass scanner. *)

val image_of_text : string -> (Encore_sysenv.Image.t, string) result
(** What {!Encore_sysenv.Collector.image_of_text} must return.  One
    known difference: a dump that ends at its [@env] line with no
    newline raises [Invalid_argument] here. *)

val of_text :
  string -> Encore_sysenv.Collector.record list
(** The records of a {!Encore_sysenv.Collector.to_text} rendering, one
    per well-formed line; malformed lines are skipped. *)

val find :
  Encore_sysenv.Collector.record list -> section:string -> key:string ->
  string list option
(** The fields of the first record with this section and key. *)
