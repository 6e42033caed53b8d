(** The collector-dump decoder before the one-pass scanner. *)

val image_of_text : string -> (Encore_sysenv.Image.t, string) result
(** What {!Encore_sysenv.Collector.image_of_text} must return.  One
    known difference: a dump that ends at its [@env] line with no
    newline raises [Invalid_argument] here. *)
