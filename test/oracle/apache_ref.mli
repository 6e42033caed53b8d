(** The Apache lens's parser before the index scanner. *)

val parse_diag :
  app:string -> string ->
  Encore_confparse.Kv.t list * (int * string) list
(** What {!Encore_confparse.Apache_lens.parse_diag} must return.  Its
    "unclosed section" diagnostics recount the lines once per open
    frame, so deep unclosed nesting is quadratic here. *)
