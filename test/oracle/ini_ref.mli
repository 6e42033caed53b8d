(** The INI lens's parser before the index scanner. *)

val parse_diag :
  app:string -> string ->
  Encore_confparse.Kv.t list * (int * string) list
(** What {!Encore_confparse.Ini.parse_diag} must return. *)
