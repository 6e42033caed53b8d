(** Rule templates (paper section 5.1, Table 6) and concrete rules.

    A template specifies a *pattern* of correlation between attribute
    types, not between attribute values: "an entry of type UserName is
    the owner of an entry of type FilePath".  The inference engine
    instantiates templates over the attributes whose inferred types fit
    the slots, producing concrete rules such as
    [mysql/mysqld/datadir => mysql/mysqld/user]. *)

module Ctype = Encore_typing.Ctype

type t = {
  tname : string;
  description : string;
  relation : Relation.t;
  slot_a : Ctype.t option;  (** [None]: any type accepted by the relation *)
  slot_b : Ctype.t option;
  min_confidence : float option;  (** per-template override, from custom files *)
}

val make :
  ?slot_a:Ctype.t -> ?slot_b:Ctype.t -> ?min_confidence:float ->
  name:string -> description:string -> Relation.t -> t

val predefined : t list
(** The 11 predefined templates of Table 6 (boolean-implication carries
    its four polarities under one template name, matching the paper's
    "extended boolean" row). *)

val eligible_a : t -> Ctype.t -> bool
val eligible_b : t -> Ctype.t -> bool

val to_string : t -> string
(** ["\[A:FilePath\] => \[B:UserName\]"]-style rendering. *)

type rule = {
  template : t;
  attr_a : string;
  attr_b : string;
  support : int;      (** images where the relation was applicable *)
  confidence : float; (** fraction of applicable images where it held *)
}

val rule_to_string : rule -> string
