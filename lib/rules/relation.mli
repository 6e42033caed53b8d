(** Relation semantics for the rule templates (paper Table 6).

    A relation is a validation method: given the image whose environment
    it may consult and the instances of the two participating attributes
    in that image, it decides whether the relation holds.  [eval] returns [None] when the relation is
    not applicable in that context (missing attribute, unparsable value)
    so that inapplicable images count toward neither support nor
    confidence. *)

module Ctype = Encore_typing.Ctype

type t =
  | Eq_all           (** every instance of A equals every instance of B *)
  | Eq_exists        (** some instance of A equals some instance of B *)
  | Bool_implies of bool * bool
      (** (A = fst) implies (B = snd), both boolean-valued *)
  | Subnet           (** IP entry A lies in the subnet/prefix of B *)
  | Concat_path      (** A + B forms a path that exists in the image *)
  | Substring        (** A is a substring of B *)
  | User_in_group    (** user A belongs to group B *)
  | Not_accessible   (** path A is not readable by user B *)
  | Ownership        (** user B owns path A *)
  | Num_less         (** number A < number B *)
  | Size_less        (** size A < size B, unit-aware *)

val to_string : t -> string
val symbol : t -> string
(** Operator spelling used by the template grammar: [==] [=~] [~>TT]
    [<<] [+] [<:] [@] [!@] [=>] [<] [<#]. *)

val of_symbol : string -> t option

val slot_a_ok : t -> Ctype.t -> bool
(** May an attribute of this type fill slot A? *)

val slot_b_ok : t -> Ctype.t -> bool

val symmetric : t -> bool
(** [a R b] iff [b R a]; inference keeps one orientation of such rules. *)

val same_type_required : t -> bool
(** Eq/substring relations additionally require both slots to share one
    type. *)

val eval :
  t -> Encore_sysenv.Image.t -> a:string list -> b:string list -> bool option
(** Validation method on the instance lists of the two attributes in
    one image; [None] when either list is empty. *)

val truthy : string -> bool option
(** The boolean reading of a value ([on]/[true]/[yes]/[1]/[enabled] and
    their negations, case- and space-insensitive) that {!Bool_implies}
    evaluates; [None] for any other value. *)
