(** The string-keyed reference evaluator for template-guided rule
    inference (paper section 5.1, Figure 5).

    Every candidate walks every training row through
    {!Encore_rules.Relation.eval}; vacuity and lift are recounted per
    candidate from the raw cells.  Nothing is shared with the candidate
    evaluator ({!Encore_rules.Infer.evaluate}) beyond candidate
    generation, polarity expansion, the support threshold, the relation
    semantics and the final rule order, so a property test pinning the
    two together checks the evaluator's popcounts, typed value caches
    and verdict arithmetic. *)

type training = Encore_rules.Infer.training

val evaluate_instantiation :
  Encore_rules.Template.t -> training -> a:string -> b:string -> int * int
(** [(applicable, valid)] counts over the training set, row by row. *)

type columnar = {
  cols : Encore_dataset.Colview.t;
  images : Encore_sysenv.Image.t array;
}
(** Columnar training set: [Colview.column cols id] holds one instance
    list per row, [images.(row)] the row's image. *)

val columnar_of_training : training -> columnar

val evaluate_instantiation_cols :
  Encore_rules.Template.t -> columnar ->
  ca:string list array -> cb:string list array -> int * int
(** {!evaluate_instantiation} over two columns. *)

val antecedent_support_cols :
  Encore_rules.Relation.t -> ca:string list array -> int option
(** Rows whose A cell holds the implication's antecedent polarity;
    [None] for relations other than [Bool_implies]. *)

val consequent_base_rate_cols :
  Encore_rules.Relation.t -> cb:string list array -> float option
(** Share of rows carrying B whose every value already equals the
    implied polarity; [None] for relations other than [Bool_implies]
    or when B is never present. *)

val evaluate_candidate :
  params:Encore_rules.Infer.params -> min_support:int -> columnar ->
  Encore_rules.Template.t * string * string -> Encore_rules.Infer.verdict
(** One candidate's fate under the support, vacuity, confidence and
    lift tests. *)

val candidates_of :
  types:Encore_typing.Infer.env -> templates:Encore_rules.Template.t list ->
  string list -> (Encore_rules.Template.t * string * string) list

val infer_reference :
  ?params:Encore_rules.Infer.params ->
  ?templates:Encore_rules.Template.t list ->
  types:Encore_typing.Infer.env -> training -> Encore_rules.Template.rule list
(** The rules {!Encore_rules.Infer.infer} must learn, in its order:
    each candidate judged on its own, walking the full row range. *)

val rule_holds :
  Encore_rules.Template.rule -> Encore_sysenv.Image.t ->
  Encore_dataset.Row.t -> bool option
(** Re-evaluate a learned rule on an image's assembled row; [None] when
    the involved attributes are absent there (the detector then skips
    the rule, paper section 6). *)

(** {1 Text layers}

    The byte-level decoders a checked image passes through, as they
    stood before their single-pass rewrites: property and fuzz tests
    pin the library scanners to them. *)

module Dump_ref = Dump_ref
module Ini_ref = Ini_ref
module Apache_ref = Apache_ref
module Augment_ref = Augment_ref
