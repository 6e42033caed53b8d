(** Reproduction of every quantitative table in the paper's evaluation
    (Tables 1–3 from the study/motivation sections, Tables 8–13 from
    section 7).  Each experiment returns a {!table} whose rows mirror
    the paper's layout so the two can be compared side by side; the
    [notes] field states the expected shape.

    All experiments are deterministic in [Config.seed].  [Scale]
    controls the population sizes: [paper_scale] matches the paper's
    training-set sizes; [test_scale] is a fast variant for unit tests. *)

type table = {
  exp_id : string;   (** e.g. "table8" *)
  title : string;
  header : string list;
  rows : string list list;
  notes : string;
}

val render : table -> string

type scale = {
  training : int;  (** images per application in the training set; 0 = paper sizes *)
  ec2_targets : int;      (** fresh EC2-like images scanned in Table 10 *)
  cloud_targets : int;    (** private-cloud images scanned in Table 10 *)
  mining_cap : int;       (** frequent-itemset cap standing in for OOM *)
}

val paper_scale : scale
val test_scale : scale

val table1 : unit -> table
(** Studied entries: total / env-related / correlated, ours vs paper. *)

val table2 : ?config:Config.t -> ?scale:scale -> unit -> table
(** Attribute counts: original / augmented / binomial. *)

val table3 : ?config:Config.t -> ?scale:scale -> unit -> table
(** FP-Growth time and frequent-itemset size vs number of attributes. *)

val first_items :
  seed:int -> items:int -> int array array -> int -> int array array
(** [first_items ~seed ~items transactions n] keeps, of each
    transaction, only the first [n] ids of a [seed]ed shuffle of the
    item ids [0 .. items - 1]: the paper's random selection of
    configuration entries, in which a larger [n] keeps a superset.
    Applied to its first three arguments it shuffles once.  Table 3 and
    the miners ablation sweep the attribute count with it. *)

val table8 : ?config:Config.t -> ?scale:scale -> unit -> table
(** Injected-error detection: Baseline / Baseline+Env / EnCore per app. *)

val table9 : ?config:Config.t -> ?scale:scale -> unit -> table
(** Ten real-world cases: info needed and warning rank. *)

val table10 : ?config:Config.t -> ?scale:scale -> unit -> table
(** New misconfigurations found in fresh EC2 and private-cloud images,
    by category. *)

val table11 : ?config:Config.t -> ?scale:scale -> unit -> table
(** Type-inference accuracy against the catalog ground truth. *)

val table12 : ?config:Config.t -> ?scale:scale -> unit -> table
(** Correlation rules detected and false positives per app. *)

val table13 : ?config:Config.t -> ?scale:scale -> unit -> table
(** Entropy-filter effectiveness: original rules / FP reduced /
    FN introduced. *)

val all : ?config:Config.t -> ?scale:scale -> unit -> table list
(** Every table, in paper order. *)
