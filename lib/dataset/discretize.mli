(** Nominal-to-binomial conversion (paper section 2.2, Table 2).

    Association-rule miners operate on boolean transactions, so each
    nominal attribute is expanded into one boolean item per observed
    value ("attr=value") and numeric attributes are binned.  This is the
    "boolean discretization problem" whose attribute blow-up breaks the
    off-the-shelf miners. *)

type item = string
(** Item label, e.g. ["mysql/mysqld/port=3306"] or
    ["CPU.Threads∈[4,8)"] for a binned numeric. *)

val numeric_bins : int
(** Number of equal-width bins for numeric columns (4). *)

val items_of_table :
  ?numeric:bool -> Table.t -> item list * item list array
(** [items_of_table t] returns the universe of items and, per row, the
    item set (as labels).  [numeric] (default true) enables numeric
    binning; when false, numeric values are treated as nominals. *)

val transactions :
  Table.t -> int array array * item array
(** Encode rows as sorted int arrays over a dense item dictionary:
    [(transactions, dictionary)]. *)

val binomial_count : Table.t -> int
(** Size of the item universe: the "Binominal" column of Table 2. *)
