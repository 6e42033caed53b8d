(** FP-Growth frequent-itemset mining (Han, Pei & Yin, SIGMOD 2000).

    Builds an FP-tree (prefix tree ordered by descending item frequency
    with header links) and mines it in one depth-first walk of
    recursive conditional-tree projection, avoiding Apriori's candidate
    generation.

    As with {!Apriori}, [max_itemsets] caps the output to emulate the
    out-of-memory terminations the paper reports past ~200 attributes
    (Table 3).  One counter bounds the whole walk: it stops at emission
    [max_itemsets + 1], so an overflowing run costs about the cap, not
    the blow-up. *)

type result = {
  frequent : (Itemset.t * int) list;
  overflowed : bool;
}

val mine :
  ?max_itemsets:int -> min_support:int -> Itemset.t array -> result
(** [max_itemsets] defaults to 2_000_000.  [frequent] is in the walk's
    emission order; on overflow it is the first [max_itemsets] itemsets
    the uncapped walk emits. *)

val count_only :
  ?max_itemsets:int -> ?pool:Encore_util.Pool.t -> min_support:int ->
  Itemset.t array -> int * bool
(** Mine but only count the frequent itemsets — the Table 3 measurement
    ("size of the intermediate frequent item set") without materializing
    the sets.  Returns [(min total (max_itemsets + 1), total >
    max_itemsets)].

    [pool] is accepted and ignored: the walk is sequential, and the
    argument stays only because the frozen benchmark (perfbench/) still
    passes it. *)
