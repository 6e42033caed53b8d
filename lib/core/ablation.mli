(** Ablation studies for the design choices DESIGN.md calls out.

    These go beyond the paper's tables: they quantify how much each
    EnCore design decision contributes, on the same synthetic substrate
    and with the same {!Experiments.table} output format.

    - {!training_size}: detection quality vs training-set size (how many
      images does the rule learner need before Table 8 quality sets in);
    - {!confidence_sweep}: rules judged, left after redundancy reduction
      and kept by the entropy filter as the confidence threshold moves
      (the support/confidence knobs of §5.2);
    - {!type_selection}: candidate instantiations per template with and
      without type-based attribute selection — the mechanism that makes
      template learning tractable where raw mining explodes (§5.1);
    - {!check_breakdown}: which of the four detector checks contributes
      which share of the Table 8 detections. *)

val training_size :
  ?config:Config.t -> ?sizes:int list -> unit -> Experiments.table

val confidence_sweep :
  ?config:Config.t -> ?scale:Experiments.scale ->
  ?confidences:float list -> unit -> Experiments.table

val type_selection :
  ?config:Config.t -> ?scale:Experiments.scale -> unit -> Experiments.table

val check_breakdown :
  ?config:Config.t -> ?scale:Experiments.scale -> unit -> Experiments.table

val miners :
  ?config:Config.t -> ?scale:Experiments.scale -> unit -> Experiments.table
(** Apriori vs FP-Growth on the assembled MySQL data across attribute
    subsets — the paper's section 2.2 observation that Apriori "does not
    scale to large data sets" while FP-Growth lasts somewhat longer. *)

val all :
  ?config:Config.t -> ?scale:Experiments.scale -> unit -> Experiments.table list
