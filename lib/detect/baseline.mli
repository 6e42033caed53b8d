(** Comparison baselines for the injection experiment (paper §7.1.1,
    Table 8).

    [Baseline] resembles PeerPressure/Strider: pure value comparison on
    the raw configuration entries — no environment information, no
    correlation rules.  It flags unseen entry names and unseen values
    only.

    [Baseline+Env] adds the type-based environment integration (type
    checks and value comparison over augmented attributes) but still no
    correlation rules.

    Each model comes back compiled ({!Engine.compile}), so checking
    many images compiles it once; {!Engine.model} gives the model. *)

val baseline_model : Encore_sysenv.Image.t list -> Engine.t
(** Learn from raw (non-augmented) configuration data only; no rules. *)

val baseline_check : Engine.t -> Encore_sysenv.Image.t -> Warning.t list
(** Name + suspicious-value checks on raw configuration entries. *)

val baseline_env_model : Encore_sysenv.Image.t list -> Engine.t
(** Learn from augmented data (types + environment attributes); no
    correlation rules. *)

val baseline_env_check : Engine.t -> Encore_sysenv.Image.t -> Warning.t list
(** Name + type + suspicious-value checks; no correlation check. *)
