(** Per-app compiled-engine cache keyed by model fingerprint.

    The daemon compiles each model once ({!Encore_detect.Engine.compile}
    is O(model size)) and serves every request from the compiled form.
    The cache maps an application name to its engine plus the MD5
    fingerprint of the model's serialized payload; [reload] drops every
    entry, bumps the {!generation} counter (the status and reload
    responses report it) and eagerly re-reads the provider so a broken
    model surfaces on the reload response.

    Telemetry: [serve.cache_compiles], [serve.cache_hits],
    [serve.cache_invalidations]. *)

type t

type provider =
  app:string -> (Encore_detect.Engine.model, string) result
(** Fetch the current model for an application — from a file, a
    {!Encore_detect.Model_io.Store}, or a just-learned model.  Called
    lazily on first use per app and eagerly on {!reload}. *)

val create : provider:provider -> t

val engine_for :
  t ->
  app:string ->
  (Encore_detect.Engine.t, Encore_util.Resilience.diagnostic) result
(** The compiled engine for [app]; compiles and caches on miss.
    Provider failure is a [Probe_failure] diagnostic. *)

val fingerprint : t -> app:string -> string option
(** Fingerprint of the cached entry, if one exists (no compile). *)

val generation : t -> int
(** Incremented by every {!reload} and {!adopt}. *)

val reload :
  t -> (bool, Encore_util.Resilience.diagnostic) result
(** Invalidate everything and re-read the provider for every app that
    was cached.  [Ok changed] — [changed] is true when any fingerprint
    differs from before. *)

val cached_apps : t -> string list
(** Sorted names of the apps currently cached. *)

val candidate : t -> t
(** A fresh, empty cache over the same provider.  The server's
    shadow-validated reload compiles and probes candidate engines here
    while the live cache keeps serving; on success the candidate is
    {!adopt}ed atomically. *)

val adopt : t -> from:t -> bool
(** Swap [from]'s entries into [t] and bump [t]'s generation.  Returns
    [true] when any fingerprint differs from what [t] previously
    served — the [changed] field of the reload response. *)

val fingerprint_of : Encore_detect.Engine.model -> string
(** MD5 hex digest of the model's serialized payload. *)
