(** The measurement engine behind every figure.

    An {!env} bundles one generated topology with a Chord network built on
    it; HIERAS overlays (which depend on landmark count and depth) are built
    per variant on top, so parameter sweeps (Figures 6–9) reuse the expensive
    substrate. {!measure} replays one request stream through {e both}
    algorithms — paired sampling, so per-request differences are never masked
    by workload noise. *)

type env

val build_env : ?pool:Parallel.Pool.t -> ?timer:Obs.Timer.t -> Config.t -> env
(** Generates the topology (model, size and seed from the config) and the
    Chord network. The latency oracle's storage is what {!Topology.Model.build}
    picks ({!Topology.Latency.Auto}); the pool parallelizes an eager oracle's
    per-source Dijkstra runs. The generated network is identical for any
    storage and any pool width. [timer] records the [topology] and [chord-build]
    phases. *)

val latency_oracle : env -> Topology.Latency.t
val chord_network : env -> Chord.Network.t

val build_hieras : ?timer:Obs.Timer.t -> env -> Config.t -> Hieras.Hnetwork.t
(** HIERAS overlay with the config's landmark count and depth (landmarks are
    chosen with the spread heuristic from the config seed). [timer] records
    the [binning] and [hieras-build] phases. *)

(** Everything the paper's figures read off a run. *)
type metrics = {
  config : Config.t;
  chord_hops : Stats.Summary.t;
  chord_latency : Stats.Summary.t;
  hieras_hops : Stats.Summary.t;
  hieras_latency : Stats.Summary.t;
  lower_hops : Stats.Summary.t;  (** per request: hops on layers >= 2 *)
  top_hops : Stats.Summary.t;  (** per request: hops on the global ring *)
  lower_latency : Stats.Summary.t;
  top_latency : Stats.Summary.t;
  chord_hop_pdf : Stats.Histogram.t;
  hieras_hop_pdf : Stats.Histogram.t;
  lower_hop_pdf : Stats.Histogram.t;
  chord_latency_hist : Stats.Histogram.t;
  hieras_latency_hist : Stats.Histogram.t;
  hops_per_layer : float array;  (** mean hops by layer, index 0 = global *)
  latency_per_layer : float array;
}

val measure :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  env ->
  Hieras.Hnetwork.t ->
  Config.t ->
  metrics
(** Runs [config.requests] paired lookups. Raises [Failure] if any HIERAS
    lookup reaches a node other than the Chord owner (routing correctness is
    asserted on every request).

    Deterministic parallelism: requests are pre-generated sequentially from
    the config seed, workers fill per-chunk accumulators over a chunk layout
    fixed by request count alone, and chunks are reduced in order — so every
    metrics field is bit-identical whatever the pool width.

    [registry] receives a [runner.*] export of the merged result (request
    count, hop/latency means and maxima for both algorithms, per-layer
    means, lower-layer shares). The export runs on the calling domain after
    the deterministic merge — never from workers — so the registry snapshot
    is bit-identical for any pool width too.

    [trace] receives every lookup of both algorithms. Tracers are
    single-domain objects, so an enabled tracer forces the replay onto the
    calling domain (the pool is ignored); the chunk layout is unchanged and
    the returned metrics stay bit-identical to an untraced run.

    [timer] records the [gen-requests] and [lookup-replay] phases (on the
    calling domain only — workers are never instrumented). *)

val run :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  Config.t ->
  metrics
(** [build_env] + [build_hieras] + [measure] in one step. *)

(** {2 Derived quantities} *)

val latency_ratio : metrics -> float
(** HIERAS mean latency / Chord mean latency. *)

val hop_overhead : metrics -> float
(** HIERAS mean hops / Chord mean hops - 1. *)

val lower_hop_share : metrics -> float
(** Fraction of HIERAS hops taken on lower layers. *)

val lower_latency_share : metrics -> float
val mean_link_latency_lower : metrics -> float
val mean_link_latency_top : metrics -> float
