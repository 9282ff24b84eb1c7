(** The measurement engine behind every figure, and the owner of the
    analytic experiments' request stream and replay loop.

    An {!env} bundles one generated topology with a Chord network built on
    it; HIERAS overlays (which depend on landmark count and depth) are built
    per variant on top, so parameter sweeps (Figures 6–9) reuse the expensive
    substrate. {!requests} draws the config's one request stream and
    {!replay} folds any per-request visit over it in fixed chunks: the
    figures ({!measure}), the tournament, the resilience sweep, the
    extension tables and [hieras_sim trace] all route that one stream.
    {!measure} replays it through {e both} algorithms — paired sampling, so
    per-request differences are never masked by workload noise. *)

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

(** {2 The request stream and its replay} *)

val requests : ?timer:Obs.Timer.t -> Config.t -> Workload.Requests.request array
(** The config's [requests] uniform (origin, key) pairs over its [nodes],
    drawn from the seed [config.seed + 104729] on the calling domain — the
    paper's stream of random lookups. The figures, the tournament, the
    resilience sweep and [hieras_sim trace] replay it, the extension tables
    a prefix of it ({!Scale} draws its own chunk-seeded stream). [timer]
    records the [gen-requests] phase. *)

val replay :
  ?pool:Parallel.Pool.t ->
  ?trace:Obs.Trace.t ->
  Workload.Requests.request array ->
  fresh:(unit -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  ('acc -> Workload.Requests.request -> unit) ->
  'acc
(** [replay requests ~fresh ~merge visit] folds [visit] over the requests in
    fixed 4,096-request chunks, each into its own [fresh ()] accumulator,
    and merges them in chunk order into one more [fresh ()]. The layout
    depends on the request count alone, so the result is bit-identical for
    any pool width. Tracers are single-domain objects: when [trace] is
    enabled the replay stays on the calling domain (the pool is ignored, the
    layout unchanged); [visit] itself is what writes to the tracer. *)

val measure :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  env ->
  Hieras.Hnetwork.t ->
  Config.t ->
  metrics
(** Replays {!requests} through both algorithms with {!replay}. Raises
    [Failure] if any HIERAS lookup reaches a node other than the Chord owner
    (routing correctness is asserted on every request). Every metrics field
    is bit-identical whatever the pool width.

    [registry] receives a [runner.*] export of the merged result (request
    count, hop/latency means and maxima for both algorithms, per-layer
    means, lower-layer shares). The export runs on the calling domain after
    the deterministic merge — never from workers — so the registry snapshot
    is bit-identical for any pool width too.

    [trace] receives every lookup of both algorithms, request by request,
    Chord first; it keeps the replay on the calling domain, and the
    returned metrics stay bit-identical to an untraced run.

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
