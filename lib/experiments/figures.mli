(** One reproduction function per table and figure of the paper's evaluation
    (Section 4). Each returns a {!Report.section} whose table carries the
    same rows/series the paper plots, with paper-reported numbers quoted in
    the notes.

    Figures that share a build (2/3, 4/5, 6/7, 8/9 in the paper share runs)
    are produced in pairs so the expensive substrate is reused. All functions
    honour the config's scale (nodes/requests), so tests run them shrunk. *)

type generator =
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  Config.t ->
  Report.section list
(** Every generator takes an optional domain pool; results are bit-identical
    for any pool width (see {!Runner.measure}).

    The observability hooks forward to the underlying {!Runner} calls:
    [registry] receives the [runner.*] export of each measurement run (a
    multi-run generator overwrites it per run — the last run wins), [trace]
    receives every lookup of every run (and forces measurement onto the
    calling domain), [timer] records the build/replay phases. *)

val table1 :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  Config.t ->
  Report.section
(** Landmark order examples: a sample of nodes with their measured distances
    to each landmark and the resulting order strings (paper Table 1). *)

val table2 :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  Config.t ->
  Report.section
(** Two-layer finger tables of one node in a small (8-bit) HIERAS system
    (paper Table 2): start, interval, layer-1 and layer-2 successors with
    their layer-2 ring names. *)

val fig4_and_fig5 :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  Config.t ->
  Report.section * Report.section
(** Hop-count PDF (Fig 4) and latency CDF (Fig 5) at the default
    configuration. *)

val all : generator
(** Every table and figure, in paper order. A [timer] additionally wraps each
    table/figure in a span named by its id. *)

val by_id : string -> generator option
(** Lookup by experiment id ("table1", "fig2", ... — paired figures return
    both sections). *)

val ids : string list

val networks : string -> Config.t -> Config.network list
(** Every network experiment [id] builds, at the config's size, for
    {!Config.check_networks}: Table 1's network, Table 2's fixed 24-host
    TS network, the figure 2–3 sweep over every model, figures 4–7's own
    network and the figure 8–9 size sweep. Table 2 and figures 6–9 pick
    their own landmark counts. An unknown id lists none. *)
