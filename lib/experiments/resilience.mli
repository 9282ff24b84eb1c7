(** Resilience experiment: lookup success rate and latency stretch versus
    the fraction of failed nodes, Chord against HIERAS.

    It is the tournament's failure-aware replay over two contestants, flat
    Chord and HIERAS over Chord: each sweep point compiles a
    {!Workload.Faults} schedule with a point-specific seed and samples the
    surviving population ({!Tournament.sample_liveness}), then replays
    {!Runner.requests} through both ({!Tournament.replay}). A lookup
    succeeds when it reaches the key's {e live owner} — the first live
    node clockwise from the key ([Chord.Routable.live_owner]); dead origins
    are deterministically remapped to their next live node so every point
    scores the identical stream. Results are bit-identical for any pool
    width (fault draws happen on the calling domain; the replays run on
    {!Runner.replay}). *)

type schedule =
  | Crash  (** permanent uniform crashes *)
  | Outage  (** whole stub domains down (correlated by router) *)
  | Restart  (** crash-restart: victims revive after the sample instant *)

val schedule_name : schedule -> string
val schedule_of_name : string -> schedule option

val default_fractions : float list
(** [0, 0.1, ..., 0.5] — the 0–50% sweep of the issue brief. *)

type point = {
  fraction : float;  (** requested failure fraction *)
  failed : int;  (** nodes actually dead at the sample instant *)
  issued : int;  (** lookups replayed through each contestant *)
  chord : Tournament.fault_point;
  hieras : Tournament.fault_point;
  chord_stretch : float;
      (** mean successful-lookup latency (penalties included) over the
          all-alive plain-route baseline; 0 when nothing succeeded *)
  hieras_stretch : float;
}

type results = {
  config : Config.t;
  kind : schedule;
  chord_baseline_ms : float;  (** all-alive mean plain-route latency *)
  hieras_baseline_ms : float;
  points : point list;  (** in sweep order *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  ?fractions:float list ->
  ?kind:schedule ->
  Config.t ->
  results
(** Raises [Invalid_argument] when a fraction lies outside [0, 0.95].
    [registry] receives summed [resilience.{chord,hieras}.*] counters
    (issued, succeeded, retries, timeouts, fallbacks, layer_escapes) and
    per-fraction [..fNNN.success_rate] / [..fNNN.stretch] gauges. [trace]
    receives every resilient lookup of every point (baseline lookups are
    not traced) and keeps those replays on the calling domain. *)

val export_registry : Obs.Metrics.t -> results -> unit

val section : results -> Report.section
(** Render as the report section [resilience] (one row per fraction). *)
