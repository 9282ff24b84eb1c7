(** Resilience experiment: lookup success rate and latency stretch versus
    the fraction of failed nodes, Chord against HIERAS.

    Each sweep point compiles a {!Workload.Faults} schedule with a
    point-specific seed, applies it to a {!Simnet.Engine}, runs the engine
    to the sample instant and replays the standard paired request stream
    through the failure-aware walk, flat Chord and HIERAS over Chord,
    against the surviving population. A lookup succeeds when it reaches
    the key's {e live owner} — the first live node clockwise from the key
    ([Chord.Routable.live_owner]); dead
    origins are deterministically remapped to their next live node so every
    point scores the identical stream. Results are bit-identical for any
    pool width (fault draws and merges happen on the calling domain; the
    replay uses the fixed chunk layout of {!Runner.measure}). *)

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
  chord_issued : int;
  chord_succeeded : int;
  chord_stretch : float;
      (** mean successful-lookup latency (penalties included) over the
          all-alive plain-route baseline; 0 when nothing succeeded *)
  chord_retries : int;
  chord_timeouts : int;
  chord_fallbacks : int;
  chord_penalty_ms : float;
  hieras_issued : int;
  hieras_succeeded : int;
  hieras_stretch : float;
  hieras_retries : int;
  hieras_timeouts : int;
  hieras_fallbacks : int;
  hieras_layer_escapes : int;
  hieras_penalty_ms : float;
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
  ?net:Obs.Netspan.t ->
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
    not traced) and forces the replay onto the calling domain. [net]
    attaches to each point's fault-schedule engine; the lookups here are
    analytic replays, not engine sends, so it records only the fault
    traffic (the points run sequentially, so one sink is safe and the
    stream is deterministic for any [--jobs]). *)

val export_registry : Obs.Metrics.t -> results -> unit

val success_rate : int -> int -> float
(** [success_rate succeeded issued]; 0 when nothing was issued. *)

val section : results -> Report.section
(** Render as the report section [resilience] (one row per fraction). *)
