(** Long-horizon churn soak for the message-level protocols.

    Each {e cell} runs one algorithm ([chord] or [hieras]) under one
    churn-rate factor for the whole horizon: sustained {!Workload.Churn}
    events, optional message loss and an optional {!Workload.Faults}
    schedule landing mid-horizon, while a probe every simulated second
    audits global-ring correctness against the ideal ring and fires one
    lookup; the cell's time series uses 1 s buckets. The convergence subsystem ({!Simnet.Stability} inside
    both protocols) meters convergence times and maintenance bandwidth —
    the sweep over factors yields the bandwidth-cost-vs-churn-rate curves
    the maintenance-vs-performance tradeoff is scored on.

    Determinism: a cell is fully self-contained (its own topology, engine,
    rngs and time-series collector, all seeded from [spec.seed] and the
    factor index), cells are dispatched with {!Parallel.Pool.map_chunks}
    at chunk size 1 and merged in fixed order — results and
    {!results_json} bytes are identical for any [--jobs]. The chord and
    hieras cells of one factor share the same topology, churn trace,
    probe stream and fault draw, so their curves are directly
    comparable. *)

type spec = {
  pool : int;  (** total node address pool, >= 2 *)
  initial : int;  (** nodes alive before churn starts, in 1..pool *)
  horizon_ms : float;  (** churn window length, > 0 *)
  join_rate : float;  (** expected joins per second at factor 1 *)
  fail_rate : float;
  leave_rate : float;
  factors : float list;  (** churn-rate multipliers — the curve's x axis *)
  loss : float;  (** message loss probability, [0, 1) *)
  depth : int;  (** HIERAS layers, 2..4 *)
  landmarks : int;
  adaptive : bool;  (** adaptive maintenance backoff in both protocols *)
  fault : Resilience.schedule option;
      (** optional engine-level fault schedule injected at mid-horizon;
          the protocols are not told — the convergence probes must detect
          the damage *)
  fault_frac : float;  (** fraction for crash/restart faults, [0, 0.95] *)
  net_sample : float option;
      (** when [Some r], every cell records its engine's message-level
          spans ({!Obs.Netspan}) at root-keyed sample rate [r] into the
          cell's [net_trace]; [None] (the default) leaves the engines
          untraced and every [net_trace] empty *)
  seed : int;
}

val default_spec : spec
(** 48-node pool, 12 initial, 60 s horizon, paper-ish churn rates, factors
    [0.5; 1; 2], 1% loss, depth 2, 4 landmarks, fixed maintenance cadence
    (non-adaptive), no faults, seed 2003. *)

val validate : spec -> (unit, string) result
(** Range checks with CLI-friendly messages naming the offending flag;
    both drivers print the error and exit 2 before building anything. *)

type cell = {
  algo : string;  (** ["chord"] or ["hieras"] *)
  factor : float;
  churn_events : int;  (** churn events replayed *)
  sim_ms : float;  (** total simulated time (settle + horizon + cooldown) *)
  messages : int;  (** engine-level messages sent *)
  messages_per_s : float;  (** per simulated second *)
  maint_ops : int;  (** maintenance RPCs initiated by the protocol *)
  maint_ops_per_s : float;
  lookups_issued : int;
  lookups_ok : int;  (** answered by a live member *)
  ring_checks : int;
  ring_ok : int;  (** audits where the global ring matched the ideal ring *)
  convergences : int;  (** summed over layers for hieras *)
  disturbances : int;
  mean_convergence_ms : float;  (** 0 when nothing converged *)
  converged_at_end : bool;
  final_members : int;
  series_json : string;  (** the cell's {!Obs.Timeseries.to_json} *)
  net_trace : string;
      (** the cell's message-span JSONL, every line ctx-tagged
          [<algo>.x<factor>]; [""] unless [spec.net_sample] was set *)
}

type results = { spec : spec; cells : cell list (** factor-major, chord then hieras *) }

val run : ?pool:Parallel.Pool.t -> ?registry:Obs.Metrics.t -> spec -> results
(** Raises [Invalid_argument] when {!validate} rejects the spec.
    [registry] receives {!export_registry}. *)

val export_registry : Obs.Metrics.t -> results -> unit
(** Per-cell counters and gauges under [soak.<algo>.x<factor>.*]
    (messages, maint_ops, lookup/ring rates, convergence stats). *)

val results_json : results -> string
(** Deterministic single-line object, [{"schema":"hieras-soak",...}] with
    one member per spec field and a ["cells"] array embedding each cell's
    time series — the artifact the soak golden pins. It ends with the
    {!Obs.Gate} list: per cell [soak.<algo>.x<factor>.] [messages_per_s],
    [maint_ops_per_s], [mean_convergence_ms], [lookup_failure_rate] and
    [ring_bad_rate]. The per-cell [net_trace] is deliberately {e not}
    embedded, so the bytes do not depend on whether tracing ran. *)

val net_trace : results -> string
(** The cells' message-span JSONL concatenated in cell order (factor-major,
    chord then hieras) — byte-identical for any [--jobs]; [""] when
    [spec.net_sample] is [None]. *)

val section : results -> Report.section
(** Render as the report section [soak] (one row per cell). *)
