(** The cross-algorithm tournament (ISSUE 8): Chord, Pastry, CAN and
    Tapestry — each flat and each HIERAS-layered through {!Hieras.Make} —
    replay one identical seeded request stream over one identical topology
    into a single comparison matrix: hops, latency, stretch, and lookup
    success under the PR 5 crash and stub-domain-outage fault schedules.

    Everything is deterministic: the request stream, landmark choice and
    fault draws derive from the config seed on the calling domain; the
    replay uses the fixed chunk layout of the other experiments, so
    {!results_json} is byte-identical for any [--jobs]. Golden:
    [test/golden/tournament_ts64.json]. *)

(** The four layered overlays, exposed so tests can drive them directly. *)
module LChord : module type of Hieras.Make (Chord.Routable)

module LPastry : module type of Hieras.Make (Pastry.Routable)
module LCan : module type of Hieras.Make (Can.Routable)
module LTapestry : module type of Hieras.Make (Tapestry.Routable)

type contestant = C : (module Routing.ROUTABLE with type t = 'a) * 'a -> contestant

val build_contestants : Runner.env -> Config.t -> contestant list
(** The eight contestants in matrix order (chord, hieras, pastry,
    hieras-pastry, can, hieras-can, tapestry, hieras-tapestry), all built
    over the env's topology and host set. *)

type fault_point = {
  succeeded : int;
  retries : int;
  timeouts : int;
  fallbacks : int;
  layer_escapes : int;
  penalty_ms : float;
  ok_latency_ms : float;  (** mean latency of successful lookups *)
}

type entry = {
  algo : string;
  hops_mean : float;
  hops_max : float;
  latency_mean : float;
  latency_max : float;
  stretch : float;  (** mean route latency / direct host latency *)
  owner_ok : int;  (** routes ending at the overlay's owner — must equal lookups *)
  crash : fault_point;
  outage : fault_point;
}

type results = {
  config : Config.t;
  lookups : int;
  fault_fraction : float;
  crash_failed : int;
  outage_failed : int;
  entries : entry list;  (** matrix order, as {!build_contestants} *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?timer:Obs.Timer.t ->
  ?fault_fraction:float ->
  Config.t ->
  results
(** Build the eight contestants, replay the request stream three times per
    contestant (baseline, crash liveness, outage liveness — the fault
    samples are drawn once and shared), and collect the matrix.
    [fault_fraction] (default 0.3, range [0, 0.95]) sizes both schedules.
    [registry] receives a [tournament.*] export on the calling domain. *)

val results_json : results -> string
(** Deterministic single-line object, [{"schema":"hieras-tournament",...}],
    fixed member and contestant order — the golden-gated artifact. It ends
    with the {!Obs.Gate} list: per contestant [tournament.<algo>.]
    [hops_mean], [latency_mean], [stretch], and per schedule
    [crash|outage.failure_rate] and [.penalty_ms]. *)

val section : results -> Report.section
(** Text-report rendering of the matrix. *)
