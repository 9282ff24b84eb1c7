(** The cross-algorithm tournament: Chord, Pastry, CAN and
    Tapestry — each flat and each HIERAS-layered through {!Hieras.Make} —
    replay one identical seeded request stream over one identical topology
    into a single comparison matrix: hops, latency, stretch, and lookup
    success under the crash and stub-domain-outage fault schedules.

    Its replays serve every experiment that routes one request stream
    through several overlays: the resilience experiment runs {!baseline},
    {!sample_liveness} and {!replay} over flat Chord and HIERAS, once per
    failure fraction.

    Everything is deterministic: the request stream ({!Runner.requests}),
    landmark choice and fault draws derive from the config seed on the
    calling domain, and every replay runs on {!Runner.replay}, so
    {!results_json} is byte-identical for any [--jobs]. Golden:
    [test/golden/tournament_ts64.json]. *)

(** The four layered overlays, exposed so tests and experiments can drive
    them directly; [LChord.t] is the type of [Hieras.Hnetwork.layered]. *)
module LChord : module type of struct include Hieras.Make (Chord.Routable) end

module LPastry : module type of struct include Hieras.Make (Pastry.Routable) end
module LCan : module type of struct include Hieras.Make (Can.Routable) end
module LTapestry : module type of struct include Hieras.Make (Tapestry.Routable) end

type contestant = C : (module Routing.ROUTABLE with type t = 'a) * 'a -> contestant

val build_contestants : Runner.env -> Config.t -> contestant list
(** The eight contestants in matrix order (chord, hieras, pastry,
    hieras-pastry, can, hieras-can, tapestry, hieras-tapestry), all built
    over the env's topology and host set. *)

(** {2 Replays}

    Each replay routes every request through every contestant in turn, on
    {!Runner.replay}, and returns one result per contestant, in contestant
    order. *)

val fault_at : float
(** Faults land at 10 ms... *)

val sample_at : float
(** ...and lookups sample the network at 100 ms. *)

type baseline = {
  hops : Stats.Summary.t;  (** hop count per lookup *)
  latency : Stats.Summary.t;  (** route latency per lookup, ms *)
  stretch : float;
      (** mean route latency over the direct host-to-host latency
          (identical-host pairs excluded); 0 when no pair counts *)
  owner_ok : int;  (** routes ending at the overlay's owner *)
}

val baseline :
  ?pool:Parallel.Pool.t ->
  Topology.Latency.t ->
  contestant list ->
  Workload.Requests.request array ->
  baseline list
(** The all-alive replay: one plain [route] per request and contestant. *)

val outage_domains : Topology.Latency.t -> int array -> float -> int
(** [outage_domains lat hosts fraction]: how many whole stub domains cover
    about [fraction] of the hosts (at least 1). *)

val sample_liveness :
  Config.t ->
  Topology.Latency.t ->
  int array ->
  Workload.Faults.spec list ->
  idx:int ->
  bool array * int
(** [sample_liveness cfg lat hosts specs ~idx] compiles [specs] over the
    host slots (slot [s] is on host [hosts.(s)], grouped by its stub
    router) with the seed [cfg.seed + 40009 + idx], applies them to a
    fresh {!Simnet.Engine}, runs it to {!sample_at} and returns each slot's
    liveness and the number of dead slots. *)

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

val replay :
  ?pool:Parallel.Pool.t ->
  ?trace:Obs.Trace.t ->
  contestant list ->
  hosts:int array ->
  alive:bool array ->
  Workload.Requests.request array ->
  fault_point list
(** The failure-aware replay against one liveness sample: [alive] is
    indexed by host slot as in {!sample_liveness}, and each contestant
    reads it through its nodes' hosts ([X.host]). A dead origin is
    remapped to the contestant's first live node by index (with nobody
    alive, the lookup fails without being routed); each lookup is
    [route_resilient], a success when it reaches [live_owner]. [trace]
    receives every lookup in request order, contestants in turn, and
    keeps the replay on the calling domain. *)

val run :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?timer:Obs.Timer.t ->
  ?fault_fraction:float ->
  Config.t ->
  results
(** Build the eight contestants and replay {!Runner.requests} three times:
    the {!baseline}, then one {!replay} per fault schedule (crash, outage),
    each sampled once and shared by every contestant. [fault_fraction]
    (default 0.3, range [0, 0.95]) sizes both schedules. [registry]
    receives a [tournament.*] export on the calling domain; [timer] spans
    the phases [build-contestants], [gen-requests], [baseline], [crash]
    and [outage]. *)

val results_json : results -> string
(** Deterministic single-line object, [{"schema":"hieras-tournament",...}],
    fixed member and contestant order — the golden-gated artifact. It ends
    with the {!Obs.Gate} list: per contestant [tournament.<algo>.]
    [hops_mean], [latency_mean], [stretch], and per schedule
    [crash|outage.failure_rate] and [.penalty_ms]. *)

val section : results -> Report.section
(** Text-report rendering of the matrix. *)
