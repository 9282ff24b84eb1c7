(** The latency oracle: pairwise end-host delays over a router topology.

    Topology generators emit a {e router} graph plus an attachment of DHT
    end-hosts to routers (with a small access-link delay). A host-to-host
    query is

    [latency a b = access a + D.(router a).(router b) + access b]

    where [D] is the router-to-router shortest-path matrix. This mirrors how
    p2psim-style simulators evaluate DHTs on GT-ITM-like topologies and is
    what keeps 10 000-host x 100 000-lookup experiments cheap.

    {2 Backends}

    How [D] is materialised is pluggable:

    - {!Eager} runs Dijkstra from every router up front and stores the full
      matrix as one flat row-major [float array] ([src * nr + dst]) —
      O(R{^2}) memory, O(1) queries with no per-row pointer chase.
    - {!Lazy} computes a row by single-source Dijkstra on first touch and
      memoizes it in a per-row once-cell. Lookups only ever read rows of
      routers that actually host DHT nodes, so build cost and memory scale
      with the {e touched} rows, not R{^2}. Safe under concurrent domain
      queries: a row is a pure function of the frozen graph, so a duplicate
      computation race writes bit-identical arrays.
    - {!Auto} picks lazy when the router count exceeds an internal threshold
      (1024) or when hosts cover fewer than half the routers, eager
      otherwise.

    Every backend returns bit-identical query results — the choice affects
    time and memory only. *)

type backend = Eager | Lazy | Auto

val backend_name : backend -> string
(** "eager", "lazy" or "auto". *)

type t

val create :
  ?backend:backend ->
  ?pool:Parallel.Pool.t ->
  router_graph:Graph.t ->
  host_router:int array ->
  host_access:float array ->
  unit ->
  t
(** Builds an oracle (default backend {!Eager}, preserving the historical
    semantics). With an eager (or eager-resolved auto) backend the router
    distance matrix is precomputed here — the dominant cost, parallelized
    over sources when a pool is given; lazy creation is O(R). [host_router.(h)]
    is the router host [h] attaches to, [host_access.(h)] its access-link
    delay (ms). Raises [Invalid_argument] on length mismatch or a
    disconnected router graph. *)

val hosts : t -> int
val routers : t -> int
val router_graph : t -> Graph.t
val router_of_host : t -> int -> int
val access_delay : t -> int -> float

val effective_backend : t -> backend
(** {!Eager} or {!Lazy} — what {!Auto} resolved to at creation. *)

val host_latency : t -> int -> int -> float
(** One-way delay (ms) between two hosts. Zero between a host and itself. *)

val host_to_router : t -> int -> int -> float
(** Delay from a host to an arbitrary router — what a landmark "ping"
    measures when landmarks are well-known routers. *)

val router_latency : t -> int -> int -> float

(** {2 Instrumentation} *)

type stats = {
  backend : string;  (** effective backend: "eager" or "lazy" *)
  routers : int;
  rows_computed : int;
      (** distance-matrix rows materialised so far (always [routers] for
          eager; the number of touched rows for lazy) *)
  row_hits : int;
      (** row lookups served. Exact for sequential queries; concurrent
          domain queries may lose increments (plain counter, kept off the
          atomic path on purpose — it is a diagnostic). *)
  resident_bytes : int;
      (** approximate heap footprint of the distance storage *)
}

val stats : t -> stats

val export_metrics : ?prefix:string -> t -> Obs.Metrics.t -> unit
(** Mirror {!stats} into a metrics registry (default prefix ["oracle"]):
    counters [<prefix>.rows_computed], [.row_hits], [.resident_bytes];
    gauges [<prefix>.routers], [.hosts] and [.lazy] (1.0 when the effective
    backend is {!Lazy}). Idempotent: re-exporting overwrites. *)

val mean_host_latency : t -> ?samples:int -> Prng.Rng.t -> float
(** Monte-Carlo estimate of the mean delay between two random distinct
    hosts (diagnostics; default 20 000 samples).

    The estimator draws [samples] ordered pairs — [a] uniform over hosts,
    [b] uniform over the remaining hosts — and averages {!host_latency} over
    them. Every pair is equally likely, so the estimate is unbiased for the
    all-pairs mean, with standard error [stddev / sqrt samples]; the draw
    sequence is a pure function of the RNG state, so a fixed seed yields a
    bit-identical estimate. *)
