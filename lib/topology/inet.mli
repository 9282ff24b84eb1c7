(** Inet-style AS-level topology model (Jin, Chen & Jamin, U. Michigan).

    Inet generates graphs whose degree distribution follows the power law
    observed in BGP AS maps. We reproduce the model's essential properties
    with degree-driven preferential attachment: a small fully-meshed core is
    grown one router at a time, each newcomer wiring two links (Inet's
    default minimum degree) to routers sampled proportionally to their
    current degree (implemented by sampling uniformly from the list of edge
    endpoints).

    Delays carry the regional structure of the real AS graph: every router
    belongs to one of four regions (continents/economies); peerings are
    mostly regional (a newcomer resamples for a same-region target with
    probability 0.75), intra-region links are cheap and heavy-tailed,
    inter-region links expensive. This bimodal structure is what lets
    distributed binning cluster nodes — exactly the property the paper's
    Inet experiments rely on.

    Like the real Inet tool — which refuses to generate graphs below 3037
    nodes, the number of ASes in the Nov 1997 snapshot — {!generate} rejects
    host counts under {!min_hosts}; the paper's Inet curves likewise start at
    3000 nodes. *)

val min_hosts : int
(** 3000, mirroring the Inet tool's minimum. *)

val generate :
  ?backend:Latency.backend ->
  ?pool:Parallel.Pool.t ->
  hosts:int ->
  Prng.Rng.t ->
  Latency.t
(** Raises [Invalid_argument] if [hosts < min_hosts]. [backend] selects the
    oracle's storage strategy (default eager). *)

val router_count : hosts:int -> int
(** Routers {!generate} builds for [hosts] end-hosts: one per eight hosts,
    clamped to [200, 1500]. *)

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, count)] pairs, ascending — used by tests to check the power-law
    tail (a handful of very-high-degree routers, many degree-2 ones). *)
