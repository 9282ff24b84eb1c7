(** GT-ITM Transit-Stub topology model (Zegura et al., INFOCOM'96) —
    the paper's primary network model.

    The Internet is modelled as a two-level hierarchy: a small set of
    {e transit domains} (backbones) whose routers interconnect densely, and
    many {e stub domains} (campus/ISP edge networks) hanging off transit
    routers. The paper's link delays are used: 100 ms for intra-transit
    (and inter-transit) links, 20 ms for stub-transit links and 5 ms for
    intra-stub links, which yields the characteristic three-scale delay
    distribution that distributed binning exploits.

    DHT end-hosts attach to uniformly random stub routers through a short
    access link. *)

val transit_routers : int
(** The backbone: two transit domains of two routers each, routers
    [0 .. transit_routers - 1]. Stub routers follow, one stub domain after
    another. *)

val routers_per_stub : hosts:int -> int
(** Routers per stub domain at this host count. The stub shape grows in
    discrete steps, roughly one stub router per ten hosts; the steps also
    give the paper its 6000-vs-7000 node configuration wobble. *)

val router_count : hosts:int -> int
(** Total routers {!generate} builds for [hosts] end-hosts. *)

val generate :
  ?backend:Latency.backend ->
  ?pool:Parallel.Pool.t ->
  hosts:int ->
  Prng.Rng.t ->
  Latency.t
(** Build a connected transit-stub router graph, attach [hosts] end-hosts,
    and return the latency oracle ([backend] selects its storage strategy,
    default eager; the generated topology is the same for every backend). *)
