(** CAN as a {!Routing.S} substrate: the adapter is CAN's only route code,
    and [route] is {!Routing.Walk} over its [step].

    The greedy step forwards to the zone neighbor torus-closest to the
    key's point (first strictly-improving minimum in neighbor-list order)
    until the current zone contains it; fallback candidates are the
    strictly-improving zone neighbors, closest first. A HIERAS ring
    re-splits the torus among the members' join points, so every node owns
    one zone per layer: the paper's §3.2 HIERAS-over-CAN sketch, run by
    [Hieras.Make]. There is no separate early exit: the layered walk's
    owner check after each ring loop is the test whether the global zone
    of the ring's owner already contains the key's point. *)

type t

val make : net:Network.t -> lat:Topology.Latency.t -> t
val network : t -> Network.t

include Routing.S with type t := t
