(** Chord as a {!Routing.S} substrate.

    The {!Routing.BASE} primitives are Chord's greedy step (the successor
    when it owns the key, else the closest preceding finger), the preceding
    fingers as failover candidates, the successor list as the heartbeat
    window, and the packed rings of one HIERAS layer (ring
    successor/predecessor arrays and one shared finger arena, DESIGN.md
    §12) with the ring-successor chain as their window. Each primitive
    decides by node indices and the key's owner ({!Network}'s owner rule),
    so a hop reads no identifier and allocates nothing. The entry points
    are {!Routing.Walk} with no layers — flat Chord is HIERAS at depth 1 —
    and [Hieras.Make] runs the same walk over the layers. *)

type t

val make : net:Network.t -> lat:Topology.Latency.t -> t

val of_network : Network.t -> t
(** A hop-count view with no latency oracle: {!route_hops_only} and
    {!live_owner} work on it; a route that needs a link latency raises
    [Invalid_argument]. *)

val network : t -> Network.t

include Routing.S with type t := t

(** {2 Packed layer views}

    What [Hieras.Hnetwork] reads off a layer besides the walk. *)

val layer_successor : layer -> int -> int
(** The node's successor in its ring. *)

val layer_predecessor : layer -> int -> int

val layer_closest_preceding : t -> layer -> int -> key:Hashid.Id.t -> int
(** [Finger_table.closest_preceding] on the node's ring-restricted table,
    read straight off the arena after one owner lookup; [-1] when no finger
    makes progress. *)

val layer_preceding_candidates : t -> layer -> int -> key:Hashid.Id.t -> int list
(** [Finger_table.preceding_candidates] off the arena. *)

val layer_finger_table : t -> layer -> int -> Finger_table.t
(** The node's ring-restricted table, materialized from its arena slice. *)

val layer_segments : layer -> int
(** Length of the layer's finger arena. *)

val layer_bytes_resident : layer -> int
(** Heap footprint of the layer's arrays, in bytes. *)
