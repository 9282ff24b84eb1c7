(** Chord as a {!Routing.S} substrate.

    The routing entry points delegate to {!Lookup} (same hop sequences, same
    trace bytes, same PR 5 resilience accounting — "chord" traces emitted
    through this module are byte-identical to the goldens); the {!Routing.BASE}
    primitives expose the greedy step, its fallback candidates and the
    packed rings of one HIERAS layer (ring successor/predecessor arrays and
    one shared finger arena, DESIGN.md §12), over which [Hieras.Make] runs
    the HIERAS walk. *)

type t

val make : net:Network.t -> lat:Topology.Latency.t -> t
val network : t -> Network.t

include Routing.S with type t := t

(** {2 Packed layer views}

    What [Hieras.Hnetwork] reads off a layer besides the walk. *)

val layer_successor : layer -> int -> int
(** The node's successor in its ring. *)

val layer_predecessor : layer -> int -> int

val layer_closest_preceding : t -> layer -> int -> key:Hashid.Id.t -> int
(** [Finger_table.closest_preceding] on the node's ring-restricted table,
    read straight off the arena; [-1] when no finger makes progress. *)

val layer_preceding_candidates : t -> layer -> int -> key:Hashid.Id.t -> int list
(** [Finger_table.preceding_candidates] off the arena. *)

val layer_finger_table : t -> layer -> int -> Finger_table.t
(** The node's ring-restricted table, materialized from its arena slice. *)

val layer_segments : layer -> int
(** Length of the layer's finger arena. *)

val layer_bytes_resident : layer -> int
(** Heap footprint of the layer's arrays, in bytes. *)
