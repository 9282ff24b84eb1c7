(** Oracle-built HIERAS networks over Chord: the stabilized multi-ring state.

    A HIERAS network wraps a Chord network (the top-layer, "biggest" ring)
    and adds [depth - 1] lower layers. Each node measures its latency to the
    landmark set once; layer [k]'s ring name is that vector quantised with
    the layer's thresholds ({!Binning.Scheme.refinement_chain} — deeper
    layers use strictly finer boundaries, so each deep ring nests inside its
    parent). Per layer, every node keeps a Chord finger table restricted to
    its ring's members, plus ring successor/predecessor, all packed into
    flat arrays behind [Chord.Routable]'s layer type (DESIGN.md §12).

    The state is that of {!Layered.Make} over [Chord.Routable] — the one
    routing walk runs on its layers ({!Hlookup}) — plus what only Chord has: ring
    tables, stored for each ring on the top layer, and the landmarks.

    Layer indexing follows the paper: layer 1 is the global ring, layer
    [depth] the most local one. Accessors taking a lower [layer] raise
    [Invalid_argument "Hnetwork: layer out of range"] outside
    [2 .. depth]. *)

type t

val build :
  chord:Chord.Network.t ->
  lat:Topology.Latency.t ->
  landmarks:Binning.Landmark.t ->
  depth:int ->
  ?measure:(host:int -> float array) ->
  unit ->
  t
(** [depth >= 2] (a depth-1 HIERAS system {e is} Chord; build that directly).
    [measure] overrides the landmark measurement (e.g. jittered pings);
    default is the exact oracle measurement. The Chord network's hosts must
    be hosts of [lat]. *)

val layered : t -> Layered.Make(Chord.Routable).t
(** The functor's state this network wraps. *)

val chord : t -> Chord.Network.t
val latency_oracle : t -> Topology.Latency.t
val depth : t -> int
val landmarks : t -> Binning.Landmark.t
val size : t -> int

val order_of_node : t -> layer:int -> int -> string
(** Ring name (order string) of a node at a layer in [2 .. depth]. *)

val ring_count : t -> layer:int -> int
val ring_names : t -> layer:int -> Ring_name.t list
val ring_members : t -> layer:int -> order:string -> int array
(** Member node indices sorted by identifier (a fresh copy); empty if no
    such ring. *)

val ring_size_of_node : t -> layer:int -> int -> int
val ring_successor : t -> layer:int -> int -> int
val ring_predecessor : t -> layer:int -> int -> int
val finger_table : t -> layer:int -> int -> Chord.Finger_table.t
(** Layer 1 returns the Chord table; layers 2.. return the ring-restricted
    table — a thin view materialized from the layer's packed finger arena
    (DESIGN.md §12). Prefer {!closest_preceding_finger} /
    {!preceding_candidates} on hot paths. *)

val closest_preceding_finger : t -> layer:int -> int -> key:Hashid.Id.t -> int
(** [Chord.Finger_table.closest_preceding] on the node's layer-restricted
    table, read straight off the packed arena; [-1] when no finger makes
    progress. Layer 1 delegates to the Chord network. The key's owner is
    looked up once, and the scan decides each finger by its index
    ([Chord.Network.closest_preceding_in]). *)

val preceding_candidates : t -> layer:int -> int -> key:Hashid.Id.t -> int list
(** [Chord.Finger_table.preceding_candidates] off the packed arena
    (farthest-first failover order of the resilient route). *)

val total_finger_segments : t -> layer:int -> int
(** Length of a lower layer's finger arena = sum of distinct ring-restricted
    finger entries over all nodes (layer in [2 .. depth]). *)

val bytes_resident : t -> int
(** Approximate heap footprint of the packed HIERAS state {e including} the
    wrapped Chord network (id strings, per-layer ring arrays, finger arenas,
    order strings, node-to-ring rows) in bytes. *)

val ring_table : t -> layer:int -> order:string -> Ring_table.t option
(** The ring's table as the top layer stores it, built afresh from the
    ring's extreme members on each call; [None] if no such ring. *)

val ring_table_manager : t -> Ring_name.t -> int
(** The node storing a ring's table: successor of the hashed ring id on the
    top layer. *)

val nesting_ok : t -> bool
(** Every node's layer-[k+1] ring is a subset of its layer-[k] ring (checked
    over order strings: the members of each deep ring share one shallower
    order) — the invariant hierarchical routing relies on. *)
