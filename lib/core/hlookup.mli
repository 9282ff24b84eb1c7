(** Hierarchical HIERAS routing (paper §3.2) with per-layer accounting.

    A lookup runs [depth] Chord loops: first inside the originator's most
    local ring using that ring's finger table, stopping at the ring member
    that most closely precedes the key; if that member's global successor
    does not own the key the procedure climbs one layer and repeats,
    finishing — at the latest — on the global ring, where Chord's guarantee
    applies. Ring nesting (see {!Hnetwork}) ensures every intermediate node
    of a layer-[k] loop owns a finger table for that very ring.

    Each hop is tagged with the layer whose finger table chose it; Figures
    4–7 of the paper are computed from exactly this decomposition.

    Both entry points are {!Routing.Walk} over [Chord.Routable]'s layers
    ({!Layered.Make}), named here for the callers that hold an
    {!Hnetwork.t}. Failure-aware routing is [Make (Chord.Routable)]'s
    [route_resilient] on {!Hnetwork.layered}. *)

type hop = Routing.hop = { from_node : int; to_node : int; latency : float; layer : int }

type result = Routing.result = {
  origin : int;
  key : Hashid.Id.t;
  destination : int;
  hops : hop list;  (** in travel order *)
  hop_count : int;
  latency : float;  (** ms, total *)
  hops_per_layer : int array;  (** index 0 = layer 1 (global) ... *)
  latency_per_layer : float array;
  finished_at_layer : int;
      (** the layer whose loop reached the global owner (depth = most local;
          1 = needed the global ring) *)
}

val route : ?trace:Obs.Trace.t -> Hnetwork.t -> origin:int -> key:Hashid.Id.t -> result
(** Ends at the key's Chord owner. [trace] (default
    {!Obs.Trace.disabled}) receives one start event, one hop event per
    traversed edge — tagged with the layer whose finger table chose it —
    and one end event mirroring the returned accounting; when disabled the
    instrumentation costs one branch per hop. *)

val route_hops_only :
  ?into:int array -> Hnetwork.t -> origin:int -> key:Hashid.Id.t -> int * int array * int * int
(** The analytic mode: [(hop_count, hops_per_layer, destination,
    finished_at_layer)] of exactly the walk {!route} performs, without the
    latency oracle, the trace or the hop list — [Layered.Make.route_hops],
    whose doc gives what it allocates. [into], when given (length >=
    depth), is the reused per-layer accumulator; the returned array is
    [into] itself. *)
