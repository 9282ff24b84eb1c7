(** Chord greedy routing with hop and latency accounting.

    This is the baseline algorithm of every experiment in the paper: from the
    originator, repeatedly forward to the closest preceding finger until the
    key falls between the current node and its successor, then hop to that
    successor — the key's owner. Every traversed overlay edge counts as one
    hop and contributes the host-to-host delay of the underlying topology.

    Both entry points are {!Routable}'s, so {!Routing.Walk} with no layers,
    named here for callers that hold a {!Network.t}. Failure-aware routing
    is [Routable.route_resilient]. *)

type hop = Routing.hop = { from_node : int; to_node : int; latency : float; layer : int }
(** [layer] is always 1: flat Chord has no hierarchy. *)

type result = Routing.result = {
  origin : int;
  key : Hashid.Id.t;
  destination : int;  (** the key's successor — where the lookup ends *)
  hops : hop list;  (** in travel order; empty when the origin owns the key *)
  hop_count : int;
  latency : float;  (** total one-way routing latency, ms *)
  hops_per_layer : int array;  (** [\[| hop_count |\]] *)
  latency_per_layer : float array;  (** [\[| latency |\]] *)
  finished_at_layer : int;  (** 1 *)
}

val route :
  ?trace:Obs.Trace.t -> Network.t -> Topology.Latency.t -> origin:int -> key:Hashid.Id.t -> result
(** [trace] (default {!Obs.Trace.disabled}) receives one start event, one hop
    event per traversed edge (all tagged layer 1) and one end event
    mirroring the returned accounting; when disabled the instrumentation
    costs one branch per hop and allocates nothing. *)

val route_hops_only : Network.t -> origin:int -> key:Hashid.Id.t -> int * int
(** [(hop_count, destination)] without latency bookkeeping — for pure
    hop-count experiments and property tests (no topology needed): the
    walk over {!Routable.of_network}. *)
