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

    The fault-free entry points are {!Layered.Make}'s walk over
    [Chord.Routable], named here for the callers that hold an
    {!Hnetwork.t}. *)

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
(** Ends at the key's Chord owner (the walk asserts it). [trace] (default
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

(** {2 Failure-aware routing}

    Hierarchical analogue of {!Chord.Lookup.route_resilient}, with one
    extra recovery move: when a lower-ring walk finds [succ_window]
    consecutive dead ring successors it declares the ring locally
    partitioned, emits a [Layer_escape] trace event and climbs to the
    next layer immediately instead of stalling — a lower ring can never
    fail a lookup, only the global ring can. Ring-finger probes follow
    the policy's timeout/backoff schedule (tagged with the ring's layer);
    the between-layer early exit and the final global loop consult live
    successor-list entries like the flat walk does.

    This is one of two resilient HIERAS walks. [Layered.Make]'s
    [route_resilient] stops a ring walk and takes the early exit by the
    immediate successors, where this walk skips to the first live ones, so
    the two differ once nodes die. The resilience golden pins this walk and the
    tournament golden the functor's; unifying them migrates one golden. *)

type attempt = Routing.attempt = {
  outcome : result option;
      (** [None] only when the {e global} loop stalled; [latency] includes
          [penalty_ms] while [latency_per_layer] attributes link latency
          only. *)
  retries : int;  (** timed-out contact attempts (= [Retry] events) *)
  timeouts : int;  (** distinct dead contacts probed to exhaustion *)
  fallbacks : int;  (** dead contacts abandoned for a secondary choice *)
  layer_escapes : int;  (** early climbs out of partitioned rings *)
  penalty_ms : float;  (** total timeout + backoff latency charged *)
}

val route_resilient :
  ?trace:Obs.Trace.t ->
  ?policy:Chord.Lookup.policy ->
  Hnetwork.t ->
  is_alive:(int -> bool) ->
  origin:int ->
  key:Hashid.Id.t ->
  attempt
(** The origin must be alive (raises [Invalid_argument] otherwise; also on
    an ill-formed policy). When every node is alive the walk, the trace
    stream and the returned [result] are identical to {!route}'s. On a
    stalled lookup the trace [End] event reports the stall position, so
    spans always close and stay auditable. *)
