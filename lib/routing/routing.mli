(** The unified routing core: one walk for every substrate and depth.

    Chord, Pastry, CAN and Tapestry each provide the primitives of {!BASE}
    (one greedy step, its failover candidates, the heartbeat window, and
    ring-restricted variants over the rings of one HIERAS layer). {!Walk}
    is the one routing walk over them, the paper's lookup (§3.2): a ring
    loop per lower layer, from the most local one up, the substrate's early
    exit between layers, then the global loop to the key's owner. With no
    lower layers it is the substrate's flat greedy walk — flat routing is
    HIERAS at depth 1. {!Extend} gives every flat substrate its
    {!ROUTABLE} entry points from the walk, and [Hieras.Make] runs it over
    locality rings it builds.

    Two levels of signature:

    - {!ROUTABLE} is the {e consumer} interface: everything an experiment
      needs to issue lookups against an overlay (plain, analytic and
      failure-aware entry points plus the ownership oracles). Flat
      substrates and HIERAS-layered overlays both satisfy it, which is what
      lets the tournament treat "chord" and "hieras-over-can" as peers.
    - {!BASE} is the {e provider} interface: the per-substrate primitives
      the walk reads. {!S} is {!BASE} plus the flat entry points.

    The failure-aware walk charges every dead contact by one policy,
    {!default_policy}, whatever the substrate and depth.

    Determinism: nothing in this module draws randomness; every route is a
    pure function of the substrate state and the key, so traces and
    tournament matrices are byte-stable across runs and [--jobs]. *)

(** {2 Shared result and policy types} *)

type hop = { from_node : int; to_node : int; latency : float; layer : int }
(** One overlay edge. Flat routes always use [layer = 1]; layered overlays
    tag hops with the HIERAS layer whose routing state chose them. *)

type result = {
  origin : int;
  key : Hashid.Id.t;
  destination : int;
  hops : hop list;
  hop_count : int;
  latency : float;
  hops_per_layer : int array;  (** index 0 = layer 1; flat: [\[| hop_count |\]] *)
  latency_per_layer : float array;
  finished_at_layer : int;  (** 1 for flat routes *)
}

type policy = {
  rpc_timeout_ms : float;  (** charge for one timed-out contact attempt *)
  max_retries : int;  (** extra attempts after the first timeout *)
  backoff_base_ms : float;  (** wait before retry 1 *)
  backoff_mult : float;  (** exponential factor; waits cap at the timeout *)
}
(** A failure-handling policy: what probing a dead contact costs. *)

val default_policy : policy
(** The failure-aware walk's policy, the one for every substrate: 500 ms
    timeout, 2 retries, 50 ms base backoff doubling per attempt. *)

val attempt_delay : policy -> int -> float
(** [attempt_delay p k] is the latency charged for failed contact attempt
    [k] (0-based): attempt 0 costs the bare timeout; attempt [k >= 1]
    costs [min (backoff_base * mult^(k-1)) timeout + timeout]. *)

type attempt = {
  outcome : result option;
      (** [None] when the lookup stalled (no live route) or the overlay has
          no live owner. The result's [latency] {e includes} [penalty_ms];
          its hops and [latency_per_layer] carry link latency only. *)
  retries : int;  (** timed-out contact attempts (= [Retry] events) *)
  timeouts : int;  (** distinct dead contacts probed to exhaustion *)
  fallbacks : int;  (** dead contacts abandoned for a secondary choice *)
  layer_escapes : int;  (** early climbs out of rings with no live route; 0 when flat *)
  penalty_ms : float;  (** total timeout + backoff latency charged *)
}

val num_dist : Hashid.Id.space -> Hashid.Id.t -> Hashid.Id.t -> float
(** Circular numerical distance |a - key| as a fraction of the identifier
    circle (min of the two directions) — Pastry's closeness metric, shared
    here so ring walks and ownership oracles agree on it bit-for-bit. *)

(** {2 Signatures} *)

(** The consumer contract: issue lookups, ask who owns a key. *)
module type ROUTABLE = sig
  type t

  val name : string
  (** Trace algo tag ("chord", "hieras-can", ...). *)

  val size : t -> int
  val host : t -> int -> int

  val owner_of_key : t -> key:Hashid.Id.t -> int
  (** Where every correct route of this overlay must end. *)

  val live_owner : t -> is_alive:(int -> bool) -> key:Hashid.Id.t -> int option
  (** The node a {e successful} resilient lookup must reach when part of the
      population is dead; [None] when the overlay defines no live owner
      (e.g. Tapestry's surrogate root is down). *)

  val route : ?trace:Obs.Trace.t -> t -> origin:int -> key:Hashid.Id.t -> result
  (** Ends at [owner_of_key]; emits Start/Hop/End on an enabled tracer. *)

  val route_hops_only : t -> origin:int -> key:Hashid.Id.t -> int * int
  (** [(hop_count, destination)] — the analytic walk: no latency oracle, no
      trace, no hop list, hop-for-hop identical to {!route}. It allocates
      whatever the substrate's step functions do; over Chord's packed
      arenas that is nothing per hop, only the per-layer tally and the
      result. *)

  val route_resilient :
    ?trace:Obs.Trace.t ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    attempt
  (** Failure-aware routing against a liveness oracle ({!Walk}'s rule).
      With everyone alive it follows {!route} hop-for-hop with zero
      penalty. It succeeds exactly when it reaches [live_owner]; a stalled
      lookup's trace [End] event reports the stall position, so spans
      always close. Raises [Invalid_argument] if the origin is dead. *)
end

(** The provider contract: one greedy step, its failover alternatives, the
    heartbeat window, and ring-restricted variants of each over an
    arbitrary member subset.

    The per-hop primitives take the key together with its [owner]
    ({!owner_of_key}), which the walk resolves once per route; a substrate
    decides each hop from whichever of the two it needs. Chord's node
    indices are in identifier order, so it decides every hop by integer
    comparisons of indices (the owner rule, [Chord.Network]). *)
module type BASE = sig
  type t

  val name : string
  val layered_name : string
  (** Trace algo tag of the HIERAS layering over this substrate
      ("hieras" for Chord — the historical tag the goldens pin). *)

  val size : t -> int
  val host : t -> int -> int

  val link_latency : t -> int -> int -> float
  (** Latency of one overlay edge (host-to-host through the oracle). *)

  val guard : t -> int
  (** Step budget of each loop of a walk — the global loop and each ring
      loop. A fault-free walk that exceeds it raises [Failure] naming the
      substrate; a failure-aware one gives the loop up. *)

  val owner_of_key : t -> key:Hashid.Id.t -> int
  val live_owner : t -> is_alive:(int -> bool) -> key:Hashid.Id.t -> int option

  val step : t -> cur:int -> owner:int -> key:Hashid.Id.t -> int
  (** The substrate's next hop from [cur] towards [key], whose owner is
      [owner]; precondition [cur <> owner]. *)

  val candidates : t -> cur:int -> owner:int -> key:Hashid.Id.t -> int list
  (** Liveness-blind failover order for one step, probed in turn. With
      everyone alive, {!step}'s choice is the first {!window} entry when it
      {!covers} the key, else the head of this list, else the first window
      entry — which is what makes the failure-aware walk reproduce the
      fault-free one when everyone is alive. *)

  val window : t -> cur:int -> int list
  (** The heartbeat window on the global ring: the peers, in successor
      order, whose death [cur] knows without probing — Chord's successor
      list; empty for CAN, Pastry and Tapestry. *)

  val covers : t -> cur:int -> upto:int -> owner:int -> key:Hashid.Id.t -> bool
  (** The key lies on the arc ([cur], [upto]]: were the window entry
      [upto] [cur]'s successor, it would own the key. Only asked of window
      entries. *)

  type layer
  (** Routing state of one HIERAS layer: every ring of it, each restricted
      to its member subset, reached from a node through arrays indexed by
      node — a hop reads no hash table. *)

  val make_layer : t -> rings:int array list -> layer
  (** [rings] partition the substrate's nodes (every node in exactly one
      ring); each ring's members are node indices in ascending order. *)

  val ring_step : t -> layer -> cur:int -> owner:int -> key:Hashid.Id.t -> int
  (** Next member of [cur]'s ring towards [key], or [cur] itself where this
      layer can make no further progress — the ring walk's stop. *)

  val ring_candidates : t -> layer -> cur:int -> owner:int -> key:Hashid.Id.t -> int list
  (** Failover order within [cur]'s ring, as {!candidates} is on the global
      ring. *)

  val ring_window : t -> layer -> cur:int -> int list
  (** The heartbeat window within [cur]'s ring (Chord: the ring-successor
      chain, as long as the successor list); empty for CAN, Pastry and
      Tapestry. *)

  val early_finish : t -> cur:int -> owner:int -> key:Hashid.Id.t -> int option
  (** The paper's between-layer early exit: [Some next] when [cur]'s global
      successor knowledge already names the key's owner — the layered walk
      then records one final layer-1 hop to [next] and stops. *)
end

(** The one routing walk over a substrate's primitives. [layers.(k)] is
    the routing state of HIERAS layer [k + 2], so a walk over [layers] runs
    at depth [Array.length layers + 1]; with no layers it is the flat walk.
    The trace algo tag is [B.name] when flat, [B.layered_name] otherwise. *)
module Walk (B : BASE) : sig
  val route :
    ?trace:Obs.Trace.t -> B.t -> B.layer array -> origin:int -> key:Hashid.Id.t -> result
  (** Descend layers [depth .. 2] — each a ring loop over {!BASE.ring_step}
      to its stop, then the owner check and {!BASE.early_finish} — then
      loop {!BASE.step} to the owner on the global ring. Hops are tagged
      with the layer whose state chose them (the early exit is a layer-1
      hop); [finished_at_layer] is the layer whose loop reached the owner,
      [depth] when the origin owns the key. Emits Start/Hop/End on an
      enabled tracer. *)

  val route_hops :
    ?into:int array ->
    B.t ->
    B.layer array ->
    origin:int ->
    key:Hashid.Id.t ->
    int * int array * int * int
  (** [(hops, hops_per_layer, destination, finished_at_layer)] of exactly
      {!route}'s walk, with no latency oracle, no trace and no hop list —
      the same loop, told not to record. [into], when given (length >=
      depth), is zeroed and used as the per-layer tally instead of
      allocating one; the returned array is [into] itself. *)

  val route_hops_only : B.t -> B.layer array -> origin:int -> key:Hashid.Id.t -> int * int
  (** [(hops, destination)] of the same walk. *)

  val route_resilient :
    ?trace:Obs.Trace.t ->
    B.t ->
    B.layer array ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    attempt
  (** The same walk against a liveness oracle, towards
      {!BASE.live_owner}, with one substrate-specific rule: the heartbeat
      window. At each node the first live window entry stands in for the
      successor — dead entries before it are skipped without a probe, each
      a [Fallback] event. When the stand-in covers the key it ends the
      loop: a ring loop stops, the early exit hops to it, the global loop
      makes its final hop. Otherwise the substrate decides: a ring loop
      stops where {!BASE.ring_step} does, and the next hop is the first
      live candidate — each dead one probed through the full retry
      schedule of {!default_policy} — or else the stand-in. A ring with
      neither climbs a layer early ([Layer_escape]); the global ring with
      neither stalls.
      The early exit without a covering stand-in is the substrate's own,
      probed when dead. An origin that is the live owner takes 0 hops.
      With an empty window this is the substrate's plain failover; with
      everyone alive it is {!route} hop for hop, with zero penalty. *)
end

(** A flat routing implementation: substrate primitives + entry points. *)
module type S = sig
  include BASE

  val route : ?trace:Obs.Trace.t -> t -> origin:int -> key:Hashid.Id.t -> result
  val route_hops_only : t -> origin:int -> key:Hashid.Id.t -> int * int

  val route_resilient :
    ?trace:Obs.Trace.t ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    attempt
end

module Extend (B : BASE) : S with type t = B.t and type layer = B.layer
(** The {!ROUTABLE} entry points of a flat substrate: {!Walk} with no
    layers. *)

(** {2 Identifier-circle rings}

    A generic layer representation for substrates whose native geometry has
    no subset-restricted form (Pastry's leaf sets, Tapestry's levels are
    global): each ring's members sorted on the identifier circle, walked by
    numerical closeness. Substrate adapters combine it with their own
    contact lists ({!Circle.toward} is only the guaranteed-progress
    fallback). *)
module Circle : sig
  type t
  (** One layer: a partition of the nodes into circles. *)

  val make :
    space:Hashid.Id.space -> id_of:(int -> Hashid.Id.t) -> size:int -> rings:int array list -> t
  (** [rings] partition the node indices [0 .. size-1]; the nodes of one
      ring have distinct identifiers. *)

  val same : t -> int -> int -> bool
  (** The two nodes sit on one circle. *)

  val root : t -> cur:int -> key:Hashid.Id.t -> int
  (** The member of [cur]'s circle numerically closest to the key (tie:
      smaller identifier) — where a circle walk stops. *)

  val toward : t -> cur:int -> key:Hashid.Id.t -> int
  (** The circle neighbor of [cur] in the shorter-arc direction of [key]:
      strictly closer numerically unless [cur] is already {!root} (the
      last hop may land exactly on the root at equal distance). *)
end
