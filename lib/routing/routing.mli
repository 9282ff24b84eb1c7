(** The unified routing core (ROADMAP "Unified routing core").

    Chord, Pastry, CAN and Tapestry each grew their own lookup plumbing;
    this module extracts the contract they all satisfy into one set of
    types and module signatures so that hierarchical layering
    ({!Hieras.Make}), conformance testing and the cross-algorithm
    tournament can be written once against {!S} instead of four times
    against four APIs.

    Two levels of signature:

    - {!ROUTABLE} is the {e consumer} interface: everything an experiment
      needs to issue lookups against an overlay (plain, analytic and
      failure-aware entry points plus the ownership oracles). Flat
      substrates and HIERAS-layered overlays both satisfy it, which is what
      lets the tournament treat "chord" and "hieras-over-can" as peers.
    - {!BASE} is the {e provider} interface: the per-substrate primitive
      step/candidate functions plus ring operations over the rings of one
      HIERAS layer. {!Extend} derives a full {!S} (= {!BASE} + the
      {!ROUTABLE} entry points) from it, and [Hieras.Make] layers locality
      rings over any {!S}.

    Determinism: nothing in this module draws randomness; every derived
    route is a pure function of the substrate state and the key, so traces
    and tournament matrices are byte-stable across runs and [--jobs]. *)

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
  rpc_timeout_ms : float;
  max_retries : int;
  backoff_base_ms : float;
  backoff_mult : float;
  succ_window : int;
}
(** The failure-handling policy of resilient routing — identical in shape
    and defaults to [Chord.Lookup.policy] (PR 5), so fault experiments can
    carry one policy across all substrates. *)

val default_policy : policy
(** 500 ms timeout, 2 retries, 50 ms base backoff doubling, window 8. *)

val check_policy : policy -> unit
(** Raises [Invalid_argument] on an ill-formed policy. *)

val attempt_delay : policy -> int -> float
(** [attempt_delay p k] is the latency charged for contact attempt [k] on a
    dead node: the plain timeout for [k = 0], timeout + capped exponential
    backoff for retries — the same arithmetic as [Chord.Lookup]. *)

type attempt = {
  outcome : result option;  (** [None]: the lookup stalled (no live route) *)
  retries : int;
  timeouts : int;
  fallbacks : int;
  layer_escapes : int;  (** always 0 for flat substrates *)
  penalty_ms : float;
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
      trace, no hop list, hop-for-hop identical to {!route}. It still
      allocates whatever the substrate's step functions do: about 23
      minor words per hop over Chord's packed arenas. *)

  val route_resilient :
    ?trace:Obs.Trace.t ->
    ?policy:policy ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    attempt
  (** Failure-aware routing against a liveness oracle. With everyone alive
      it follows {!route} hop-for-hop with zero penalty; under failures it
      probes dead preferred contacts (charging the full retry schedule) and
      falls back to secondary candidates. Raises [Invalid_argument] if the
      origin is dead. *)
end

(** The provider contract: one greedy step, its failover alternatives, and
    ring-restricted variants of both over an arbitrary member subset. *)
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
  (** Step budget after which a (plain) walk is declared divergent. *)

  val owner_of_key : t -> key:Hashid.Id.t -> int
  val live_owner : t -> is_alive:(int -> bool) -> key:Hashid.Id.t -> int option

  val step : t -> cur:int -> key:Hashid.Id.t -> int
  (** The substrate's next hop from [cur] towards [key]; precondition
      [cur <> owner_of_key t ~key]. *)

  val candidates : t -> cur:int -> key:Hashid.Id.t -> int list
  (** Liveness-blind failover order for one step: the head is exactly
      {!step}'s choice, the tail the secondary contacts a resilient route
      may fall back to. The head equality is what makes the derived
      resilient route reproduce {!route} when everyone is alive. *)

  type layer
  (** Routing state of one HIERAS layer: every ring of it, each restricted
      to its member subset, reached from a node through arrays indexed by
      node — a hop reads no hash table. *)

  val make_layer : t -> rings:int array list -> layer
  (** [rings] partition the substrate's nodes (every node in exactly one
      ring); each ring's members are node indices in ascending order. *)

  val ring_step : t -> layer -> cur:int -> key:Hashid.Id.t -> int
  (** Next member of [cur]'s ring towards [key], or [cur] itself where this
      layer can make no further progress — the ring walk's stop. *)

  val ring_candidates : t -> layer -> cur:int -> key:Hashid.Id.t -> int list
  (** Failover order within [cur]'s ring; away from the stop, the head is
      {!ring_step}'s choice. *)

  val early_finish : t -> cur:int -> key:Hashid.Id.t -> int option
  (** The paper's between-layer early exit: [Some next] when [cur]'s global
      successor knowledge already names the key's owner — the layered walk
      then records one final layer-1 hop to [next] and stops. *)
end

(** A full routing implementation: substrate primitives + derived routes. *)
module type S = sig
  include BASE

  val route : ?trace:Obs.Trace.t -> t -> origin:int -> key:Hashid.Id.t -> result
  val route_hops_only : t -> origin:int -> key:Hashid.Id.t -> int * int

  val route_resilient :
    ?trace:Obs.Trace.t ->
    ?policy:policy ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    attempt
end

module Extend (B : BASE) : S with type t = B.t and type layer = B.layer
(** Derive the {!ROUTABLE} entry points from the substrate primitives:

    - [route] loops [step] until the owner, recording layer-1 hops with
      Start/Hop/End trace events;
    - [route_hops_only] is the same walk without accounting;
    - [route_resilient] walks [candidates], charging the retry schedule for
      each dead preferred contact, and succeeds exactly when it reaches
      [live_owner] within the guard budget.

    A substrate with a richer native implementation (Chord's PR 5
    successor-list logic) includes [Extend] and shadows the entry points
    with delegations. *)

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
