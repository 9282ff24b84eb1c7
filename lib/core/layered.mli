(** HIERAS layering over any {!Routing.BASE} substrate (DESIGN.md §13).

    [Make (R)] builds locality rings — landmark binning, refinement chains,
    one ring per order per layer — and hands each layer's rings to [R] as
    one [R.layer]. Its routes are {!Routing.Walk} over those layers, the
    same walk every flat substrate runs with none. [Make (Chord.Routable)]
    is HIERAS over Chord, on the packed layer arenas: {!Hnetwork} is its
    state plus ring tables, and {!Hlookup} names its walk.
    [Make (Can.Routable)] is the paper's §3.2 HIERAS-over-CAN. The result
    satisfies {!Routing.ROUTABLE}, so layered overlays enter experiments
    anywhere flat substrates do. *)

module Make (R : Routing.BASE) : sig
  type t

  val name : string
  (** [R.layered_name] — the trace algo tag ("hieras" over Chord). *)

  val build :
    base:R.t ->
    lat:Topology.Latency.t ->
    landmarks:Binning.Landmark.t ->
    depth:int ->
    ?measure:(host:int -> float array) ->
    unit ->
    t
  (** Bin the substrate's nodes by landmark distance ([measure] overrides
      the probe, as in [Hnetwork.build]): at each layer the nodes sharing a
      bin form one ring, and the layer's rings become one [R.layer].
      [depth >= 2]. *)

  val base : t -> R.t
  val depth : t -> int
  val size : t -> int
  val host : t -> int -> int

  (** The layer accessors below take [layer] in [2 .. depth] and raise
      [Invalid_argument] otherwise. *)

  val order_of_node : t -> layer:int -> int -> string
  (** The node's ring name (order string) at the layer. *)

  val ring_count : t -> layer:int -> int

  val ring_orders : t -> layer:int -> string list
  (** The layer's ring names, sorted. *)

  val ring_members : t -> layer:int -> order:string -> int array
  (** Members of the named ring (a fresh copy), ascending by node index;
      empty if there is no such ring. *)

  val ring_size_of_node : t -> layer:int -> int -> int

  val layer_state : t -> layer:int -> R.layer
  (** The substrate's routing state of the layer (what the walk reads). *)

  val owner_of_key : t -> key:Hashid.Id.t -> int
  val live_owner : t -> is_alive:(int -> bool) -> key:Hashid.Id.t -> int option

  (** The routes are {!Routing.Walk} over the layers at depth {!depth}. *)

  val route : ?trace:Obs.Trace.t -> t -> origin:int -> key:Hashid.Id.t -> Routing.result
  (** [Walk.route]; the trace algo is {!name}. *)

  val route_hops :
    ?into:int array -> t -> origin:int -> key:Hashid.Id.t -> int * int array * int * int
  (** [(hops, hops_per_layer, destination, finished_at_layer)] —
      [Walk.route_hops], the analytic form of {!route}: [into], when given
      (length >= depth), is the reused per-layer tally and the returned
      array is [into] itself, so a caller reusing it must consume it before
      the next call.

      Over [Chord.Routable] a hop allocates nothing: every hop is decided
      by node indices and the key's owner, looked up once per call. A call
      with [into] then allocates only its result tuple (5 words). *)

  val route_hops_only : t -> origin:int -> key:Hashid.Id.t -> int * int
  (** [(hops, destination)] — the {!Routing.ROUTABLE} analytic form. *)

  val route_resilient :
    ?trace:Obs.Trace.t ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    Routing.attempt
  (** [Walk.route_resilient] over the layers: the heartbeat-window rule,
      layer escapes out of rings with no live route, and success exactly
      at [live_owner]. With everyone alive, hop-for-hop identical to
      {!route}. *)
end
