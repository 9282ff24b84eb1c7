(** HIERAS layering over any {!Routing.S} substrate (DESIGN.md §13): the
    one fault-free HIERAS walk.

    [Make (R)] builds locality rings — landmark binning, refinement chains,
    one ring per order per layer — hands each layer's rings to [R] as one
    [R.layer], and routes with the paper's multi-loop composition (§3.2)
    through [R]'s ring primitives. [Make (Chord.Routable)] is HIERAS over
    Chord, on the packed layer arenas: {!Hnetwork} is its state plus ring
    tables, and {!Hlookup}'s fault-free entry points are this walk.
    [Make (Can.Routable)] is the paper's §3.2 HIERAS-over-CAN. The result
    satisfies {!Routing.ROUTABLE}, so layered overlays enter experiments
    anywhere flat substrates do. *)

module Make (R : Routing.S) : sig
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

  val route : ?trace:Obs.Trace.t -> t -> origin:int -> key:Hashid.Id.t -> Routing.result
  (** Descend layers [depth .. 2] (ring walks + the substrate's early-exit
      check), then the flat walk; hops are layer-tagged and the trace algo
      is {!name}. *)

  val route_hops :
    ?into:int array -> t -> origin:int -> key:Hashid.Id.t -> int * int array * int * int
  (** [(hops, hops_per_layer, destination, finished_at_layer)] — the
      analytic walk: exactly {!route}'s hop sequence and early exits, with
      no latency oracle, no trace and no hop list. [into], when given
      (length >= depth), is zeroed and used as the per-layer accumulator
      instead of allocating one per call; the returned array is [into]
      itself, so a caller reusing it must consume it before the next call.

      It is not allocation-free: the substrate's step functions allocate.
      Over [Chord.Routable] on the paper's set-up (10,000 nodes, depth 2)
      a call allocates about 178 minor words for 7.65 hops on average,
      mostly in [Chord.Network.closest_preceding_in_arena], whose three
      local closures take 23 words per call (one call per hop), and in
      [Chord.Network.successor_of_key]'s search closure (7 words). *)

  val route_hops_only : t -> origin:int -> key:Hashid.Id.t -> int * int
  (** [(hops, destination)] — the {!Routing.ROUTABLE} analytic form. *)

  val route_resilient :
    ?trace:Obs.Trace.t ->
    ?policy:Routing.policy ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    Routing.attempt
  (** Failure-aware layered routing: resilient ring walks (probing dead
      in-ring candidates, climbing a layer early — [Layer_escape] — when a
      ring has no live route), the early exit checked against liveness,
      then the substrate's flat candidates. Succeeds iff it reaches
      [live_owner]. With everyone alive, hop-for-hop identical to
      {!route}. *)
end
