(** Chord finger tables, run-length deduplicated.

    Conceptually a node [n] keeps [bits] fingers, finger [i] being the
    successor of [n + 2^i]. Consecutive fingers usually coincide (the paper's
    Table 2 shows it: node 121's 8 fingers name only 5 distinct peers), so we
    store one {e segment} per distinct successor: [(exp, node)] meaning
    "fingers [exp] up to the next segment's exponent all point at [node]".
    HIERAS keeps one such table per layer; restricting the candidate member
    set to a lower-layer ring is just building the table over that ring's
    members. *)

type t

val build :
  Hashid.Id.space ->
  owner:int ->
  owner_id:Hashid.Id.t ->
  member_ids:Hashid.Id.t array ->
  member_nodes:int array ->
  t
(** [build sp ~owner ~owner_id ~member_ids ~member_nodes]: [member_ids] must
    be sorted ascending and aligned with [member_nodes] (global node
    indices); the owner must be among the members. Finger [i] is the first
    member clockwise from [owner_id + 2^i]. *)

val pack :
  Hashid.Id.space ->
  owner_id:Hashid.Id.t ->
  member_ids:Hashid.Id.t array ->
  ?member_pre:int array ->
  member_nodes:int array ->
  push:(int -> int -> unit) ->
  unit ->
  unit
(** Emit exactly the [(exp, node)] segments {!build} would store, in
    ascending exponent order, through [push] — the packed-network builders
    append them to a shared arena instead of allocating a [t] per node.
    Runs of equal fingers are crossed by galloping (exponent monotonicity),
    so cost is O(segments × log run) probes rather than [bits]; each probe
    is a single id comparison against the current successor position.
    [member_pre], when given, must be the aligned {!Hashid.Id.prefix_int}
    column of [member_ids]: comparisons then resolve by one integer load
    except on (astronomically rare) prefix ties. *)

type arena = { off : int array; exps : Bytes.t; nodes : int array }
(** Every node's table in one shared arena: node [i]'s segments are
    [exps/nodes.(off.(i) .. off.(i+1) - 1)], in ascending exponent order,
    one exponent byte per segment (bits <= 255). *)

val pack_arena :
  Hashid.Id.space ->
  size:int ->
  owner_id:(int -> Hashid.Id.t) ->
  members:(int -> Hashid.Id.t array * int array * int array) ->
  arena
(** The arena filled in node order: node [i]'s segments come from {!pack}
    over [members i] = [(member_ids, member_pre, member_nodes)] of the ring
    it routes in. The buffers start at about [log2 m + 1] segments per
    node of a ring of [m] members, what random identifiers need, and
    double past it. *)

val of_arena : arena -> bits:int -> int -> t
(** Node [i]'s table, materialized from its arena slice (a packed
    network's thin view). *)

val arena_bytes : arena -> int
(** Heap footprint of the arena's three arrays, in bytes. *)

val owner : t -> int

val segments : t -> (int * int) array
(** [(exp, node)] segments in ascending exponent order. *)

val finger : t -> int -> int
(** [finger t i] resolves conceptual finger [i] (0-based). *)

val distinct_count : t -> int
(** Number of stored segments = distinct finger values — the table's real
    memory footprint (used by the cost model). *)

val closest_preceding :
  t -> id_of:(int -> Hashid.Id.t) -> self:Hashid.Id.t -> key:Hashid.Id.t -> int option
(** The farthest finger strictly inside [(self, key)] on the circle — the
    next hop of Chord's greedy routing. [None] when no finger makes
    progress. *)

val preceding_candidates :
  t -> id_of:(int -> Hashid.Id.t) -> self:Hashid.Id.t -> key:Hashid.Id.t -> int list
(** Every distinct finger strictly inside [(self, key)], farthest first —
    the failover order of the resilient route: the head is what
    {!closest_preceding} returns, each subsequent entry makes strictly
    less (but still some) progress. [] iff [closest_preceding] is
    [None]. *)
