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
    indices). Finger [i] is the first member clockwise from
    [owner_id + 2^i]. Each finger is found on its own, by bisection: this
    is the reference {!pack_arena} is tested against, at [bits] id
    additions per table. *)

type members = { ids : Hashid.Id.t array; pre : int array; nodes : int array }
(** One member set: identifiers sorted ascending, their aligned
    {!Hashid.Id.prefix_int} column, and the global node index of each. *)

type arena = { off : int array; exps : Bytes.t; nodes : int array }
(** Every node's table in one shared arena: node [i]'s segments are
    [exps/nodes.(off.(i) .. off.(i+1) - 1)], in ascending exponent order,
    one exponent byte per segment (bits <= 255). *)

val pack_arena : Hashid.Id.space -> sets:members array -> set_of:(int -> int) -> arena
(** The arena of nodes [0 .. size - 1], [size] the sets' total length:
    node [i] routes among [sets.(set_of i)] and its segments are exactly
    those {!build} stores over that set. Node [i] must be its set's next
    member, so each set lists its nodes ascending and the sets partition
    the nodes; the members must ascend by identifier, with the prefix
    column aligned. Anything else raises [Invalid_argument]: the owners of
    a set are packed in ascending identifier order by construction.

    Cost: a start point [owner + 2^e] is judged by its prefix, computed in
    O(1) ({!Hashid.Id.prefix_add_pow2}) and compared against the set's
    prefix column by one integer load; a start is built only on a prefix
    tie. Runs of equal fingers are crossed by galloping over exponents. A
    new segment's position is galloped forward from the larger of two lower
    bounds: the owner's previous segment position, and the position the
    same exponent's finger last had for an earlier owner of the set
    (positions never move back along a set, so one cursor per exponent per
    set serves). Apart from the starts built on ties, nothing is allocated
    per node beyond the arena itself. The
    buffers start at about [log2 m + 1] segments per node of a set of [m]
    members, what random identifiers need, and double past it. *)

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
