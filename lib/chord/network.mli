(** Oracle-built Chord networks.

    [build] computes, directly from the sorted identifier array, exactly the
    state a correct, fully-stabilized Chord deployment converges to: sorted
    successor relationships, finger tables and successor lists. The
    message-level protocol in {!Protocol} is tested to converge to this same
    fixpoint; large-scale routing experiments start from it (building a
    10 000-node network through simulated joins would dominate runtime
    without changing any measured quantity — see DESIGN.md §5).

    Nodes are dense indices [0 .. size-1] ordered by identifier; node
    [(i+1) mod size] is node [i]'s ring successor. Each node carries the
    index of the topology end-host it runs on.

    The state is a packed struct-of-arrays (DESIGN.md §12): flat id/host
    arrays plus one shared finger arena with per-node offsets — no per-node
    records or tables on the lookup hot path, which is what lets a 10^6-node
    network fit comfortably in memory. Record-style accessors
    ({!finger_table}, {!successor_list}) remain as thin views. *)

type t

val build :
  space:Hashid.Id.space ->
  hosts:int array ->
  ?succ_list_len:int ->
  ?salt:string ->
  unit ->
  t
(** One peer per element of [hosts] (the topology host each peer runs on).
    Peer identifiers are [Id.of_hash space (salt ^ index)], regenerated with
    a different suffix on the (tiny-space) event of a collision.
    [succ_list_len] defaults to 8 (Chord's [r] parameter). *)

val of_ids :
  space:Hashid.Id.space ->
  ids:Hashid.Id.t array ->
  hosts:int array ->
  ?succ_list_len:int ->
  unit ->
  t
(** Explicit identifiers (worked examples, tests). Raises [Invalid_argument]
    on duplicates or misaligned arrays. *)

val space : t -> Hashid.Id.space
val size : t -> int
val id : t -> int -> Hashid.Id.t
val host : t -> int -> int
val successor : t -> int -> int
val predecessor : t -> int -> int
val successor_list : t -> int -> int array
(** A fresh array [\[|i+1; ..; i+r|\]] (mod size) — synthesized from the
    sorted order; the packed network stores no successor lists. *)

val succ_list_len : t -> int
(** [r = min succ_list_len (size - 1)] — the length {!successor_list}
    returns. *)

val finger_table : t -> int -> Finger_table.t
(** A thin view materialized from the node's finger-arena slice. Prefer
    {!closest_preceding_finger} / {!preceding_candidates} on hot paths. *)

val fingers : t -> Finger_table.arena
(** The shared finger arena, entry [i] of [off] starting node [i]'s slice. *)

val closest_preceding_finger : t -> int -> key:Hashid.Id.t -> int
(** [Finger_table.closest_preceding] read straight off the packed arena:
    the farthest finger of node [i] strictly inside [(id i, key)], or [-1]
    when no finger makes progress. *)

val preceding_candidates : t -> int -> key:Hashid.Id.t -> int list
(** [Finger_table.preceding_candidates] off the packed arena. *)

(** {2 Deciding by the key's owner}

    Node indices are in identifier order, so once the key's owner is known
    ({!successor_of_key}) every arc test from node [i] is integer
    arithmetic on indices, with no identifier read: with
    [d x = (x - i) mod n] taken in [(0, n\]] ([d i = n]), node [j] lies
    strictly inside [(id i, key)] iff [d j < d owner], and the key lies on
    [(id i, id u\]] iff [d owner <= d u]. The routing walk resolves the
    owner once per route and decides every hop this way. *)

val closest_preceding_in : t -> Finger_table.arena -> int -> owner:int -> int
(** {!closest_preceding_finger} over node [i]'s slice of an arena whose
    entries index this network — {!fingers}, or a HIERAS layer's ring
    arena — for the key whose owner is [owner]. Allocates nothing. *)

val preceding_candidates_in : t -> Finger_table.arena -> int -> owner:int -> int list
(** {!preceding_candidates} over node [i]'s slice of such an arena. *)

val key_on_arc : t -> int -> upto:int -> owner:int -> bool
(** [Id.in_oc key ~lo:(id i) ~hi:(id upto)] for the key whose owner is
    [owner]. *)

val find_node : t -> Hashid.Id.t -> int option
(** Node with exactly this identifier. *)

val successor_of_key : t -> Hashid.Id.t -> int
(** The node that owns a key: first node clockwise from it (inclusive). *)

val total_finger_segments : t -> int
(** Sum of distinct finger-table entries over all nodes (cost model) —
    O(1): the finger arena's length. *)

val bytes_resident : t -> int
(** Approximate heap footprint of the packed network (id strings, host
    array, finger arena, offsets) in bytes. *)
