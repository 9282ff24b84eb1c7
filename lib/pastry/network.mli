(** Oracle-built Pastry networks (Rowstron & Druschel, Middleware'01), with
    proximity neighbor selection.

    Pastry is the paper's locality-aware point of comparison: instead of
    adding a hierarchy, it fills each routing-table cell — "a node whose
    identifier shares my first [r] digits and has digit [c] next" — with the
    {e topologically closest} such candidate, so the early (short-prefix)
    hops of a route tend to be short links. The paper's stated future work is
    a comparison against Pastry; the extensions bench provides it on our
    simulated topologies.

    Identifiers are interpreted as base-16 digit strings (the classic
    [b = 4]); each node keeps a leaf set (the 16 numerically adjacent nodes,
    Pastry's |L| default) and a routing table of [rows x 16] cells
    populated by sampling up to 16 candidates per cell and keeping the
    nearest by latency. *)

type t

val build :
  space:Hashid.Id.space ->
  hosts:int array ->
  lat:Topology.Latency.t ->
  rng:Prng.Rng.t ->
  t
(** [space] must have a width divisible by 4. [rng] draws the proximity
    sample of a routing-table cell with more than 16 candidates. *)

val space : t -> Hashid.Id.space
val size : t -> int
val id : t -> int -> Hashid.Id.t
val host : t -> int -> int

val leaf_set : t -> int -> int array
(** Numerically adjacent nodes (up to 16, fewer in tiny networks),
    unordered; computed once per node at build. Do not mutate the returned
    array. *)

val table_entry : t -> int -> row:int -> col:int -> int option
(** The routing-table cell: a node sharing the first [row] digits with the
    owner and having digit [col] at position [row]; [None] when no such node
    exists (or the cell is beyond the populated rows). *)

val rows : t -> int
(** Populated routing-table rows. *)

val shared_prefix_len : t -> Hashid.Id.t -> Hashid.Id.t -> int
(** Length of the common base-16 digit prefix. *)

val root_of_key : t -> Hashid.Id.t -> int
(** The key's root: the node with the numerically closest identifier (either
    direction on the circle) — where every Pastry route must end. *)

val link_latency : t -> int -> int -> float
(** Latency between two nodes' hosts (from the embedded oracle). *)

val mean_table_link_latency : t -> samples:int -> Prng.Rng.t -> float
(** Mean latency of a random populated routing-table link — shows proximity
    neighbor selection at work (diagnostics and tests). *)
