(** Oracle-built CAN networks (Ratnasamy et al., SIGCOMM'01).

    CAN partitions a [d]-dimensional unit torus into one zone per node; keys
    hash to points and are owned by the zone containing them; routing is
    greedy through zone neighbors (zones sharing a (d-1)-dimensional face).

    The builder replays CAN's actual join procedure: each node hashes to a
    point, the zone containing the point splits in half along its widest
    dimension, and neighbor sets are updated incrementally — so the final
    partition and neighbor structure are exactly what a sequence of joins
    produces. The paper sketches HIERAS over CAN in §3.2; [Hieras.Make]
    over {!Routable} implements that sketch. *)

type t

val build :
  space:Hashid.Id.space ->
  hosts:int array ->
  ?dims:int ->
  unit ->
  t
(** One peer per host; peer points derive from hashed identifiers (two
    independent hash coordinates per dimension). [dims] defaults to 2, the
    CAN paper's running example. *)

val of_points : hosts:int array -> points:float array array -> t
(** Explicit points (tests). Points must be distinct. *)

val dims : t -> int
val size : t -> int
val host : t -> int -> int
val point : t -> int -> float array
(** The node's hashed join coordinate. The newcomer's zone always contains
    it at join time, but later splits may hand that region to another node —
    as in real CAN, the zone (not the point) is a node's identity. *)

val zone : t -> int -> Zone.t
val neighbors : t -> int -> int list
(** Zone-adjacent nodes. *)

val greedy : t -> point:float array -> cur:int -> int
(** CAN's greedy step: the neighbor whose zone is torus-closest to the
    point (first strictly-improving minimum in neighbor-list order), or
    [cur] itself on a greedy dead end. Routes ({!Routable}) and
    {!owner_of_point} both descend by it. *)

val owner_of_point : t -> float array -> int
(** The node whose zone contains the point. *)

val key_point : t -> Hashid.Id.t -> float array
(** Where a key lives in the coordinate space (uniform per-dimension
    hashes). *)

val owner_of_key : t -> Hashid.Id.t -> int

val mean_neighbors : t -> float
(** Average neighbor-set size (theory: 2d for large networks). *)

val zones_partition_space : t -> bool
(** Total zone volume is 1 and probe points each fall in exactly one zone —
    the structural invariant (tests). *)
