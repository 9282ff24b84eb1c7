(** Oracle-built Tapestry networks (Zhao, Kubiatowicz & Joseph,
    UCB//CSD-01-1141) — the second locality-aware DHT the paper's future
    work names.

    Tapestry is a Plaxton-style prefix-routing mesh. Like Pastry it resolves
    one base-16 digit per hop and fills its neighbor maps with topologically
    close candidates; {e unlike} Pastry it has no leaf set — a key's {e root}
    is determined by {e surrogate routing}: when no node matches the key's
    next digit at some level, the lookup deterministically tries the
    following digit values (mod 16) until a populated slot is found. The
    root is therefore a pure function of the id set, which this oracle
    computes directly.

    A route walks the root's digit path ({!Routable} runs the walk): each
    hop, {!next_on_path}, moves to the topologically nearest node matching
    one more digit of that path, so a route takes at most [log16 n] hops. *)

type t

val build : space:Hashid.Id.space -> hosts:int array -> lat:Topology.Latency.t -> t
(** [space] width must be a multiple of 4. *)

val space : t -> Hashid.Id.space
val size : t -> int
val id : t -> int -> Hashid.Id.t
val host : t -> int -> int

val root_of_key : t -> Hashid.Id.t -> int
(** The surrogate root: unique, path-independent owner of the key. Each
    level narrows a run of the sorted ids by bisection; allocates nothing. *)

val root_path : t -> Hashid.Id.t -> int list
(** The digit sequence surrogate routing resolves for this key (diagnostic;
    its length bounds every route's hop count). *)

val root_path_of : t -> int -> int array
(** The root path of every key the node is the root of: its own digits up
    to the first singleton prefix group, so [root_path t key] as an array
    is [root_path_of t (root_of_key t key)]. Computed once per node at
    build; do not mutate the returned array. *)

val link_latency : t -> int -> int -> float
(** Latency between two nodes' hosts (from the embedded oracle). *)

val key_group : t -> key:Hashid.Id.t -> len:int -> int array
(** The nodes whose identifiers match the key's first [len] base-16 digits
    (all nodes for [len = 0]; [\[||\]] when no node matches, or when a
    single node already matches a shorter prefix of the key). *)

val shared_digits : t -> int -> Hashid.Id.t -> int
(** Length of the common base-16 digit prefix of a node's identifier and a
    key. *)

val next_on_path : t -> owner:int -> cur:int -> int
(** One routing step toward [owner], the key's root: the proximity-closest
    node of {!path_candidates}. Requires [cur] not to match [owner]'s full
    root path ({!root_path_of}) yet. *)

val path_candidates : t -> owner:int -> cur:int -> int list
(** The deterministic proximity sample at [cur]'s routing level — up to 16
    nodes matching one more digit of [owner]'s root path, evenly strided
    through the level group — sorted closest-first (sample order on ties).
    The head is {!next_on_path}'s pick; the tail is the failover order for
    resilient routing. A pure function of the id set, so routes are
    deterministic and safe to issue from parallel workers. *)
