(** A fixed-size domain pool for embarrassingly parallel loops.

    The experiment pipeline replays up to 100 000 independent lookups over
    independently generated topologies; both the per-source Dijkstra runs of
    the latency oracle and the per-request measurement loop are data-parallel
    with no shared mutable state. This pool spreads such loops over OCaml 5
    domains using only the stdlib ([Domain], [Mutex], [Condition]).

    {2 Determinism contract}

    Parallelism must never change results. Every combinator here follows the
    same discipline:

    - work is split into {e chunks} whose boundaries depend only on the
      problem size (and, for {!parallel_for}, the pool width), never on
      scheduling;
    - workers write only into disjoint, pre-allocated slots;
    - results are combined in fixed chunk order on the calling domain.

    {!map_chunks} goes further: its chunk layout is derived from an explicit
    [chunk_size], so the result is {e bit-identical} for every pool width —
    this is what the experiment runner uses so that [--jobs 1] and
    [--jobs N] print identical tables.

    The first exception raised by any chunk is re-raised on the calling
    domain (other chunks may still run). A pool is reusable across calls
    but not reentrant: run one parallel region at a time, from one
    domain. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism. *)

val jobs : t -> int

val sequential : t
(** A shared width-1 pool (no domains). The default everywhere a [?pool] is
    accepted, so callers that never ask for parallelism pay nothing. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a pool of [jobs] workers (default
    {!default_jobs}) and always joins the worker domains; the pool is
    unusable afterwards. [jobs - 1] domains are spawned, the calling domain
    acts as the remaining worker; [jobs = 1] spawns nothing and every
    combinator degrades to a plain sequential loop. Raises
    [Invalid_argument] if [jobs < 1]. *)

val export_metrics : ?prefix:string -> t -> Obs.Metrics.t -> unit
(** Mirror the pool's instrumentation into a metrics registry: gauge
    [<prefix>.jobs], counters [<prefix>.regions] (parallel regions run
    over the pool's lifetime, one per combinator call) and [<prefix>.chunks]
    (chunks dispatched; those of {!parallel_for} depend on the pool width,
    only {!map_chunks} layouts are width-independent). Default prefix
    ["pool"]. Idempotent: re-exporting overwrites. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** Run [f 0 .. f (n - 1)] in [min jobs n] contiguous chunks, sizes
    differing by at most one. Raises [Invalid_argument] if [n < 0]. *)

val map_chunks : t -> n:int -> chunk_size:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** Split [0..n-1] into ceil(n / chunk_size) fixed-size chunks — a layout
    independent of the pool width — apply [f] to each slice in parallel and
    return the per-chunk results {e in chunk order}. Reducing this list
    left-to-right is deterministic for any [jobs]. Raises [Invalid_argument]
    if [chunk_size < 1]. *)
