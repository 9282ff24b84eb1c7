(** The web-cache storage scenario (ROADMAP "Storage, replication, and a
    DHT web-cache scenario"; DESIGN.md §15).

    The replicated store ({!Store.Kv}) and per-node cache tier
    ({!Store.Cache}) under a zipf object workload
    ({!Workload.Webcache}), swept over replication factor × zipf skew
    for both message protocols, with an optional fault schedule landing
    between populate and read. Reports object availability, cache hit
    rate and overlay fetch latency per cell.

    One cell = one (replication, alpha, algorithm) triple, fully
    self-contained and seeded from [(spec.seed, pair index)] alone, so
    the chord and hieras cells of one pair see identical topology,
    catalogue, request stream and fault draw — and {!results_json} is
    byte-identical for any [--jobs] ([Pool.map_chunks] with chunk size
    1, fixed merge order), which [test/test_store.ml] and the cram suite
    enforce.

    The ["spaced"] schedule kills [fault_frac] of the pool at positions
    spread through identifier order with at least [r] nodes between
    victims, so no key's owner-plus-replicas window loses more than one
    copy: with fewer than [r] correlated failures per replica set, every
    acknowledged object must remain reachable — measured availability
    100%, the acceptance gate this experiment exists to demonstrate. *)

type fault = No_fault | Crash | Spaced

val fault_of_name : string -> fault option
(** ["none"], ["crash"] (uniform random kills) or ["spaced"]. *)

type spec = {
  pool : int;  (** nodes; all join before the store populates *)
  objects : int;  (** catalogue size — one put each *)
  requests : int;  (** zipf read stream length *)
  replication : int list;  (** store replication factors to sweep *)
  alphas : float list;  (** zipf skews to sweep *)
  fault : fault;
  fault_frac : float;  (** fraction killed (schedules other than none) *)
  cache_entries : int;  (** per-node cache entry budget *)
  loss : float;  (** message loss rate *)
  depth : int;  (** HIERAS layers *)
  landmarks : int;
  net_sample : float option;  (** message-span recording, root-keyed rate *)
  seed : int;
}

val default_spec : spec
(** 32-node pool, 48 objects, 600 requests, r ∈ {2, 3}, alpha 0.8, no
    faults, 16-entry caches, seed 2003. Every cache also holds at most
    128 KiB and keeps an entry 30 s; those two are constants, which
    {!results_json} reports as [cache_bytes] and [ttl_ms]. *)

val validate : spec -> (unit, string) result
(** CLI-friendly diagnostics; both drivers print the message and exit 2. *)

val spaced_victims : members_by_id:int array -> frac:float -> r:int -> int list
(** The deterministic victim set of the spaced schedule (exposed for the
    property suite): positions [0, step, 2·step, ...] of the
    id-sorted live population, [step = max r (n / k)], last victim at
    least [r] before the wrap. *)

type cell = {
  algo : string;
  replication : int;
  alpha : float;
  sim_ms : float;
  messages : int;
  puts : int;
  puts_acked : int;
  requests : int;  (** issued against acknowledged objects *)
  skipped_unbacked : int;  (** stream entries naming never-acknowledged objects *)
  served : int;  (** cache hits + routed gets that found the object *)
  hits : int;  (** cache hits alone *)
  absent : int;  (** routed gets answered "no such key" — lost objects *)
  unreachable : int;  (** routed gets that failed outright *)
  latency_mean_ms : float;  (** over routed gets that found the object *)
  latency_max_ms : float;
  replicate_msgs : int;
  read_repairs : int;
  handoffs : int;
  promotions : int;
  pruned : int;
  items_live : int;
  evictions : int;
  expirations : int;
  hot_objects : int;
  killed : int;
  final_members : int;
  net_trace : string;
}

type results = { spec : spec; cells : cell list }

val run : ?pool:Parallel.Pool.t -> ?registry:Obs.Metrics.t -> spec -> results
(** Raises [Invalid_argument] on an invalid spec (drivers validate
    first). Cells are dispatched one per chunk and merged in fixed
    order. *)

val export_registry : Obs.Metrics.t -> results -> unit
(** Per-cell counters and gauges under
    [cache.<algo>.r<r>.a<alpha>.*]. *)

val results_json : results -> string
(** Deterministic single-line JSON, ["schema":"hieras-cache"], ending
    with the {!Obs.Gate} list: per cell [cache.<algo>.r<r>.a<alpha>.]
    [latency_mean_ms], [unavailability], [miss_rate] and
    [put_failure_rate]. *)

val net_trace : results -> string
(** Concatenated per-cell message-span JSONL (empty unless
    [net_sample]); cells in fixed order, byte-identical for any
    [--jobs]. *)

val section : results -> Report.section
