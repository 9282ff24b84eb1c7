(** A deterministic metrics registry: named counters, gauges and histograms.

    Subsystems register series by name and mutate them through O(1) typed
    handles; a {!snapshot} freezes every series into a plain value that
    renders identically on every run of a deterministic workload — snapshots
    sort by name, floats print with a round-tripping shortest representation,
    and nothing in the registry depends on wall-clock time or memory layout.
    This is what lets the test suite assert [to_text]/[to_json] equality
    across [--jobs] widths and latency-oracle backends.

    Handles are plain mutable cells with no locking: increments from a single
    domain are exact; the experiment pipeline keeps registries off the worker
    domains (workers accumulate into their own structures which the caller
    exports after the deterministic merge — see [Experiments.Runner]). *)

type t
(** A registry. Independent registries share nothing. *)

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Registration}

    Registration is idempotent: registering an existing name returns the
    existing handle, so instrumentation sites need no coordination. A name
    holds exactly one metric kind — re-registering under a different kind
    raises [Invalid_argument]. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit [+inf]
    overflow bucket is always appended. The default buckets span the
    millisecond latency scales of the paper's topologies (1 .. 5000 ms).
    Raises [Invalid_argument] on empty or non-increasing buckets. *)

(** {2 Mutation} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_counter : counter -> int -> unit
(** Overwrite — used when mirroring a subsystem's own cumulative fields
    (e.g. [Simnet.Engine]'s delivery counters) into the registry. *)

val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Adds [v] to the first bucket whose upper bound is [>= v] (the overflow
    bucket when none is) and to the running count/sum. *)

(** {2 Snapshots and rendering} *)

type hist_snapshot = {
  bounds : float array;  (** bucket upper bounds, as registered *)
  bucket_counts : int array;  (** per-bucket (non-cumulative); last = +inf overflow *)
  count : int;
  sum : float;
}

type value = Counter of int | Gauge of float | Hist of hist_snapshot

type snapshot = (string * value) list
(** Sorted by name; arrays are copies, so a snapshot is immutable even while
    the registry keeps moving. *)

val snapshot : t -> snapshot
val find : snapshot -> string -> value option

val to_text : snapshot -> string
(** One aligned line per series — the [--metrics] CLI rendering. *)

val to_json : snapshot -> string
(** A single-line JSON object mapping each name to
    [{"type":..,"value":..}] (counters, gauges) or
    [{"type":"histogram","count":..,"sum":..,"buckets":[{"le":..,"count":..},..]}]
    where the overflow bucket renders as ["le":"+inf"]. Embedded verbatim in
    the bench [--json] report. *)
