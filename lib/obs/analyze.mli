(** Offline analytics over recorded observability artifacts.

    The tracer ({!Trace}) turns lookups into JSONL event streams; this
    module turns those streams back into answers — the per-layer latency
    attribution of the paper's Figures 4–7, hop/latency distributions,
    per-node forwarding hotspots and load imbalance, and ring-residency
    statistics — without re-running the experiment. Both JSON reports
    end with a {!Gate} list, so [analyze compare] gates them like any
    other artifact.

    Everything is computed in one streaming pass ({!feed_line} /
    {!of_file} read line by line; the trace never resides in memory) and
    every rendering is deterministic: map iteration is sorted, floats
    print with the round-tripping shortest representation, so the JSON
    report of a fixed trace is byte-stable — pinned by
    [test/golden/report_ts64.json].

    The analyzer is also an auditor: for every span it re-derives the hop
    count and latency total from the hop events and checks them against
    the [End] event (and the seq/chain contiguity invariants of
    DESIGN.md §8); disagreements are counted in [violations] rather than
    silently averaged over. *)

(** {2 Streaming accumulation} *)

type t

val create : ?top_k:int -> unit -> t
(** [top_k] bounds the forwarding-hotspot list in the report
    (default 10). *)

val feed_event : t -> Trace.event -> unit
(** Accumulate one already-decoded event (ring-buffer replays, tests). *)

val feed_line : t -> string -> unit
(** Parse one JSONL line and accumulate it. Both event families are
    accepted: lookup-trace events ([ev] start/hop/recover/end, {!Trace})
    and message-span events ([ev] msg/drop, {!Netspan}); the report to
    render afterwards is {!report} for the former and {!net_report} for
    the latter. Blank lines are ignored. Raises [Failure] on a line that
    is not a well-formed event — a corrupt trace should fail loudly, not
    skew statistics. *)

val of_file : ?top_k:int -> string -> t
(** Stream a JSONL trace file through {!feed_line}. *)

(** {2 Reports} *)

type layer_stat = {
  layer : int;
  l_hops : int;  (** hops chosen by this layer's finger tables *)
  hop_share : float;
  l_latency_ms : float;
  latency_share : float;  (** shares each sum to 1.0 over the layers *)
}

type hotspot = { node : int; forwards : int; fwd_share : float }

type recover_stat = {
  retries : int;  (** timed-out contact attempts on dead nodes *)
  fallbacks : int;  (** dead preferred next hops replaced by a secondary *)
  layer_escapes : int;  (** HIERAS early climbs out of a partitioned ring *)
  penalty_ms : float;
      (** total recover [delay_ms] — the share of the algo's latency spent
          on timeouts and backoff rather than on overlay hops *)
}

type algo_report = {
  algo : string;
  lookups : int;
  hops_mean : float;
  hops_max : float;
  latency_mean_ms : float;
  latency_max_ms : float;
  hop_hist : Stats.Histogram.t;  (** unit bins, PDF of hops per lookup *)
  latency_hist : Stats.Histogram.t;  (** 25 ms bins over 0..2000 *)
  layers : layer_stat list;  (** ascending; [] when no hops at all *)
  finished_at : (int * int) list;
      (** (layer, lookups whose End reported finishing there), ascending *)
  nodes_seen : int;  (** distinct node ids in this algo's events *)
  forwarders : int;  (** nodes that forwarded (appeared as a hop source) *)
  gini : float;
      (** Gini coefficient of per-node forwarding counts over [nodes_seen]
          (0 = perfectly even, -> 1 = one node forwards everything) *)
  imbalance : float;  (** max / mean forwarding count over [nodes_seen] *)
  hotspots : hotspot list;  (** top-k by forwards, descending *)
  recover : recover_stat;
      (** failure-recovery totals from [Recover] events; all-zero for
          traces of the non-resilient routes *)
}

type report = {
  events : int;
  spans_open : int;  (** lookups with a Start but no End (truncated trace) *)
  violations : int;
      (** spans whose End disagreed with the replayed hops (count or
          latency), or whose hop stream broke seq/chain contiguity *)
  algos : algo_report list;  (** sorted by algo name *)
}

val report : t -> report

val report_text : report -> string
(** Human-readable rendering: one {!Stats.Text_table} per aspect
    (per-algo summary, per-layer attribution, ring residency, forwarding
    hotspots). *)

val report_json : report -> string
(** Deterministic single-line JSON (schema in DESIGN.md §9); histograms
    render as sparse [[bin_lo, count]] pairs. The per-algo ["recover"]
    object only appears when at least one recovery was counted, so
    reports over healthy traces are byte-identical to pre-resilience
    ones. The closing ["gated"] list ({!Gate}) holds [violations] and,
    per algo, the hop and latency means, the latency max, the
    forwarding gini and the four [recover.*] quantities, zeros
    included. *)

(** {2 Net (message-span) reports}

    The message-level stream of {!Netspan} analyzes into a different
    shape: per-RPC-kind traffic, per-node bandwidth attribution under the
    {!Netspan.wire_bytes} cost model, causal-tree depth, and a
    maintenance-versus-lookup byte split where every forwarding hop and
    reply is attributed to the {e root} kind of its causal tree. The
    analyzer also audits the stream — duplicate span ids (per ctx),
    parents that were never recorded (impossible under root-keyed
    sampling, so any occurrence is a producer bug), drops naming
    unknown spans, and declared ["bytes"] that are non-positive or
    inconsistent within a kind (the {!Netspan.wire_bytes} cost model is
    a function of the kind alone) all count into [violations]. Lines
    without a ["bytes"] field — pre-bytes-field traces — fall back to
    the analyzer's own cost model and are not audited. *)

type kind_stat = {
  k_kind : string;  (** {!Netspan.kind_name} *)
  k_count : int;
  k_lat_mean_ms : float;  (** link latency of this kind's messages *)
  k_lat_max_ms : float;
}

type class_stat = {
  c_class : string;  (** ["maint"], ["lookup"], ["join"], ["store"] or ["other"] *)
  c_msgs : int;
  c_bytes : int;  (** nominal wire bytes ({!Netspan.wire_bytes}) *)
  c_byte_share : float;  (** shares sum to 1 over the five classes *)
}

type band_node = { b_node : int; b_msgs : int; b_bytes : int; b_byte_share : float }

type net_report = {
  n_events : int;
  n_violations : int;
  n_msgs : int;  (** msg events (excludes drops) *)
  n_roots : int;  (** causal trees — parentless spans *)
  n_drops_dead : int;
  n_drops_loss : int;
  n_depth_mean : float;  (** mean causal depth over all messages *)
  n_depth_max : float;
  n_kinds : kind_stat list;  (** declaration order, zero-count kinds omitted *)
  n_lat_hist : Stats.Histogram.t;  (** 25 ms bins over 0..2000 *)
  n_classes : class_stat list;  (** maint, lookup, join, store, other — fixed order *)
  n_nodes : int;  (** nodes seen as sender or receiver *)
  n_senders : int;  (** nodes that sent at least one message *)
  n_gini : float;  (** of per-node sent bytes over [n_nodes] *)
  n_imbalance : float;  (** max / mean sent bytes over [n_nodes] *)
  n_top : band_node list;  (** top-k senders by bytes, descending *)
}

val net_report : t -> net_report option
(** [None] when no msg/drop event was fed (then use {!report}). *)

val net_report_text : net_report -> string

val net_report_json : net_report -> string
(** Deterministic single-line JSON, ["schema":"hieras-netspan"]
    (DESIGN.md §14). The closing ["gated"] list ({!Gate}) holds
    violations, drops, mean causal depth, bandwidth gini and imbalance,
    the class byte shares and every kind's message count, zeros
    included. *)
