(** The million-node scale experiment: packed networks, analytic lookups.

    Builds a Chord and a HIERAS network over a synthetic single-router
    topology (per-host access delays and landmark vectors are pure functions
    of [(seed, host)], so the build is order-independent) and replays a
    seeded lookup stream through the {e analytic} routing mode
    ({!Chord.Lookup.route_hops_only}, {!Hieras.Hlookup.route_hops_only}) —
    exact hop sequences off the packed representation with no event engine,
    latency oracle or per-hop allocation.

    The stream is sharded over a {!Parallel.Pool} in fixed 8192-request
    chunks, each chunk re-seeded from its global start offset; chunk layout
    and merge order never depend on the pool width, so {!results_json} is
    byte-identical for any [--jobs]. All wall-clock / GC / RSS numbers are
    confined to {!bench_json} (the [BENCH_scale.json] artifact); the
    deterministic results carry structure and distributions only. *)

type spec = {
  nodes : int;  (** >= 2 *)
  requests : int;  (** analytic lookups to replay (>= 0) *)
  landmarks : int;  (** >= 1 *)
  depth : int;  (** HIERAS layers, 2..4 *)
  seed : int;
  cross_check : int;
      (** leading requests additionally replayed through the full simulated
          {!Chord.Lookup.route} / {!Hieras.Hlookup.route} and compared
          hop-for-hop against the analytic walk; [0] disables *)
}

val default_spec : spec
(** 10^6 nodes, 10^6 requests, 4 landmarks, depth 2, seed 2003, no
    cross-check. Chord's successor list has {!Config.succ_list_len} entries,
    which {!results_json} reports as [succ_list_len]. *)

val validate : spec -> (unit, string) result

val chunk_size : int
(** The fixed shard width (8192) — part of the determinism contract. *)

val iter_requests : spec -> f:(int -> origin:int -> key:Hashid.Id.t -> unit) -> unit
(** Stream the request sequence [0 .. requests-1] (chunk-seeded exactly as
    the sharded replay generates it) — for tests and external consumers;
    nothing is materialized. *)

val networks : spec -> Chord.Network.t * Hieras.Hnetwork.t
(** Just the two packed networks over the synthetic topology (no replay) —
    what the bench's [*-lookup-1e6] micro entries route against. Raises
    [Invalid_argument] on an invalid spec. *)

type result = {
  spec : spec;
  ring_counts : int array;  (** rings per layer, index 0 = layer 2 *)
  chord_segments : int;
  hieras_segments : int array;  (** finger-arena length per layer, index 0 = layer 2 *)
  chord_bytes : int;
  hieras_bytes : int;  (** includes the wrapped Chord network *)
  lookups : int;
  chord_hops_mean : float;
  chord_hops_max : float;
  hieras_hops_mean : float;
  hieras_hops_max : float;
  chord_pdf : int array;  (** hop-count histogram, trailing zero bins trimmed *)
  hieras_pdf : int array;
  layer_pdf : int array array;  (** per-layer hop histograms, index 0 = layer 1 *)
  layer_hops_mean : float array;
  finished_at : int array;  (** lookups finishing at each layer, index 0 = layer 1 *)
  dest_match : int;  (** lookups where Chord and HIERAS agree on the owner *)
  cross_checked : int;
  cross_mismatches : int;
  build_chord_s : float;  (** wall-clock (0 unless [?now] given) — bench only *)
  build_hieras_s : float;
  replay_s : float;
  cross_s : float;
  gc_minor_words : float;
  gc_major_words : float;
  gc_top_heap_words : int;
  peak_rss_kb : int;  (** VmHWM from /proc/self/status; 0 when unavailable *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?now:(unit -> float) ->
  spec ->
  result
(** Build both networks, replay the analytic stream sharded over [pool]
    (default sequential), run the cross-check if requested. [now] injects a
    monotonic clock (e.g. [Unix.gettimeofday]) for the wall-clock fields —
    the experiments library itself depends on no clock; default leaves them
    0. [registry] receives [scale.*] counters/gauges. Raises
    [Invalid_argument] on an invalid spec. *)

val results_json : result -> string
(** One line, schema ["hieras-scale"]: structure + analytic distributions
    only — no wall times, no GC, no RSS — byte-identical for any pool width
    and machine. Golden: [test/golden/scale_ts64.json]. It ends with the
    {!Obs.Gate} list: [scale.chord.] and [scale.hieras.] [hops_mean],
    [hops_max] and [bytes_resident], [scale.chord.segments],
    [scale.dest_mismatch_rate] and [scale.cross.mismatches]. *)

val bench_json : ?label:string -> result -> string
(** Schema ["hieras-scale-bench"]: build/replay wall times, µs per lookup,
    GC words, peak RSS, with {!results_json} embedded under ["results"] —
    the [BENCH_scale.json] artifact. It gates the same list as
    {!results_json}, never a wall time. *)

val section : result -> Report.section
(** Human-readable summary table for [hieras_sim scale]. *)

val peak_rss_kb : unit -> int
(** Current process peak resident set in KiB (Linux [VmHWM]; 0 elsewhere). *)
