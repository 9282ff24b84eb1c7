(* The canonical golden-trace scenario, shared by the regression test
   (test/test_obs.ml) and the regeneration tool (gen_golden.exe):

     dune exec test/support/gen_golden.exe > test/golden/trace_ts64.jsonl
     dune exec test/support/gen_golden.exe -- --report \
       > test/golden/report_ts64.json

   A fixed-seed 64-node Transit-Stub network replays its 12-request stream
   (Runner.requests) through both Chord and HIERAS (Runner.run) with a
   JSONL tracer attached. Any change to routing decisions, latency
   accounting, hop ordering or the trace schema changes these bytes — which
   is the point: such changes must be made (and reviewed) explicitly, by
   regenerating the file. The golden report is the analyzer's JSON rendering
   of the same trace, pinning the analysis schema and arithmetic too. *)

module Config = Experiments.Config
module Runner = Experiments.Runner

let cfg =
  let c = Config.paper_default in
  let c = Config.with_nodes c 64 in
  let c = Config.with_requests c 12 in
  let c = Config.with_landmarks c 4 in
  Config.with_seed c 2003

let build_trace () =
  let buf = Buffer.create 8192 in
  ignore (Runner.run ~trace:(Obs.Trace.jsonl (Buffer.add_string buf)) cfg);
  Buffer.contents buf

(* the analyzer's JSON report over the golden trace, newline-terminated *)
let build_report () =
  let an = Obs.Analyze.create () in
  String.split_on_char '\n' (build_trace ()) |> List.iter (Obs.Analyze.feed_line an);
  Obs.Analyze.report_json (Obs.Analyze.report an) ^ "\n"

(* The golden resilience report: the same 64-node scenario traced through a
   single 30% crash point of the resilience experiment, rendered as the
   analyzer's JSON report. Pins the fault draw, both route_resilient paths
   (retry/fallback/layer-escape decisions and penalty arithmetic) and the
   recover section of the analysis schema in one artifact — and, being a
   trace-report, it is directly comparable with `analyze compare`. *)
let build_resilience () =
  let buf = Buffer.create 8192 in
  let tr = Obs.Trace.jsonl (Buffer.add_string buf) in
  ignore (Experiments.Resilience.run ~trace:tr ~fractions:[ 0.3 ] ~kind:Experiments.Resilience.Crash cfg);
  let an = Obs.Analyze.create () in
  String.split_on_char '\n' (Buffer.contents buf) |> List.iter (Obs.Analyze.feed_line an);
  Obs.Analyze.report_json (Obs.Analyze.report an) ^ "\n"

(* The golden soak results: a short two-factor churn soak over a 24-node
   pool, rendered as the single-line soak JSON. Pins the churn/fault/probe
   draws, both message-level protocols' maintenance behaviour, the
   convergence detector's bookkeeping and the soak result schema — any
   change to protocol message flow or stability accounting moves these
   bytes. *)
let soak_spec =
  {
    Experiments.Soak.default_spec with
    Experiments.Soak.pool = 24;
    initial = 8;
    horizon_ms = 20_000.0;
    factors = [ 0.5; 1.0 ];
  }

let build_soak () =
  Experiments.Soak.results_json (Experiments.Soak.run soak_spec) ^ "\n"

(* The golden soak variants: the soak spec at one factor with the paths the
   plain soak golden never reaches — adaptive maintenance backoff, three
   HIERAS layers (so the ring-maintenance core runs three times per node)
   and a mid-horizon crash killing part of the pool (so the anchor
   re-join, expunge and split-ring healing paths fire). Any change to the
   protocols' message or timer order moves these bytes. *)
let soak_variants_spec =
  {
    soak_spec with
    Experiments.Soak.factors = [ 1.0 ];
    adaptive = true;
    depth = 3;
    fault = Some Experiments.Resilience.Crash;
  }

let build_soak_variants () =
  Experiments.Soak.results_json (Experiments.Soak.run soak_variants_spec) ^ "\n"

(* The golden netspan trace: a shrunk single-factor soak (10 s horizon)
   with message-level span recording at a 10% root-keyed sample rate. Pins
   the span schema, the RPC kind taxonomy at every send site of both
   protocols, the causal parent threading, and the deterministic sampler —
   any change to protocol message flow, kind labels or the sampling hash
   moves these bytes. Byte-identical for any --jobs (per-cell buffers,
   fixed merge order), which test_netspan.ml separately enforces. *)
let netspan_spec =
  {
    soak_spec with
    Experiments.Soak.horizon_ms = 10_000.0;
    factors = [ 1.0 ];
    net_sample = Some 0.1;
  }

let build_netspan () = Experiments.Soak.net_trace (Experiments.Soak.run netspan_spec)

(* The golden scale results: the million-node scale experiment shrunk to 64
   nodes, every lookup cross-checked against the full simulated route,
   rendered as the deterministic single-line results JSON. Pins the packed
   network builders (finger-arena pack and the id-prefix acceleration), the
   analytic routing walk of both algorithms, the chunk-seeded request
   stream, and the scale result schema — and it is byte-identical for any
   --jobs by construction, which CI separately enforces at 10^5 lookups. *)
let scale_spec =
  {
    Experiments.Scale.default_spec with
    Experiments.Scale.nodes = 64;
    requests = 256;
    landmarks = 4;
    depth = 3;
    cross_check = 256;
  }

let build_scale () =
  Experiments.Scale.results_json (Experiments.Scale.run scale_spec) ^ "\n"

(* The golden cache results: a shrunk storage scenario — 16-node pool, 12
   objects, 120 zipf requests, replication 2 and 3, a spaced fault killing
   a quarter of the pool — rendered as the single-line cache JSON. Pins
   the replicated store's put/replicate/repair flows, the per-node cache
   tier's hit/evict arithmetic, the zipf stream draw, the fault schedule
   and the cache result schema for both message protocols — byte-identical
   for any --jobs, which test_store.ml and the cram suite enforce. *)
let cache_spec =
  {
    Experiments.Cache.default_spec with
    Experiments.Cache.pool = 16;
    objects = 12;
    requests = 120;
    replication = [ 2; 3 ];
    fault = Experiments.Cache.Spaced;
    fault_frac = 0.25;
  }

let build_cache () =
  Experiments.Cache.results_json (Experiments.Cache.run cache_spec) ^ "\n"

(* The golden tournament matrix: every substrate (Chord, Pastry, CAN,
   Tapestry) flat and HIERAS-layered on the canonical 64-node scenario with
   200 requests, rendered as the deterministic single-line tournament JSON.
   Pins all eight routing implementations' hop/latency/stretch arithmetic,
   the shared crash/outage liveness draws and the tournament schema at once
   — byte-identical for any --jobs by construction, which the cram test and
   CI separately enforce. *)
let tournament_cfg = Config.with_requests cfg 200

let build_tournament () =
  Experiments.Tournament.results_json (Experiments.Tournament.run tournament_cfg) ^ "\n"
