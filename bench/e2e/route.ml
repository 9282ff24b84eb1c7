(* route-paper and route-scale: paired analytic lookups, closed loop, one
   caller. Each request is routed by Chord and by HIERAS from the same
   origin to the same key (a paired lookup counts as two ops); both must
   end at the key's owner as [Chord.Network.successor_of_key] computes it.

   The measured phase cycles over a fixed request stream in slices until
   the run's seconds are up, and always completes at least one full pass.
   Every pass writes the same per-request results into the same slots, so
   the simulated metrics are exact functions of the seed however long the
   run lasts. *)

module L = Layers

(* [Config.paper_default]'s seed: topology and overlays never change with
   [--seed], so set-up is identical across seeds. *)
let topo_seed = 2003
let depth = 2
let n_landmarks = 4

type env = {
  lat : L.latency;
  chord : L.chord_net;
  hnet : L.hieras_net;
  landmarks : L.landmarks;
  origins : int array;
  keys : L.id array;
  owner : int array;  (** oracle owner of each request's key *)
}

(* The request stream: uniform origin, uniform SHA-1 key, from the seed. *)
let with_stream ctx ~count ~lat ~chord ~hnet ~landmarks =
  let r = L.rng ctx.Run.seed in
  let n = L.chord_size chord in
  let reqs =
    Array.init count (fun _ ->
        let o = L.rand_int r n in
        (o, L.random_key L.sha1_space r))
  in
  let keys = Array.map snd reqs in
  let owner = Spans.span ctx.Run.spans "chord.owner_oracle" (fun () -> Array.map (L.chord_owner chord) keys) in
  { lat; chord; hnet; landmarks; origins = Array.map fst reqs; keys; owner }

(* The paper's set-up, built by the library's own experiment driver;
   [timer] splits the build time by layer. *)
let paper_env ctx ~timer ~hosts ~count =
  let lat, chord, hnet = L.paper_networks ~hosts ~timer in
  with_stream ctx ~count ~lat ~chord ~hnet ~landmarks:(L.hieras_landmarks hnet)

(* The driver's phases as the layers' build spans; its "hieras-build"
   includes the landmark measurement of every node. *)
let paper_phase_spans ctx timer =
  List.iter
    (fun (phase, count, total_s) ->
      let name =
        match phase with
        | "topology" -> "topology.generate"
        | "chord-build" -> "chord.build"
        | "binning" -> "binning.choose"
        | "hieras-build" -> "hieras.build"
        | other -> "experiments." ^ other
      in
      Spans.add ctx.Run.spans name ~count ~total_s)
    (L.phases timer)

(* [Experiments.Scale]'s synthetic single-router environment, with its
   formulas: a host's access delay and landmark vector are pure functions
   of (seed, host), so these are the networks [Scale.networks] builds. *)
let host_rng host ~salt = L.rng (topo_seed + salt + (host * 2654435761))

let scale_env ctx ~nodes ~count =
  let sp = ctx.Run.spans in
  let lat =
    Spans.span sp "topology.generate" (fun () ->
        L.star_topology ~access:(Array.init nodes (fun h -> 0.1 +. L.rand_float (host_rng h ~salt:17) 5.0)))
  in
  let chord =
    Spans.span sp "chord.build" (fun () ->
        L.chord_build ~hosts:(Array.init nodes Fun.id) ~succ_list_len:8
          ~salt:(Printf.sprintf "scale-%d" topo_seed))
  in
  let landmarks = Spans.span sp "binning.choose" (fun () -> L.router_landmarks ~count:n_landmarks) in
  let measure ~host =
    Spans.span sp "binning.measure" (fun () ->
        let r = host_rng host ~salt:71 in
        Array.init n_landmarks (fun _ -> L.rand_float r 200.0))
  in
  let hnet = Spans.span sp "hieras.build" (fun () -> L.hieras_build ~chord ~lat ~landmarks ~depth ~measure) in
  with_stream ctx ~count ~lat ~chord ~hnet ~landmarks

(* Per-request results, one slot per stream position. *)
type slots = {
  lat_c : float array;
  lat_h : float array;
  lat_low : float array;  (** HIERAS latency on layers >= 2 *)
  hops_c : int array;
  hops_h : int array;
  low_h : int array;  (** HIERAS hops on layers >= 2 *)
  fin_low : Bytes.t;  (** '\001' when HIERAS finished below the global ring *)
}

let slots n =
  {
    lat_c = Array.make n 0.0;
    lat_h = Array.make n 0.0;
    lat_low = Array.make n 0.0;
    hops_c = Array.make n 0;
    hops_h = Array.make n 0;
    low_h = Array.make n 0;
    fin_low = Bytes.make n '\000';
  }

(* Traced-slice accumulators of one algorithm's route calls. *)
type per_algo = { mutable words : float; mutable calls : int; mutable ns : int; durations : Meter.Samples.t }

let per_algo () = { words = 0.0; calls = 0; ns = 0; durations = Meter.Samples.create () }
let duration_cap = 200_000

type state = { env : env; s : slots; mutable misrouted : int; tc : per_algo; th : per_algo }

let state env =
  { env; s = slots (Array.length env.origins); misrouted = 0; tc = per_algo (); th = per_algo () }

let check st i ~dc ~dh =
  if dc <> st.env.owner.(i) || dh <> st.env.owner.(i) then st.misrouted <- st.misrouted + 1

(* One traced call: a span around it, its wall ns and minor words. *)
let timed sp pa ~name ~req f =
  Spans.enter sp name ~req;
  let w0 = Meter.minor_words () in
  let t0 = Meter.now_ns () in
  let r = f () in
  let t1 = Meter.now_ns () in
  pa.words <- pa.words +. (Meter.minor_words () -. w0);
  Spans.leave sp;
  pa.calls <- pa.calls + 1;
  pa.ns <- pa.ns + (t1 - t0);
  if Meter.Samples.count pa.durations < duration_cap then
    Meter.Samples.add pa.durations (float_of_int (t1 - t0));
  r

(* ---- route-paper: full simulated routes through the latency oracle ----- *)

let record_full st i rc rh =
  let s = st.s in
  check st i ~dc:(L.chord_dest rc) ~dh:(L.hieras_dest rh);
  s.lat_c.(i) <- L.chord_latency rc;
  s.lat_h.(i) <- L.hieras_latency rh;
  s.hops_c.(i) <- L.chord_hops rc;
  s.hops_h.(i) <- L.hieras_hops rh;
  s.low_h.(i) <- L.hieras_hops rh - (L.hieras_hops_per_layer rh).(0);
  s.lat_low.(i) <- L.hieras_latency rh -. (L.hieras_latency_per_layer rh).(0);
  Bytes.set s.fin_low i (if L.hieras_finished_at rh >= 2 then '\001' else '\000')

let paper_slice st sp ~traced lo hi =
  let e = st.env in
  for i = lo to hi - 1 do
    let origin = e.origins.(i) and key = e.keys.(i) in
    if traced then begin
      let rc = timed sp st.tc ~name:"chord.route" ~req:i (fun () -> L.chord_route e.chord e.lat ~origin ~key) in
      let rh = timed sp st.th ~name:"hieras.route" ~req:i (fun () -> L.hieras_route e.hnet ~origin ~key) in
      record_full st i rc rh
    end
    else record_full st i (L.chord_route e.chord e.lat ~origin ~key) (L.hieras_route e.hnet ~origin ~key)
  done

(* ---- route-scale: hop-only walks over the packed arenas, no oracle ----- *)

let record_hops st i (hc, dc) (hh, per, dh, fin) =
  let s = st.s in
  check st i ~dc ~dh;
  s.hops_c.(i) <- hc;
  s.hops_h.(i) <- hh;
  s.low_h.(i) <- hh - per.(0);
  Bytes.set s.fin_low i (if fin >= 2 then '\001' else '\000')

let scale_slice st sp scratch ~traced lo hi =
  let e = st.env in
  for i = lo to hi - 1 do
    let origin = e.origins.(i) and key = e.keys.(i) in
    if traced then begin
      let c = timed sp st.tc ~name:"chord.route" ~req:i (fun () -> L.chord_hops_only e.chord ~origin ~key) in
      let h =
        timed sp st.th ~name:"hieras.route" ~req:i (fun () -> L.hieras_hops_only ~into:scratch e.hnet ~origin ~key)
      in
      record_hops st i c h
    end
    else
      record_hops st i (L.chord_hops_only e.chord ~origin ~key) (L.hieras_hops_only ~into:scratch e.hnet ~origin ~key)
  done

(* ---- the measured phase ------------------------------------------------ *)

(* Slices of the stream, cycled until [seconds] are up and one full pass is
   done. A traced run alternates traced and untraced slices, which gives
   the tracing overhead on identical work; its per-layer numbers come from
   the traced slices. *)
let measured ctx out st ~slice_len slice =
  let n = Array.length st.env.origins in
  let sp = ctx.Run.spans in
  let traced_run = Run.traced ctx in
  let plain = ref [] and with_spans = ref [] in
  let pos = ref 0 and passes = ref 0 and k = ref 0 and ops = ref 0 in
  let w0 = Meter.minor_words () in
  let t_start = Meter.now_ns () in
  while !passes = 0 || Meter.since_s t_start < ctx.Run.seconds do
    let lo = !pos in
    let hi = min n (lo + slice_len) in
    let traced = traced_run && !k mod 2 = 0 in
    let t0 = Meter.now_ns () in
    if traced then Spans.span sp "bench.slice" (fun () -> slice ~traced lo hi) else slice ~traced lo hi;
    let dt = Meter.since_s t0 in
    let pair_ops = 2 * (hi - lo) in
    if traced then with_spans := (pair_ops, dt) :: !with_spans else plain := (pair_ops, dt) :: !plain;
    ops := !ops + pair_ops;
    incr k;
    if hi = n then begin
      incr passes;
      pos := 0
    end
    else pos := hi
  done;
  let words = Meter.minor_words () -. w0 in
  out.Run.attempted <- !ops;
  if st.misrouted > 0 then Run.problem out "%d routes did not end at the key's owner" st.misrouted;
  out.Run.failed <- st.misrouted;
  Run.throughput out (if traced_run then !with_spans else !plain);
  Run.metric out "alloc_words_per_op" "words" (words /. float_of_int !ops);
  Run.note out "measured %d ops in %d slices (%d full passes over %d requests)" !ops !k !passes n;
  if traced_run then
    Run.metric out "bench.trace_overhead" "ratio" ((Run.median_rate !plain /. Run.median_rate !with_spans) -. 1.0)

(* ---- reporting --------------------------------------------------------- *)

let hop_metrics out s =
  let n = Array.length s.hops_c in
  let hops_h = Meter.mean_int s.hops_h n and low = Meter.mean_int s.low_h n in
  Run.metric out "chord.hops_mean" "hops" (Meter.mean_int s.hops_c n);
  Run.metric out "hieras.hops_mean" "hops" hops_h;
  Run.metric out "hieras.lower_hops_share" "ratio" (low /. hops_h);
  Run.metric out "hieras.layer1.hops_mean" "hops" (hops_h -. low);
  Run.metric out "hieras.layer2.hops_mean" "hops" low;
  let fin = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr fin) s.fin_low;
  Run.metric out "hieras.finished_at_layer2_share" "ratio" (float_of_int !fin /. float_of_int n)

(* Layer build times per set-up (the state is built [Run.setups] times). *)
let build_metrics ctx out =
  let sp = ctx.Run.spans in
  let per_setup s = s /. float_of_int Run.setups in
  Run.metric out "topology.generate_s" "s" (per_setup (Spans.total_s sp "topology.generate"));
  Run.metric out "binning.choose_s" "s"
    (per_setup (Spans.total_s sp "binning.choose" +. Spans.total_s sp "binning.measure"));
  Run.metric out "chord.build_s" "s" (per_setup (Spans.total_s sp "chord.build"));
  Run.metric out "hieras.build_s" "s" (per_setup (Spans.self_s sp "hieras.build"))

let algo_metrics out st =
  List.iter
    (fun (algo, pa) ->
      let s = Meter.Samples.sorted pa.durations in
      Run.metric out (algo ^ ".us_per_op") "us" (float_of_int pa.ns /. float_of_int pa.calls /. 1000.0);
      Run.metric out (algo ^ ".alloc_words_per_op") "words" (pa.words /. float_of_int pa.calls);
      Run.metric out (algo ^ ".route_ns_p50") "ns" (Meter.percentile s 0.5);
      Run.metric out (algo ^ ".route_ns_p999") "ns" (Meter.percentile s 0.999))
    [ ("chord", st.tc); ("hieras", st.th) ]

(* The latency oracle on the host pairs the workload queried: the hops of
   the first [m] requests, replayed. *)
let oracle_metrics out env ~m =
  let pairs = ref [] in
  for i = 0 to min m (Array.length env.origins) - 1 do
    let origin = env.origins.(i) and key = env.keys.(i) in
    pairs :=
      L.chord_hop_pairs (L.chord_route env.chord env.lat ~origin ~key)
      @ L.hieras_hop_pairs (L.hieras_route env.hnet ~origin ~key)
      @ !pairs
  done;
  let a = Array.of_list (List.map (fun (x, y) -> (L.chord_host env.chord x, L.chord_host env.chord y)) !pairs) in
  let sink = ref 0.0 in
  let reps =
    List.init 15 (fun _ ->
        snd (Meter.time (fun () -> Array.iter (fun (x, y) -> sink := !sink +. L.host_latency env.lat x y) a)))
  in
  Run.metric out "topology.latency_ns" "ns" (Meter.median reps *. 1e9 /. float_of_int (Array.length a));
  Run.note out "topology.latency_ns: %d host pairs x 15 replays (checksum %.1f)" (Array.length a) !sink

(* [Obs.Trace] on vs off: blocks of full routes over the first [m]
   requests, alternating a ring-buffer tracer with the disabled one. *)
let lib_trace_metrics out env ~m =
  let m = min m (Array.length env.origins) in
  let block = max 1 (m / 20) in
  let ring = L.trace_ring 4096 in
  let run_block ?trace lo =
    snd
      (Meter.time (fun () ->
           for i = lo to min m (lo + block) - 1 do
             let origin = env.origins.(i) and key = env.keys.(i) in
             ignore (L.chord_route ?trace env.chord env.lat ~origin ~key);
             ignore (L.hieras_route ?trace env.hnet ~origin ~key)
           done))
  in
  let ratios = ref [] and lo = ref 0 in
  while !lo < m do
    let off = run_block !lo in
    let on = run_block ~trace:ring !lo in
    ratios := (on /. off) :: !ratios;
    lo := !lo + block
  done;
  Run.metric out "obs.lib_trace_overhead" "ratio" (Meter.median !ratios -. 1.0)

(* ---- the workloads ----------------------------------------------------- *)

let route_paper ctx out =
  let hosts, count, slice_len, check_n =
    if ctx.Run.quick then (600, 4_000, 1_000, 1_000) else (10_000, 200_000, 25_000, 20_000)
  in
  let timer =
    if Run.traced ctx then L.phase_timer ~clock:(fun () -> float_of_int (Meter.now_ns ()) *. 1e-9)
    else L.no_phase_timer
  in
  let env = Run.repeated_setup out (fun () -> paper_env ctx ~timer ~hosts ~count) in
  paper_phase_spans ctx timer;
  let st = state env in
  measured ctx out st ~slice_len (paper_slice st ctx.Run.spans);
  Run.latency_metrics out ~algo:"chord" st.s.lat_c;
  Run.latency_metrics out ~algo:"hieras" st.s.lat_h;
  hop_metrics out st.s;
  let sum a = Array.fold_left ( +. ) 0.0 a in
  Run.metric out "hieras.layer2.sim_ms_share" "ratio" (sum st.s.lat_low /. sum st.s.lat_h);
  Run.metric out "peak_rss_mb" "MiB" (Meter.peak_rss_mb ());
  (* Hieras.Make (Chord.Routable) against the native walk, hop for hop *)
  let m, build_s =
    Meter.time (fun () ->
        Spans.span ctx.Run.spans "hieras_make.build" (fun () ->
            L.make_build ~chord:env.chord ~lat:env.lat ~landmarks:env.landmarks ~depth))
  in
  let a = Array.make depth 0 and b = Array.make depth 0 in
  let mismatches = ref 0 in
  let t_make = Meter.Samples.create () and t_native = Meter.Samples.create () in
  for i = 0 to min check_n count - 1 do
    let origin = env.origins.(i) and key = env.keys.(i) in
    let t0 = Meter.now_ns () in
    let hn, _, dn, fn = L.hieras_hops_only ~into:a env.hnet ~origin ~key in
    let t1 = Meter.now_ns () in
    let hm, _, dm, fm = L.make_route_hops ~into:b m ~origin ~key in
    let t2 = Meter.now_ns () in
    Meter.Samples.add t_native (float_of_int (t1 - t0));
    Meter.Samples.add t_make (float_of_int (t2 - t1));
    if hn <> hm || dn <> dm || fn <> fm || a <> b then incr mismatches
  done;
  if !mismatches > 0 then Run.problem out "hieras_make: %d hop mismatches against the native walk" !mismatches;
  Run.metric out "hieras_make.hop_mismatches" "count" (float_of_int !mismatches);
  Run.metric out "hieras_make.build_s" "s" build_s;
  Run.metric out "hieras_make.route_ns_p50" "ns" (Meter.percentile (Meter.Samples.sorted t_make) 0.5);
  Run.metric out "hieras_make.native_route_ns_p50" "ns" (Meter.percentile (Meter.Samples.sorted t_native) 0.5);
  if Run.traced ctx then begin
    build_metrics ctx out;
    algo_metrics out st;
    oracle_metrics out env ~m:2_000;
    lib_trace_metrics out env ~m:check_n;
    Run.metric out "topology.rows_computed" "count" (float_of_int (L.oracle_rows_computed env.lat));
    Run.metric out "topology.resident_bytes" "bytes" (float_of_int (L.oracle_resident_bytes env.lat));
    Run.metric out "chord.bytes_resident" "bytes" (float_of_int (L.chord_bytes env.chord));
    Run.metric out "hieras.bytes_resident" "bytes" (float_of_int (L.hieras_bytes env.hnet))
  end

let route_scale ctx out =
  let nodes, count, slice_len, replay_n =
    if ctx.Run.quick then (3_000, 4_000, 1_000, 1_000) else (200_000, 100_000, 10_000, 20_000)
  in
  let env = Run.repeated_setup out (fun () -> scale_env ctx ~nodes ~count) in
  let st = state env in
  let scratch = Array.make depth 0 in
  measured ctx out st ~slice_len (scale_slice st ctx.Run.spans scratch);
  hop_metrics out st.s;
  Run.metric out "peak_rss_mb" "MiB" (Meter.peak_rss_mb ());
  (* the simulated latency: the leading requests replayed through the full
     routes, which must repeat the hop-only walks exactly *)
  let replay_n = min replay_n count in
  let lat_c = Array.make replay_n 0.0 and lat_h = Array.make replay_n 0.0 in
  let mismatches = ref 0 in
  for i = 0 to replay_n - 1 do
    let origin = env.origins.(i) and key = env.keys.(i) in
    let rc = L.chord_route env.chord env.lat ~origin ~key in
    let rh = L.hieras_route env.hnet ~origin ~key in
    if
      L.chord_hops rc <> st.s.hops_c.(i)
      || L.hieras_hops rh <> st.s.hops_h.(i)
      || L.chord_dest rc <> env.owner.(i)
      || L.hieras_dest rh <> env.owner.(i)
    then incr mismatches;
    lat_c.(i) <- L.chord_latency rc;
    lat_h.(i) <- L.hieras_latency rh
  done;
  if !mismatches > 0 then Run.problem out "%d full routes disagree with the hop-only walk" !mismatches;
  Run.latency_metrics out ~algo:"chord" lat_c;
  Run.latency_metrics out ~algo:"hieras" lat_h;
  if Run.traced ctx then begin
    build_metrics ctx out;
    algo_metrics out st;
    oracle_metrics out env ~m:2_000;
    lib_trace_metrics out env ~m:replay_n;
    Run.metric out "chord.bytes_resident" "bytes" (float_of_int (L.chord_bytes env.chord));
    Run.metric out "hieras.bytes_resident" "bytes" (float_of_int (L.hieras_bytes env.hnet))
  end
