(* What kv-zipf and churn-maint share: a Transit-Stub pool, one engine per
   protocol, the bring-up of the initial members, the slice loop of the
   measured phase and the end-of-run drain with the engine's conservation
   check. *)

module L = Layers

(* Topology, landmarks and the initial membership never change with
   [--seed]: set-up is identical across seeds. *)
let topo_seed = 2003
let n_landmarks = 4
let depth = 2

(* The bring-up of [Experiments.Soak]/[Cache] (joins through node 0, then
   15 s of quiet stabilization), with joins 200 ms apart instead of 400:
   256 members converge to the same rings in half the time. *)
let join_spacing_ms = 200.0
let settle_ms = 15_000.0

(* Latency-oracle calls made by one engine, and a prefix of the queried
   host pairs, replayed afterwards to time the oracle (traced runs). *)
type probe = { mutable calls : int; pa : int array; pb : int array; mutable n : int }

type net = { p : L.proto; eng : L.engine; probe : probe; ns : L.netspan; traffic : L.traffic }

let pairs_cap = 100_000

let engine ctx lat ~nodes =
  let cap = if Run.traced ctx then pairs_cap else 0 in
  let probe = { calls = 0; pa = Array.make cap 0; pb = Array.make cap 0; n = 0 } in
  let latency =
    if Run.traced ctx then (fun a b ->
      probe.calls <- probe.calls + 1;
      if probe.n < cap then begin
        probe.pa.(probe.n) <- a;
        probe.pb.(probe.n) <- b;
        probe.n <- probe.n + 1
      end;
      L.host_latency lat a b)
    else L.host_latency lat
  in
  (L.engine_create ~latency ~nodes, probe)

type pool = { lat : L.latency; chord : net; hieras : net }

(* Both protocols on one pool, [members] nodes joined and converged. *)
let bring_up ctx out ~hosts ~members ~succ_list_len ~rpc_timeout =
  let sp = ctx.Run.spans in
  let lat = Spans.span sp "topology.generate" (fun () -> L.pool_topology ~hosts ~seed:topo_seed) in
  let landmarks =
    Spans.span sp "binning.choose" (fun () -> L.choose_landmarks lat ~count:n_landmarks ~seed:(topo_seed + 5))
  in
  let start make =
    let eng, probe = engine ctx lat ~nodes:hosts in
    let p = make eng in
    Spans.span sp (p.L.name ^ ".build") (fun () ->
        p.L.spawn 0;
        for i = 1 to members - 1 do
          L.engine_schedule eng ~delay:(float_of_int i *. join_spacing_ms) (fun () -> p.L.join ~addr:i ~bootstrap:0)
        done;
        L.engine_run eng ~until:((float_of_int members *. join_spacing_ms) +. settle_ms);
        let limit = L.engine_now eng +. 300_000.0 in
        while (not (p.L.converged ())) && L.engine_now eng < limit do
          L.engine_run eng ~until:(L.engine_now eng +. 1_000.0)
        done);
    if not (p.L.converged ()) then Run.problem out "%s: ring did not converge during set-up" p.L.name;
    let live = List.length (p.L.live ()) in
    if live <> members then Run.problem out "%s: %d of %d members joined" p.L.name live members;
    { p; eng; probe; ns = L.netspan_counter (); traffic = L.traffic () }
  in
  let chord = start (L.chord_proto ~succ_list_len ~rpc_timeout) in
  let hieras = start (L.hieras_proto ~succ_list_len ~rpc_timeout ~depth ~lat ~landmarks) in
  { lat; chord; hieras }

(* ---- the measured phase ------------------------------------------------ *)

(* A traced run cycles its slices through three modes on identical work:
   0 untraced, 1 benchmark spans on, 2 the library's message counter
   ([Obs.Netspan]) attached. Mode 0 against 1 and 2 gives the two tracing
   overheads; per-layer times come from mode 1 and message counts from
   mode 2. An untraced run stays in mode 0. *)
type slice = {
  j : int;
  mode : int;
  side : string;
  ops : int;
  wall : float;
  words : float;
  oracle_calls : int;  (** latency-oracle queries (counted in traced runs) *)
}

let mode_of ctx j = if Run.traced ctx then j mod 3 else 0

(* Advance both engines slice by slice from slice [first]: [issue j net
   ~until] schedules slice [j]'s requests, then the engine runs to
   [until]. [completed net] counts finished requests. Stops once [stop j
   elapsed] holds. [mode] overrides the traced run's cycle; mode 3 traces
   every message into the net's traffic analyzer. *)
let slices ?(first = 0) ?mode ctx nets ~slice_ms ~issue ~completed ~stop =
  let sp = ctx.Run.spans in
  let bases = List.map (fun n -> (n, L.engine_now n.eng)) nets in
  let recs = ref [] and j = ref first in
  let t_start = Meter.now_ns () in
  while not (stop !j (Meter.since_s t_start)) do
    let mode = match mode with Some m -> m | None -> mode_of ctx !j in
    List.iter
      (fun (n, base) ->
        let until = base +. (float_of_int (!j - first + 1) *. slice_ms) in
        issue !j n ~until;
        if mode = 2 then L.engine_attach_netspan n.eng n.ns;
        if mode = 3 then L.engine_attach_netspan n.eng n.traffic.L.tracer;
        let c0 = completed n and w0 = Meter.minor_words () and q0 = n.probe.calls in
        let t0 = Meter.now_ns () in
        let run () = L.engine_run n.eng ~until in
        if mode = 1 then Spans.span sp "simnet.run" run else Spans.paused sp run;
        let wall = Meter.since_s t0 in
        let words = Meter.minor_words () -. w0 in
        L.engine_detach_netspan n.eng;
        recs :=
          {
            j = !j;
            mode;
            side = n.p.L.name;
            ops = completed n - c0;
            wall;
            words;
            oracle_calls = n.probe.calls - q0;
          }
          :: !recs)
      bases;
    incr j
  done;
  List.rev !recs

(* Traced runs, once the measured phase is over: [count] more slices of the
   same request stream, from slice [first], with every message traced, so
   that the library's analyzer splits the traffic by the class of each
   message's causal root (maintenance, lookup, join, store). Trees begun
   before the block count as "other". *)
let attribute ctx nets ~slice_ms ~issue ~completed ~first ~count =
  ignore (slices ~first ~mode:3 ctx nets ~slice_ms ~issue ~completed ~stop:(fun j _ -> j >= first + count))

(* Both engines' ops and wall seconds, per slice index. *)
let pairs recs ~mode =
  let js = List.sort_uniq compare (List.filter_map (fun r -> if r.mode = mode then Some r.j else None) recs) in
  List.map
    (fun j ->
      let rs = List.filter (fun r -> r.j = j) recs in
      (List.fold_left (fun a r -> a + r.ops) 0 rs, List.fold_left (fun a r -> a +. r.wall) 0.0 rs))
    js

let pair_rate recs ~mode = Run.median_rate (pairs recs ~mode)

let sum f recs = List.fold_left (fun a r -> a +. f r) 0.0 recs

(* The slice count at which the loop first found every window request
   finished, and the peak resident set then. A run simulates on until its
   seconds are up, and the membership, with it the heap and the
   maintenance work per request, keeps changing; the window's end is the
   same point of the simulation in every run of a seed, so [peak_rss_mb]
   and [alloc_words_per_op] are taken there. *)
type window_end = { mutable slices : int; mutable rss : float }

let window_end () = { slices = -1; rss = nan }

let note_window_end w ~j ~complete =
  if complete && w.slices < 0 then begin
    w.slices <- j;
    w.rss <- Meter.peak_rss_mb ()
  end

(* End-to-end throughput from all untraced slices, allocation and memory
   up to the window's end (an unfinished window is reported as a problem;
   the whole run stands in). *)
let e2e_metrics out recs (w : window_end) =
  let within r = w.slices < 0 || r.j < w.slices in
  let plain = List.filter (fun r -> r.mode = 0 && within r) recs in
  Run.throughput out (pairs recs ~mode:0);
  Run.metric out "alloc_words_per_op" "words"
    (sum (fun r -> r.words) plain /. sum (fun r -> float_of_int r.ops) plain);
  Run.metric out "peak_rss_mb" "MiB" (if w.slices < 0 then Meter.peak_rss_mb () else w.rss)

(* Per-layer metrics of a traced run. [live_mean] is each side's mean
   membership over the measured phase. *)
let layer_metrics ctx out (pool : pool) recs ~slice_ms ~live_mean =
  let sp = ctx.Run.spans in
  let per_setup s = s /. float_of_int Run.setups in
  Run.metric out "topology.generate_s" "s" (per_setup (Spans.total_s sp "topology.generate"));
  Run.metric out "binning.choose_s" "s" (per_setup (Spans.total_s sp "binning.choose"));
  let r0 = pair_rate recs ~mode:0 in
  Run.metric out "bench.trace_overhead" "ratio" ((r0 /. pair_rate recs ~mode:1) -. 1.0);
  Run.metric out "obs.lib_trace_overhead" "ratio" ((r0 /. pair_rate recs ~mode:2) -. 1.0);
  List.iter
    (fun n ->
      let algo = n.p.L.name in
      Run.metric out (algo ^ ".build_s") "s" (per_setup (Spans.total_s sp (algo ^ ".build")));
      let mine m = List.filter (fun r -> r.side = algo && r.mode = m) recs in
      let traced = mine 1 in
      let ops = sum (fun r -> float_of_int r.ops) traced in
      Run.metric out (algo ^ ".us_per_op") "us" (sum (fun r -> r.wall) traced *. 1e6 /. ops);
      Run.metric out (algo ^ ".alloc_words_per_op") "words" (sum (fun r -> r.words) traced /. ops);
      let all = List.filter (fun r -> r.side = algo) recs in
      Run.metric out
        (Printf.sprintf "topology.%s.latency_calls_per_op" algo)
        "count"
        (sum (fun r -> float_of_int r.oracle_calls) all /. sum (fun r -> float_of_int r.ops) all);
      (* the library's exact per-kind counters over the mode-2 slices *)
      let counted = mine 2 in
      let node_s = live_mean algo *. float_of_int (List.length counted) *. slice_ms /. 1000.0 in
      List.iter
        (fun (kind, c) ->
          if c > 0 then Run.metric out (Printf.sprintf "msgs.%s.%s_per_node_s" algo kind) "1/s" (float_of_int c /. node_s))
        (L.netspan_counts n.ns);
      (* the traffic split by causal root, from the attribution block *)
      let classes = L.traffic_classes n.traffic in
      let total = List.fold_left (fun a (_, c) -> a + c) 0 classes in
      if total > 0 then
        List.iter
          (fun (cls, c) ->
            Run.metric out (Printf.sprintf "msgs.%s.%s_share" algo cls) "ratio" (float_of_int c /. float_of_int total))
          classes)
    [ pool.chord; pool.hieras ];
  (* the latency oracle on the host pairs both engines queried *)
  let a = pool.chord.probe and b = pool.hieras.probe in
  let sink = ref 0.0 in
  let sweep (p : probe) = for i = 0 to p.n - 1 do sink := !sink +. L.host_latency pool.lat p.pa.(i) p.pb.(i) done in
  let reps = List.init 15 (fun _ -> snd (Meter.time (fun () -> sweep a; sweep b))) in
  Run.metric out "topology.latency_ns" "ns" (Meter.median reps *. 1e9 /. float_of_int (a.n + b.n));
  Run.note out "topology.latency_ns: %d host pairs x 15 replays (checksum %.1f)" (a.n + b.n) !sink

(* Engine-level metrics of one side over the measured phase, from counter
   deltas ([c0] at its start, [c1] at its end). *)
let engine_metrics out ~algo ~(c0 : L.counters) ~(c1 : L.counters) ~wall ~sim_s ~live_mean =
  let d f = float_of_int (f c1 - f c0) in
  let node_s = live_mean *. sim_s in
  let prefix = "simnet." ^ algo in
  Run.metric out (prefix ^ ".events_per_s") "1/s"
    ((d (fun c -> c.L.delivered) +. d (fun c -> c.L.timers_fired) +. d (fun c -> c.L.dropped_dead)) /. wall);
  Run.metric out (prefix ^ ".sent_per_node_s") "1/s" (d (fun c -> c.L.sent) /. node_s);
  Run.metric out (prefix ^ ".timers_per_node_s") "1/s" (d (fun c -> c.L.timers_set) /. node_s);
  let sent = d (fun c -> c.L.sent) in
  Run.metric out (prefix ^ ".dropped_dead_share") "ratio" (d (fun c -> c.L.dropped_dead) /. sent);
  Run.metric out (prefix ^ ".dropped_loss_share") "ratio" (d (fun c -> c.L.dropped_loss) /. sent);
  Run.metric out (algo ^ ".msgs_per_node_s") "1/s" (sent /. node_s)

(* Stop every node, let in-flight messages and timers land on the dead,
   then check the engine's conservation law:
   sent + timers_set = delivered + timers_fired + dropped_dead + dropped_loss. *)
let drain_and_check out net ~hosts =
  for a = 0 to hosts - 1 do
    L.engine_kill net.eng a
  done;
  L.engine_run net.eng ~until:(L.engine_now net.eng +. 60_000.0);
  let c = L.counters net.eng in
  let lhs = c.L.sent + c.L.timers_set
  and rhs = c.L.delivered + c.L.timers_fired + c.L.dropped_dead + c.L.dropped_loss in
  if lhs <> rhs then
    Run.problem out "%s engine conservation: sent %d + timers_set %d <> delivered %d + timers_fired %d + dropped_dead %d + dropped_loss %d"
      net.p.L.name c.L.sent c.L.timers_set c.L.delivered c.L.timers_fired c.L.dropped_dead c.L.dropped_loss
