(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4), printing measured values side by side with the
   paper's reported numbers, then probes the latency oracle and runs bechamel
   micro-benchmarks of the core operations.

     dune exec bench/main.exe                 full paper scale (~4 min)
     dune exec bench/main.exe -- --scale 0.05 quick smoke run
     dune exec bench/main.exe -- --only fig4  one experiment
     dune exec bench/main.exe -- --no-micro   skip the bechamel section
     dune exec bench/main.exe -- --large      add the 10^6-node packed-network
                                              micro entries [chord|hieras]-lookup-1e6
                                              (µs/op + peak RSS; ~40 s extra)
     dune exec bench/main.exe -- --no-ext     skip the extensions section
     dune exec bench/main.exe -- --jobs 8     run on 8 domains (0 = all cores;
                                              results are identical for any
                                              --jobs value)
     dune exec bench/main.exe -- --json       also write BENCH_<label>.json
                                              (figure wall-times, oracle stats,
                                              metrics snapshot, micro ns/op)
                                              for the perf trajectory
     dune exec bench/main.exe -- --metrics    print the metrics-registry
                                              snapshot (runner, oracle, pool)
     dune exec bench/main.exe -- --trace-out t.jsonl
                                              write a structured JSONL trace
                                              of a 200-lookup batch on a
                                              512-node network
     dune exec bench/main.exe -- --timings    print the hierarchical phase
                                              profile (per figure: topology,
                                              binning, builds, lookup replay)
     dune exec bench/main.exe -- --folded f.txt
                                              write flamegraph-ready folded
                                              stacks of the phase profile *)

let scale = ref 1.0
let only = ref None
let micro = ref true
let large = ref false
let ext = ref true
let csv_dir = ref None
let seed = ref 2003
let jobs = ref 1
let json = ref false
let label = ref None
let metrics_flag = ref false
let trace_out = ref None
let timings_flag = ref false
let folded_out = ref None

(* one registry for the whole bench run: the runner, oracle and pool exports
   land here, --metrics prints it and --json embeds it *)
let registry = Obs.Metrics.create ()

(* one phase profiler for the whole run (real only under --timings/--folded,
   so the default bench keeps the disabled-timer cost) *)
let timer = ref Obs.Timer.disabled

let () =
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--only" :: v :: rest ->
        only := Some v;
        parse rest
    | "--no-micro" :: rest ->
        micro := false;
        parse rest
    | "--large" :: rest ->
        large := true;
        parse rest
    | "--no-ext" :: rest ->
        ext := false;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--jobs" :: v :: rest ->
        jobs := int_of_string v;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | "--label" :: v :: rest ->
        label := Some v;
        parse rest
    | "--metrics" :: rest ->
        metrics_flag := true;
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        parse rest
    | "--timings" :: rest ->
        timings_flag := true;
        parse rest
    | "--folded" :: v :: rest ->
        folded_out := Some v;
        parse rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        parse rest
    | arg :: _ ->
        prerr_endline ("bench: unknown argument " ^ arg);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let bench_cfg () =
  let c = Experiments.Config.paper_default in
  let c = Experiments.Config.with_seed c !seed in
  if !scale = 1.0 then c else Experiments.Config.scaled c !scale

(* ------------------------------------------------------------------ *)
(* Part 1: every table and figure                                      *)
(* ------------------------------------------------------------------ *)

(* per-figure wall time plus GC allocation deltas (minor/major words promoted
   while the figure ran); top_heap_words is the process high-water mark when
   the figure finished — a running max, deterministic for a fixed figure
   order *)
type fig_timing = {
  fig_id : string;
  seconds : float;
  minor_words : float;
  major_words : float;
  top_heap_words : int;
}

let run_figures pool =
  let cfg = bench_cfg () in
  Printf.printf "HIERAS reproduction — paper experiment harness\n";
  Printf.printf "configuration: %s (scale %.3f, %d worker domain%s)\n\n"
    (Format.asprintf "%a" Experiments.Config.pp cfg)
    !scale (Parallel.Pool.jobs pool)
    (if Parallel.Pool.jobs pool = 1 then "" else "s");
  let emit sections =
    Experiments.Report.print_all sections;
    match !csv_dir with
    | None -> ()
    | Some dir ->
        List.iter
          (fun s -> ignore (Experiments.Report.write_csv s ~dir))
          sections
  in
  let timings = ref [] in
  let timed id f =
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    Obs.Timer.span !timer id (fun () -> emit (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    timings :=
      {
        fig_id = id;
        seconds = dt;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_words = g1.Gc.major_words -. g0.Gc.major_words;
        top_heap_words = g1.Gc.top_heap_words;
      }
      :: !timings
  in
  (match !only with
  | Some id -> (
      match Experiments.Figures.by_id id with
      | Some f -> timed id (fun () -> f ~pool ~timer:!timer cfg)
      | None ->
          prerr_endline
            ("bench: unknown experiment id " ^ id ^ "; known: "
            ^ String.concat " " Experiments.Figures.ids);
          exit 2)
  | None ->
      (* the paired generators emit both figures of each pair *)
      List.iter
        (fun id ->
          match Experiments.Figures.by_id id with
          | Some f -> timed id (fun () -> f ~pool ~timer:!timer cfg)
          | None -> ())
        [ "table1"; "table2"; "fig2"; "fig4"; "fig6"; "fig8" ]);
  List.rev !timings

let run_extensions pool =
  let cfg =
    let c = bench_cfg () in
    (* the algorithm comparison builds six networks: run it at a quarter of
       the headline size so the whole bench stays a few minutes *)
    Experiments.Config.scaled c 0.25
  in
  print_newline ();
  print_endline "=== extensions: beyond the paper's figures ===";
  Printf.printf "configuration: %s\n\n" (Format.asprintf "%a" Experiments.Config.pp cfg);
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Obs.Timer.span !timer "extensions" (fun () ->
      Experiments.Report.print_all (Experiments.Extensions.all ~pool cfg));
  let dt = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    fig_id = "extensions";
    seconds = dt;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
    top_heap_words = g1.Gc.top_heap_words;
  }

(* ------------------------------------------------------------------ *)
(* Part 2: latency-oracle instrumentation                              *)
(* ------------------------------------------------------------------ *)

(* Replays a bounded request stream against a fresh env so the oracle stats
   reflect exactly which rows a real workload touches, then hand-times a
   cold-row fill (one single-source Dijkstra per first touch) against a warm
   memoized query on a fresh lazy oracle over the same topology. *)
let oracle_probe pool =
  let cfg = bench_cfg () in
  let cfg =
    Experiments.Config.with_requests cfg (min cfg.Experiments.Config.requests 10_000)
  in
  let env, hnet =
    Obs.Timer.span !timer "oracle-probe" (fun () ->
        let env = Experiments.Runner.build_env ~pool ~timer:!timer cfg in
        let hnet = Experiments.Runner.build_hieras ~timer:!timer env cfg in
        ignore (Experiments.Runner.measure ~pool ~registry ~timer:!timer env hnet cfg);
        (env, hnet))
  in
  (* packed-network footprint at the probe's scale: the figures' networks are
     freed figure-by-figure, so this pair is the one that can land in the
     report and registry *)
  let chord_bytes = Chord.Network.bytes_resident (Hieras.Hnetwork.chord hnet) in
  let hieras_bytes = Hieras.Hnetwork.bytes_resident hnet in
  Obs.Metrics.set (Obs.Metrics.gauge registry "bench.chord.bytes_resident")
    (float_of_int chord_bytes);
  Obs.Metrics.set (Obs.Metrics.gauge registry "bench.hieras.bytes_resident")
    (float_of_int hieras_bytes);
  let lat = Experiments.Runner.latency_oracle env in
  Topology.Latency.export_metrics lat registry;
  let st = Topology.Latency.stats lat in
  let n = Topology.Latency.hosts lat in
  let fresh =
    Topology.Latency.create ~backend:Topology.Latency.Lazy
      ~router_graph:(Topology.Latency.router_graph lat)
      ~host_router:(Array.init n (Topology.Latency.router_of_host lat))
      ~host_access:(Array.init n (Topology.Latency.access_delay lat))
      ()
  in
  let nr = Topology.Latency.routers fresh in
  let t0 = Unix.gettimeofday () in
  for r = 0 to nr - 1 do
    ignore (Topology.Latency.router_latency fresh r 0)
  done;
  let cold = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int nr in
  let reps = 2_000_000 in
  let acc = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to reps - 1 do
    acc := !acc +. Topology.Latency.router_latency fresh (i mod nr) ((i * 7) mod nr)
  done;
  let warm = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps in
  ignore !acc;
  print_newline ();
  print_endline "=== latency oracle ===";
  Printf.printf "  backend          %s\n" st.Topology.Latency.backend;
  Printf.printf "  routers          %d\n" st.Topology.Latency.routers;
  Printf.printf "  rows computed    %d\n" st.Topology.Latency.rows_computed;
  Printf.printf "  row hits         %d\n" st.Topology.Latency.row_hits;
  Printf.printf "  resident         %d bytes\n" st.Topology.Latency.resident_bytes;
  Printf.printf "  cold row fill    %.1f ns/row (lazy first touch, single-source Dijkstra)\n"
    cold;
  Printf.printf "  warm row query   %.1f ns/op\n" warm;
  Printf.printf "  chord resident   %d bytes (packed, %d nodes)\n" chord_bytes
    (Chord.Network.size (Hieras.Hnetwork.chord hnet));
  Printf.printf "  hieras resident  %d bytes (packed, depth %d)\n" hieras_bytes
    (Hieras.Hnetwork.depth hnet);
  ( st,
    [ ("oracle-lazy-cold-row", cold); ("oracle-lazy-warm-row", warm) ],
    (chord_bytes, hieras_bytes) )

(* ------------------------------------------------------------------ *)
(* Part 2b: structured lookup tracing (--trace-out)                    *)
(* ------------------------------------------------------------------ *)

(* A bounded traced batch on a dedicated mid-size network, so the JSONL
   artifact stays small whatever the bench scale. Lookup latencies also feed
   registry histograms — the only place the bench exercises that series
   kind. *)
let traced_batch pool path =
  Obs.Timer.span !timer "traced-batch" @@ fun () ->
  let rng = Prng.Rng.create ~seed:(!seed + 13) in
  let n = 512 in
  let lat = Topology.Model.build ~pool Topology.Model.Transit_stub ~hosts:n rng in
  let space = Hashid.Id.sha1_space in
  let chord = Chord.Network.build ~space ~hosts:(Array.init n (fun i -> i)) () in
  let lm = Binning.Landmark.choose_spread lat ~count:4 rng in
  let hnet = Hieras.Hnetwork.build ~chord ~lat ~landmarks:lm ~depth:2 () in
  let chord_hist = Obs.Metrics.histogram registry "bench.trace.chord.latency_ms" in
  let hieras_hist = Obs.Metrics.histogram registry "bench.trace.hieras.latency_ms" in
  let lookups = Obs.Metrics.counter registry "bench.trace.lookups" in
  let oc = open_out path in
  let events = ref 0 in
  let tr =
    Obs.Trace.jsonl (fun line ->
        incr events;
        output_string oc line)
  in
  for _ = 1 to 200 do
    let key = Hashid.Id.random space rng in
    let origin = Prng.Rng.int rng n in
    let rc = Chord.Lookup.route ~trace:tr chord lat ~origin ~key in
    let rh = Hieras.Hlookup.route ~trace:tr hnet ~origin ~key in
    Obs.Metrics.incr lookups;
    Obs.Metrics.observe chord_hist rc.Chord.Lookup.latency;
    Obs.Metrics.observe hieras_hist rh.Hieras.Hlookup.latency
  done;
  close_out oc;
  Printf.printf "\nwrote %s (%d trace events, 200 paired lookups on %d nodes)\n" path !events n

(* ------------------------------------------------------------------ *)
(* Part 3: bechamel micro-benchmarks of the core operations            *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let micro_state pool =
  (* one medium network shared by the routing benchmarks *)
  let rng = Prng.Rng.create ~seed:11 in
  let n = 2000 in
  let lat = Topology.Model.build ~pool Topology.Model.Transit_stub ~hosts:n rng in
  let space = Hashid.Id.sha1_space in
  let chord = Chord.Network.build ~space ~hosts:(Array.init n (fun i -> i)) () in
  let lm = Binning.Landmark.choose_spread lat ~count:6 rng in
  let hnet = Hieras.Hnetwork.build ~chord ~lat ~landmarks:lm ~depth:2 () in
  let keys = Array.init 4096 (fun _ -> Hashid.Id.random space rng) in
  let origins = Array.init 4096 (fun _ -> Prng.Rng.int rng n) in
  (lat, chord, hnet, keys, origins)

(* An engine holding 20,000 pending far-future events at distinct times,
   so that each measured send -> deliver pays for pushing into and taking
   from a heap of realistic depth. They are god events: timers of one delay
   would wait in one lane, leaving the heap empty. *)
let engine_event_state () =
  let eng = Simnet.Engine.create ~latency:(fun _ _ -> 1.0) ~nodes:2 in
  for i = 1 to 20_000 do
    Simnet.Engine.schedule eng ~delay:(1e15 +. float_of_int i) ignore
  done;
  eng

(* One request, its reply and its timeout, which the reply cancels: the
   three events the run takes are the request, the reply and the cancelled
   timeout, which waits in its lane beside the 20,000 heap events *)
let engine_rpc eng =
  let pending = ref Simnet.Engine.no_timer in
  Simnet.Engine.send eng ~kind:Obs.Netspan.Other ~src:0 ~dst:1 (fun () ->
      Simnet.Engine.send eng ~kind:Obs.Netspan.Other ~src:1 ~dst:0 (fun () ->
          ignore (Simnet.Engine.settle eng pending)));
  pending :=
    Simnet.Engine.timer eng ~node:0 ~delay:10.0 (fun () ->
        ignore (Simnet.Engine.settle eng pending));
  Simnet.Engine.run ~max_events:3 eng

let micro_tests pool =
  let lat, chord, hnet, keys, origins = micro_state pool in
  let eng = engine_event_state () in
  let counter = ref 0 in
  let next () =
    counter := (!counter + 1) land 4095;
    !counter
  in
  let space = Hashid.Id.sha1_space in
  let payload = String.make 512 'x' in
  [
    Test.make ~name:"sha1-512B" (Staged.stage (fun () -> ignore (Hashid.Sha1.digest payload)));
    Test.make ~name:"id-add-pow2"
      (Staged.stage (fun () ->
           let i = next () in
           ignore (Hashid.Id.add_pow2 space keys.(i) (i land 127))));
    Test.make ~name:"chord-lookup-2000"
      (Staged.stage (fun () ->
           let i = next () in
           ignore (Chord.Lookup.route_hops_only chord ~origin:origins.(i) ~key:keys.(i))));
    Test.make ~name:"chord-lookup-latency-2000"
      (Staged.stage (fun () ->
           let i = next () in
           ignore (Chord.Lookup.route chord lat ~origin:origins.(i) ~key:keys.(i))));
    Test.make ~name:"hieras-lookup-2000"
      (Staged.stage (fun () ->
           let i = next () in
           ignore (Hieras.Hlookup.route hnet ~origin:origins.(i) ~key:keys.(i))));
    Test.make ~name:"host-latency-query"
      (Staged.stage (fun () ->
           let i = next () in
           ignore (Topology.Latency.host_latency lat origins.(i) origins.((i + 1) land 4095))));
    Test.make ~name:"engine-event-20k"
      (Staged.stage (fun () ->
           Simnet.Engine.send eng ~kind:Obs.Netspan.Other ~src:0 ~dst:1 ignore;
           Simnet.Engine.run ~max_events:1 eng));
    Test.make ~name:"engine-rpc-20k" (Staged.stage (fun () -> engine_rpc eng));
  ]

(* shared bechamel OLS loop; [print] renders one estimate (always collected
   as ns/op in the results) *)
let ols_run ~print tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let results = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              print name est;
              results := (name, est) :: !results
          | _ -> Printf.printf "  %-28s (no estimate)\n" name)
        analyzed)
    tests;
  List.rev !results

let run_micro pool =
  Obs.Timer.span !timer "micro" @@ fun () ->
  print_newline ();
  print_endline "=== micro-benchmarks (bechamel) ===";
  ols_run
    ~print:(fun name est -> Printf.printf "  %-28s %12.1f ns/op\n" name est)
    (micro_tests pool)

(* The 10^6-node packed-network entries (--large): analytic lookups against
   Scale-built networks. At this scale an op costs tens of µs, so the
   estimates print as µs/op; peak RSS after both builds rides along — the
   acceptance numbers of DESIGN.md §12. *)
let run_large_micro () =
  Obs.Timer.span !timer "micro-1e6" @@ fun () ->
  print_newline ();
  print_endline "=== micro-benchmarks: 10^6-node packed networks (--large) ===";
  let spec = Experiments.Scale.{ default_spec with requests = 0; seed = !seed } in
  let chord, hnet = Experiments.Scale.networks spec in
  let n = Chord.Network.size chord in
  let space = Chord.Network.space chord in
  let rng = Prng.Rng.create ~seed:(!seed + 29) in
  let keys = Array.init 4096 (fun _ -> Hashid.Id.random space rng) in
  let origins = Array.init 4096 (fun _ -> Prng.Rng.int rng n) in
  let counter = ref 0 in
  let next () =
    counter := (!counter + 1) land 4095;
    !counter
  in
  let tests =
    [
      Test.make ~name:"chord-lookup-1e6"
        (Staged.stage (fun () ->
             let i = next () in
             ignore (Chord.Lookup.route_hops_only chord ~origin:origins.(i) ~key:keys.(i))));
      Test.make ~name:"hieras-lookup-1e6"
        (Staged.stage (fun () ->
             let i = next () in
             ignore (Hieras.Hlookup.route_hops_only hnet ~origin:origins.(i) ~key:keys.(i))));
    ]
  in
  let results =
    ols_run
      ~print:(fun name est -> Printf.printf "  %-28s %12.2f us/op\n" name (est /. 1e3))
      tests
  in
  Printf.printf "  %-28s %12d KiB\n" "peak-rss" (Experiments.Scale.peak_rss_kb ());
  results

(* ------------------------------------------------------------------ *)
(* JSON trajectory output                                              *)
(* ------------------------------------------------------------------ *)

let write_json ~jobs ~figures ~oracle ~memory ~micro_results =
  let cfg = bench_cfg () in
  let label = match !label with Some l -> l | None -> Printf.sprintf "s%g_j%d" !scale jobs in
  let path = Printf.sprintf "BENCH_%s.json" label in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"hieras-bench\",\n";
  add "  \"label\": \"%s\",\n" (Obs.Jsonu.escape label);
  add "  \"timestamp\": %.0f,\n" (Unix.time ());
  add "  \"config\": {\n";
  add "    \"scale\": %g,\n" !scale;
  add "    \"jobs\": %d,\n" jobs;
  add "    \"seed\": %d,\n" !seed;
  add "    \"nodes\": %d,\n" cfg.Experiments.Config.nodes;
  add "    \"requests\": %d\n" cfg.Experiments.Config.requests;
  add "  },\n";
  add "  \"figures\": [\n";
  List.iteri
    (fun i ft ->
      add
        "    {\"id\": \"%s\", \"seconds\": %.3f, \"minor_words\": %.0f, \"major_words\": %.0f, \
         \"top_heap_words\": %d}%s\n"
        (Obs.Jsonu.escape ft.fig_id) ft.seconds ft.minor_words ft.major_words ft.top_heap_words
        (if i = List.length figures - 1 then "" else ","))
    figures;
  add "  ],\n";
  let st = (oracle : Topology.Latency.stats) in
  add "  \"oracle\": {\n";
  add "    \"backend\": \"%s\",\n" (Obs.Jsonu.escape st.Topology.Latency.backend);
  add "    \"routers\": %d,\n" st.Topology.Latency.routers;
  add "    \"rows_computed\": %d,\n" st.Topology.Latency.rows_computed;
  add "    \"row_hits\": %d,\n" st.Topology.Latency.row_hits;
  add "    \"resident_bytes\": %d\n" st.Topology.Latency.resident_bytes;
  add "  },\n";
  (* packed-network footprint + whole-run allocation totals; only the
     footprint is gated: the totals include the bechamel section (iteration
     counts are time-dependent) and peak_rss_kb is machine-dependent *)
  let chord_bytes, hieras_bytes = memory in
  let g = Gc.quick_stat () in
  add "  \"memory\": {\n";
  add "    \"chord_bytes_resident\": %d,\n" chord_bytes;
  add "    \"hieras_bytes_resident\": %d,\n" hieras_bytes;
  add "    \"gc_minor_words\": %.0f,\n" g.Gc.minor_words;
  add "    \"gc_major_words\": %.0f,\n" g.Gc.major_words;
  add "    \"gc_top_heap_words\": %d,\n" g.Gc.top_heap_words;
  add "    \"peak_rss_kb\": %d\n" (Experiments.Scale.peak_rss_kb ());
  add "  },\n";
  add "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      add "    {\"name\": \"%s\", \"ns_per_op\": %.2f}%s\n" (Obs.Jsonu.escape name) ns
        (if i = List.length micro_results - 1 then "" else ","))
    micro_results;
  add "  ],\n";
  add "  \"metrics\": %s,\n" (Obs.Metrics.to_json (Obs.Metrics.snapshot registry));
  (* gated at the precision printed above, so the list agrees with the body *)
  let printed fmt x = float_of_string (Printf.sprintf fmt x) in
  let m = Obs.Gate.metric in
  let gated =
    List.map (fun (name, ns) -> m ("micro." ^ name ^ ".ns_per_op") "ns" (printed "%.2f" ns)) micro_results
    @ List.concat_map
        (fun ft ->
          let fig name = m ("figure." ^ ft.fig_id ^ "." ^ name) in
          [
            fig "seconds" "s" (printed "%.3f" ft.seconds);
            fig "minor_words" "words" (printed "%.0f" ft.minor_words);
            fig "major_words" "words" (printed "%.0f" ft.major_words);
            fig "top_heap_words" "words" (float_of_int ft.top_heap_words);
          ])
        figures
    @ [
        m "memory.chord_bytes_resident" "bytes" (float_of_int chord_bytes);
        m "memory.hieras_bytes_resident" "bytes" (float_of_int hieras_bytes);
      ]
  in
  add "  \"gated\": %s\n" (Obs.Gate.to_json gated);
  add "}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let () =
  if !timings_flag || !folded_out <> None then
    timer := Obs.Timer.create ~clock:Unix.gettimeofday;
  let jobs = if !jobs <= 0 then Parallel.Pool.default_jobs () else !jobs in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let fig_times = run_figures pool in
      let fig_times =
        if !ext && !only = None then fig_times @ [ run_extensions pool ] else fig_times
      in
      let oracle_stats, oracle_micro, memory = oracle_probe pool in
      (match !trace_out with Some path -> traced_batch pool path | None -> ());
      let micro_results =
        (if !micro && !only = None then run_micro pool else [])
        @ (if !large then run_large_micro () else [])
        @ oracle_micro
      in
      Parallel.Pool.export_metrics pool registry;
      if Obs.Timer.enabled !timer then Obs.Timer.export_metrics !timer registry;
      if !timings_flag then begin
        print_newline ();
        print_endline "=== phase profile ===";
        print_string (Obs.Timer.to_text !timer)
      end;
      (match !folded_out with
      | None -> ()
      | Some path ->
          Out_channel.with_open_text path (fun oc -> output_string oc (Obs.Timer.folded !timer));
          Printf.printf "\nwrote folded stacks to %s\n" path);
      if !metrics_flag then begin
        print_newline ();
        print_endline "=== metrics ===";
        print_string (Obs.Metrics.to_text (Obs.Metrics.snapshot registry))
      end;
      if !json then
        write_json ~jobs ~figures:fig_times ~oracle:oracle_stats ~memory ~micro_results)
