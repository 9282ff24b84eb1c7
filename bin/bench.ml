(* The ledger behind `hieras_sim bench`: what the paper harness records
   beyond the sections `all` prints. It reruns the six figure runs (table1,
   table2 and the four figure pairs), noting each one's wall time and GC
   words; probes the latency oracle on a fresh network; and times the core
   operations with bechamel. [to_json] writes the whole ledger as one
   hieras-bench artifact whose gated list holds only the counts that repeat
   from run to run. *)

open Bechamel
open Toolkit

(* One figure run's wall time and the words it allocated in the minor heap
   and in the major heap (promotions included); [top_heap_words] is the
   process high-water mark when it finished, a running maximum over the
   fixed figure order. *)
type figure = {
  id : string;
  seconds : float;
  minor_words : float;
  major_words : float;
  top_heap_words : int;
}

type micro = { name : string; ns_per_op : float; r_square : float option }

(* the oracle probe's network: its oracle, two hand-timed oracle queries and
   the packed footprints of its overlays *)
type probe = {
  oracle : Topology.Latency.stats;
  cold_row_ns : float;
  warm_row_ns : float;
  nodes : int;
  depth : int;
  chord_bytes : int;
  hieras_bytes : int;
}

type t = { figures : figure list; probe : probe; micros : micro list }

(* the paired generators print both figures of each pair *)
let figure_ids = [ "table1"; "table2"; "fig2"; "fig4"; "fig6"; "fig8" ]

(* On OCaml 5.1, [Gc.quick_stat]'s word counts advance only when a
   collection runs, and [Gc.counters]' minor words count the words
   allocated since the last one as an eighth; [Gc.minor_words] and
   [Gc.counters]' major words are exact. *)
let major_words () =
  let _, _, w = Gc.counters () in
  w

let run_figure ~pool ~timer cfg id =
  let generate = Option.get (Experiments.Figures.by_id id) in
  let minor0 = Gc.minor_words () and major0 = major_words () in
  let t0 = Unix.gettimeofday () in
  Obs.Timer.span timer id (fun () ->
      Experiments.Report.print_all (generate ~pool ~timer cfg));
  let seconds = Unix.gettimeofday () -. t0 in
  let minor1 = Gc.minor_words () and major1 = major_words () in
  {
    id;
    seconds;
    minor_words = minor1 -. minor0;
    major_words = major1 -. major0;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

(* ---- latency-oracle probe ---------------------------------------------- *)

(* Replays up to 10,000 requests on a fresh env, so the oracle stats show
   which rows a workload touches, then hand-times a cold-row fill (one
   single-source Dijkstra per first touch) against a warm memoized query on
   a fresh lazy oracle over the same routers. The figures free their
   networks one by one, so this pair is the footprint the ledger keeps. *)
let oracle_probe ~pool ?registry ~timer cfg =
  let cfg =
    Experiments.Config.with_requests cfg (min cfg.Experiments.Config.requests 10_000)
  in
  let env, hnet =
    Obs.Timer.span timer "oracle-probe" (fun () ->
        let env = Experiments.Runner.build_env ~pool ~timer cfg in
        let hnet = Experiments.Runner.build_hieras ~timer env cfg in
        ignore (Experiments.Runner.measure ~pool ?registry ~timer env hnet cfg);
        (env, hnet))
  in
  let chord = Hieras.Hnetwork.chord hnet in
  let chord_bytes = Chord.Network.bytes_resident chord in
  let hieras_bytes = Hieras.Hnetwork.bytes_resident hnet in
  let lat = Experiments.Runner.latency_oracle env in
  Option.iter
    (fun reg ->
      let g name v = Obs.Metrics.set (Obs.Metrics.gauge reg name) (float_of_int v) in
      g "bench.chord.bytes_resident" chord_bytes;
      g "bench.hieras.bytes_resident" hieras_bytes;
      Topology.Latency.export_metrics lat reg)
    registry;
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
  let cold_row_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int nr in
  let reps = 2_000_000 in
  let acc = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to reps - 1 do
    acc := !acc +. Topology.Latency.router_latency fresh (i mod nr) ((i * 7) mod nr)
  done;
  let warm_row_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps in
  ignore (Sys.opaque_identity !acc);
  {
    oracle = Topology.Latency.stats lat;
    cold_row_ns;
    warm_row_ns;
    nodes = Chord.Network.size chord;
    depth = Hieras.Hnetwork.depth hnet;
    chord_bytes;
    hieras_bytes;
  }

(* ---- bechamel micro-benchmarks ------------------------------------------ *)

(* The 2,000-node network the routing micros walk, with the 4,096 keys and
   origins they cycle through. *)
type net = {
  lat : Topology.Latency.t;
  chord : Chord.Network.t;
  hnet : Hieras.Hnetwork.t;
  keys : Hashid.Id.t array;
  origins : int array;
  mutable i : int;
}

let space = Hashid.Id.sha1_space

let net ~pool () =
  let rng = Prng.Rng.create ~seed:11 in
  let n = 2000 in
  let lat = Topology.Model.build ~pool Topology.Model.Transit_stub ~hosts:n rng in
  let chord = Chord.Network.build ~space ~hosts:(Array.init n (fun i -> i)) () in
  let lm = Binning.Landmark.choose_spread lat ~count:6 rng in
  let hnet = Hieras.Hnetwork.build ~chord ~lat ~landmarks:lm ~depth:2 () in
  let keys = Array.init 4096 (fun _ -> Hashid.Id.random space rng) in
  let origins = Array.init 4096 (fun _ -> Prng.Rng.int rng n) in
  { lat; chord; hnet; keys; origins; i = 0 }

let next s =
  s.i <- (s.i + 1) land 4095;
  s.i

(* An engine holding 20,000 pending far-future events at distinct times, so
   that each measured send -> deliver pays for pushing into and taking from
   a heap of realistic depth. They are god events: timers of one delay would
   wait in one lane, leaving the heap empty. *)
let engine () =
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

(* Each micro builds its state just before its own run and drops it after,
   so no micro times its GC work over another's live state. *)
let micro_tests ~pool =
  let with_state name allocate f =
    Test.make_with_resource ~name Test.uniq ~allocate ~free:ignore (Staged.stage f)
  in
  let payload = String.make 512 'x' in
  [
    Test.make ~name:"sha1-512B" (Staged.stage (fun () -> ignore (Hashid.Sha1.digest payload)));
    with_state "id-add-pow2"
      (fun () ->
        let rng = Prng.Rng.create ~seed:11 in
        (Array.init 4096 (fun _ -> Hashid.Id.random space rng), ref 0))
      (fun (keys, i) ->
        i := (!i + 1) land 4095;
        ignore (Hashid.Id.add_pow2 space keys.(!i) (!i land 127)));
    with_state "chord-lookup-2000" (net ~pool) (fun s ->
        let i = next s in
        ignore (Chord.Lookup.route_hops_only s.chord ~origin:s.origins.(i) ~key:s.keys.(i)));
    with_state "chord-lookup-latency-2000" (net ~pool) (fun s ->
        let i = next s in
        ignore (Chord.Lookup.route s.chord s.lat ~origin:s.origins.(i) ~key:s.keys.(i)));
    with_state "hieras-lookup-2000" (net ~pool) (fun s ->
        let i = next s in
        ignore (Hieras.Hlookup.route s.hnet ~origin:s.origins.(i) ~key:s.keys.(i)));
    with_state "host-latency-query" (net ~pool) (fun s ->
        let i = next s in
        ignore (Topology.Latency.host_latency s.lat s.origins.(i) s.origins.((i + 1) land 4095)));
    with_state "engine-event-20k" engine (fun eng ->
        Simnet.Engine.send eng ~kind:Obs.Netspan.Other ~src:0 ~dst:1 ignore;
        Simnet.Engine.run ~max_events:1 eng);
    with_state "engine-rpc-20k" engine engine_rpc;
  ]

(* One OLS fit of time against runs per micro. No kernel density estimate:
   nothing reads it, and it would allocate a micro's state once per sample.
   Bechamel compacts the heap once, after allocating a micro's state;
   [~stabilize:false] keeps it from compacting before every sample too:
   with a 2,000-node network live, that left a 0.5 s quota a few hundred
   samples of at most about 15 runs, so a 10 ns micro timed its clock reads
   and the caches the compactions had cooled (host-latency-query read
   105-141 ns at R² 0.86-0.89, against about 9 ns at R² 0.99). *)
let run_micros ~pool ~timer =
  Obs.Timer.span timer "micro" @@ fun () ->
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false () in
  List.concat_map
    (fun test ->
      let fits = Analyze.all ols Instance.monotonic_clock (Benchmark.all cfg instances test) in
      Hashtbl.fold
        (fun name fit acc ->
          match Analyze.OLS.estimates fit with
          | Some [ ns_per_op ] -> { name; ns_per_op; r_square = Analyze.OLS.r_square fit } :: acc
          | _ -> acc)
        fits [])
    (micro_tests ~pool)

(* ---- the run ------------------------------------------------------------- *)

let section id title headers rows =
  let table = Stats.Text_table.create headers in
  List.iter (Stats.Text_table.add_row table) rows;
  { Experiments.Report.id; title; table; notes = [] }

let run ~pool ?registry ~timer cfg =
  let figures = List.map (run_figure ~pool ~timer cfg) figure_ids in
  let p = oracle_probe ~pool ?registry ~timer cfg in
  let o = p.oracle in
  let micros = run_micros ~pool ~timer in
  let f = Printf.sprintf in
  Experiments.Report.print_all
    [
      section "ledger" "wall time and GC words of each figure run"
        [ "run"; "seconds"; "minor words"; "major words"; "top heap words" ]
        (List.map
           (fun r ->
             [
               r.id;
               f "%.3f" r.seconds;
               f "%.0f" r.minor_words;
               f "%.0f" r.major_words;
               string_of_int r.top_heap_words;
             ])
           figures);
      section "oracle" "latency oracle of a fresh network" [ "quantity"; "value" ]
        [
          [ "backend"; o.Topology.Latency.backend ];
          [ "routers"; string_of_int o.Topology.Latency.routers ];
          [ "rows computed"; string_of_int o.Topology.Latency.rows_computed ];
          [ "row hits"; string_of_int o.Topology.Latency.row_hits ];
          [ "resident bytes"; string_of_int o.Topology.Latency.resident_bytes ];
          [ "cold row fill ns (lazy first touch)"; f "%.1f" p.cold_row_ns ];
          [ "warm row query ns"; f "%.1f" p.warm_row_ns ];
          [ f "chord resident bytes (%d nodes)" p.nodes; string_of_int p.chord_bytes ];
          [ f "hieras resident bytes (depth %d)" p.depth; string_of_int p.hieras_bytes ];
        ];
      section "micro" "bechamel micro-benchmarks" [ "micro"; "ns/op"; "r2" ]
        (List.map
           (fun m ->
             [
               m.name;
               f "%.1f" m.ns_per_op;
               Option.fold ~none:"-" ~some:(f "%.4f") m.r_square;
             ])
           micros);
    ];
  { figures; probe = p; micros }

(* ---- the hieras-bench artifact ------------------------------------------ *)

(* Gated: the counts that repeat across runs and machines with one compiler
   at --jobs 1 (each figure's minor, major and top-heap words; the packed
   footprints). At a wider pool the GC counters see the calling domain
   only. Seconds and ns/op are single wall-clock samples: reported, not
   gated. *)
let gated t =
  let m = Obs.Gate.metric in
  List.concat_map
    (fun r ->
      let fig name = m ("figure." ^ r.id ^ "." ^ name) "words" in
      [
        fig "minor_words" r.minor_words;
        fig "major_words" r.major_words;
        fig "top_heap_words" (float_of_int r.top_heap_words);
      ])
    t.figures
  @ [
      m "memory.chord_bytes_resident" "bytes" (float_of_int t.probe.chord_bytes);
      m "memory.hieras_bytes_resident" "bytes" (float_of_int t.probe.hieras_bytes);
    ]

let to_json ~scale ~jobs cfg t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let list render l =
    String.concat ",\n" (List.map (fun x -> "    " ^ render x) l)
  in
  let n = Obs.Jsonu.number in
  let p = t.probe in
  let o = p.oracle in
  add "{\n  \"schema\": \"hieras-bench\",\n  \"timestamp\": %.0f,\n" (Unix.time ());
  add "  \"config\": {\"scale\": %s, \"jobs\": %d, \"seed\": %d, \"nodes\": %d, \"requests\": %d},\n"
    (n scale) jobs cfg.Experiments.Config.seed cfg.Experiments.Config.nodes
    cfg.Experiments.Config.requests;
  add "  \"figures\": [\n%s\n  ],\n"
    (list
       (fun r ->
         Printf.sprintf
           "{\"id\": \"%s\", \"seconds\": %.3f, \"minor_words\": %.0f, \"major_words\": %.0f, \
            \"top_heap_words\": %d}"
           r.id r.seconds r.minor_words r.major_words r.top_heap_words)
       t.figures);
  add
    "  \"oracle\": {\"backend\": \"%s\", \"routers\": %d, \"rows_computed\": %d, \"row_hits\": \
     %d, \"resident_bytes\": %d, \"cold_row_ns\": %.1f, \"warm_row_ns\": %.1f},\n"
    o.Topology.Latency.backend o.Topology.Latency.routers o.Topology.Latency.rows_computed
    o.Topology.Latency.row_hits o.Topology.Latency.resident_bytes p.cold_row_ns p.warm_row_ns;
  (* the run's GC totals include the micros, whose iteration counts depend
     on time, and peak RSS depends on the machine: reported, not gated *)
  add
    "  \"memory\": {\"chord_bytes_resident\": %d, \"hieras_bytes_resident\": %d, \
     \"gc_minor_words\": %.0f, \"gc_major_words\": %.0f, \"gc_top_heap_words\": %d, \
     \"peak_rss_kb\": %d},\n"
    p.chord_bytes p.hieras_bytes (Gc.minor_words ()) (major_words ())
    (Gc.quick_stat ()).Gc.top_heap_words (Experiments.Scale.peak_rss_kb ());
  add "  \"micro\": [\n%s\n  ],\n"
    (list
       (fun m ->
         Printf.sprintf "{\"name\": \"%s\", \"ns_per_op\": %.2f, \"r_square\": %s}" m.name
           m.ns_per_op
           (Option.fold ~none:"null" ~some:(Printf.sprintf "%.4f") m.r_square))
       t.micros);
  add "  \"gated\": %s\n}" (Obs.Gate.to_json (gated t));
  Buffer.contents buf
