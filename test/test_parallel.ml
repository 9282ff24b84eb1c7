(* Tests for the domain pool and for the determinism contract of the
   parallel experiment pipeline: any --jobs value must produce bit-identical
   results. *)

module Pool = Parallel.Pool
module Runner = Experiments.Runner
module Config = Experiments.Config
module Summary = Stats.Summary
module Histogram = Stats.Histogram

(* bit-exact float comparison — tolerance 0 would still equate -0.0/0.0 *)
let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_float_array name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri (fun i x -> check_bits (Printf.sprintf "%s.(%d)" name i) x b.(i)) a

(* --- chunking: the fixed layout of map_chunks ---------------------------------- *)

let test_chunks_cover_every_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun (n, chunk_size) ->
          let seen = Array.make n 0 in
          let cs =
            Pool.map_chunks pool ~n ~chunk_size (fun ~lo ~hi ->
                for i = lo to hi - 1 do
                  seen.(i) <- seen.(i) + 1
                done;
                (lo, hi))
          in
          Alcotest.(check int)
            (Printf.sprintf "chunk count n=%d chunk_size=%d" n chunk_size)
            ((n + chunk_size - 1) / chunk_size)
            (List.length cs);
          List.iter (fun (lo, hi) -> Alcotest.(check bool) "non-empty chunk" true (lo < hi)) cs;
          Array.iteri
            (fun i c -> Alcotest.(check int) (Printf.sprintf "index %d covered once" i) 1 c)
            seen;
          (* contiguous: each chunk starts where the previous ended *)
          ignore
            (List.fold_left
               (fun prev (lo, hi) ->
                 Alcotest.(check int) "contiguous" prev lo;
                 hi)
               0 cs))
        [ (0, 4); (1, 4); (3, 8); (4, 4); (5, 4); (7, 3); (8, 3); (100, 7); (17, 17); (64, 1) ])

let test_chunks_validation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let slices n = Pool.map_chunks pool ~n ~chunk_size:3 (fun ~lo ~hi -> (lo, hi)) in
      Alcotest.(check (list (pair int int))) "n = 0" [] (slices 0);
      Alcotest.(check (list (pair int int))) "negative n" [] (slices (-1));
      Alcotest.check_raises "chunk_size 0"
        (Invalid_argument "Pool.map_chunks: chunk_size must be >= 1") (fun () ->
          ignore (Pool.map_chunks pool ~n:5 ~chunk_size:0 (fun ~lo ~hi -> (lo, hi)))))

(* --- pool basics ------------------------------------------------------------ *)

let test_create_validation () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Pool.create: jobs must be >= 1")
    (fun () -> ignore (Pool.create ~jobs:0 ()))

let test_parallel_for_covers_indices () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun n ->
          let seen = Array.make (max n 1) 0 in
          Pool.parallel_for pool ~n (fun i -> seen.(i) <- seen.(i) + 1);
          for i = 0 to n - 1 do
            Alcotest.(check int) (Printf.sprintf "n=%d index %d once" n i) 1 seen.(i)
          done;
          if n = 0 then Alcotest.(check int) "n=0 runs nothing" 0 seen.(0))
        [ 0; 1; 2; 3; 4; 5; 100; 1000 ])

let test_parallel_for_fewer_items_than_jobs () =
  Pool.with_pool ~jobs:8 (fun pool ->
      let seen = Array.make 3 0 in
      Pool.parallel_for pool ~n:3 (fun i -> seen.(i) <- seen.(i) + 1);
      Alcotest.(check (list int)) "each once" [ 1; 1; 1 ] (Array.to_list seen))

let test_map_chunks_order_and_layout () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let slices = Pool.map_chunks pool ~n:10 ~chunk_size:3 (fun ~lo ~hi -> (lo, hi)) in
      Alcotest.(check (list (pair int int)))
        "fixed layout in chunk order"
        [ (0, 3); (3, 6); (6, 9); (9, 10) ]
        slices)

let test_map_chunks_layout_independent_of_jobs () =
  let layout jobs =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_chunks pool ~n:2003 ~chunk_size:64 (fun ~lo ~hi -> (lo, hi)))
  in
  Alcotest.(check (list (pair int int))) "jobs 1 = jobs 7" (layout 1) (layout 7)

let test_worker_exception_reraised () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "exception surfaces with jobs=%d" jobs)
            (Failure "boom") (fun () ->
              Pool.parallel_for pool ~n:100 (fun i -> if i = 37 then failwith "boom"));
          (* the pool survives a failed region *)
          let seen = Array.make 10 0 in
          Pool.parallel_for pool ~n:10 (fun i -> seen.(i) <- 1);
          Alcotest.(check int) "usable after exception" 10 (Array.fold_left ( + ) 0 seen)))
    [ 1; 4 ]

let test_pool_reusable_across_calls () =
  Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 5 do
        let n = 100 * round in
        let got =
          Array.concat
            (Pool.map_chunks pool ~n ~chunk_size:7 (fun ~lo ~hi ->
                 Array.init (hi - lo) (fun j -> 2 * (lo + j))))
        in
        Alcotest.(check int) (Printf.sprintf "round %d length" round) n (Array.length got);
        Array.iteri
          (fun i v -> if v <> 2 * i then Alcotest.failf "round %d wrong value at %d" round i)
          got
      done)

let test_sequential_pool_runs_inline () =
  (* the shared width-1 pool must behave exactly like a for-loop *)
  let order = ref [] in
  Pool.parallel_for Pool.sequential ~n:5 (fun i -> order := i :: !order);
  Alcotest.(check (list int)) "in-order inline" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Alcotest.(check int) "width 1" 1 (Pool.jobs Pool.sequential)

let test_with_pool_returns_value () =
  Alcotest.(check int) "propagates result" 42 (Pool.with_pool ~jobs:2 (fun _ -> 42))

(* --- determinism: latency oracle ------------------------------------------- *)

let test_latency_oracle_deterministic_in_jobs () =
  let build pool =
    let rng = Prng.Rng.create ~seed:42 in
    Topology.Transit_stub.generate ?pool ~hosts:300 rng
  in
  let seq = build None in
  Pool.with_pool ~jobs:4 (fun pool ->
      let par = build (Some pool) in
      Alcotest.(check int) "routers" (Topology.Latency.routers seq) (Topology.Latency.routers par);
      let nr = Topology.Latency.routers seq in
      for a = 0 to nr - 1 do
        for b = 0 to nr - 1 do
          let x = Topology.Latency.router_latency seq a b
          and y = Topology.Latency.router_latency par a b in
          if Int64.bits_of_float x <> Int64.bits_of_float y then
            Alcotest.failf "router distance (%d,%d) differs: %h vs %h" a b x y
        done
      done;
      let n = Topology.Latency.hosts seq in
      for h = 0 to n - 1 do
        check_bits
          (Printf.sprintf "host latency %d" h)
          (Topology.Latency.host_latency seq h ((h + 7) mod n))
          (Topology.Latency.host_latency par h ((h + 7) mod n))
      done)

let test_lazy_backend_deterministic_in_jobs () =
  (* a lazy oracle filled concurrently from 4 domains must agree bit-for-bit
     with the eager sequential matrix — duplicate row computations are benign *)
  let eager =
    Topology.Transit_stub.generate ~backend:Topology.Latency.Eager ~hosts:300
      (Prng.Rng.create ~seed:42)
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      let lz =
        Topology.Transit_stub.generate ~backend:Topology.Latency.Lazy ~pool ~hosts:300
          (Prng.Rng.create ~seed:42)
      in
      let n = Topology.Latency.hosts eager in
      (* race the lazy fill across domains, then compare every pair *)
      Pool.parallel_for pool ~n (fun a ->
          for b = 0 to n - 1 do
            ignore (Topology.Latency.host_latency lz a b)
          done);
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let x = Topology.Latency.host_latency eager a b
          and y = Topology.Latency.host_latency lz a b in
          if Int64.bits_of_float x <> Int64.bits_of_float y then
            Alcotest.failf "host latency (%d,%d) differs: %h vs %h" a b x y
        done
      done)

(* --- determinism: experiment runner ---------------------------------------- *)

let det_cfg =
  (* > chunk_size requests so the parallel path really merges several chunks *)
  Config.paper_default |> fun c ->
  Config.with_nodes c 192 |> fun c ->
  Config.with_requests c 9000 |> fun c ->
  Config.with_landmarks c 4 |> fun c -> Config.with_seed c 77

let check_summary name a b =
  Alcotest.(check int) (name ^ " count") (Summary.count a) (Summary.count b);
  check_bits (name ^ " mean") (Summary.mean a) (Summary.mean b);
  check_bits (name ^ " variance") (Summary.variance a) (Summary.variance b);
  check_bits (name ^ " min") (Summary.min_value a) (Summary.min_value b);
  check_bits (name ^ " max") (Summary.max_value a) (Summary.max_value b);
  check_bits (name ^ " total") (Summary.total a) (Summary.total b)

let check_histogram name a b =
  Alcotest.(check int) (name ^ " count") (Histogram.count a) (Histogram.count b);
  Alcotest.(check int) (name ^ " clamped") (Histogram.clamped a) (Histogram.clamped b);
  Alcotest.(check (array int)) (name ^ " counts") (Histogram.counts a) (Histogram.counts b)

let check_metrics_equal (a : Runner.metrics) (b : Runner.metrics) =
  check_summary "chord_hops" a.Runner.chord_hops b.Runner.chord_hops;
  check_summary "chord_latency" a.Runner.chord_latency b.Runner.chord_latency;
  check_summary "hieras_hops" a.Runner.hieras_hops b.Runner.hieras_hops;
  check_summary "hieras_latency" a.Runner.hieras_latency b.Runner.hieras_latency;
  check_summary "lower_hops" a.Runner.lower_hops b.Runner.lower_hops;
  check_summary "top_hops" a.Runner.top_hops b.Runner.top_hops;
  check_summary "lower_latency" a.Runner.lower_latency b.Runner.lower_latency;
  check_summary "top_latency" a.Runner.top_latency b.Runner.top_latency;
  check_histogram "chord_hop_pdf" a.Runner.chord_hop_pdf b.Runner.chord_hop_pdf;
  check_histogram "hieras_hop_pdf" a.Runner.hieras_hop_pdf b.Runner.hieras_hop_pdf;
  check_histogram "lower_hop_pdf" a.Runner.lower_hop_pdf b.Runner.lower_hop_pdf;
  check_histogram "chord_latency_hist" a.Runner.chord_latency_hist b.Runner.chord_latency_hist;
  check_histogram "hieras_latency_hist" a.Runner.hieras_latency_hist b.Runner.hieras_latency_hist;
  check_float_array "hops_per_layer" a.Runner.hops_per_layer b.Runner.hops_per_layer;
  check_float_array "latency_per_layer" a.Runner.latency_per_layer b.Runner.latency_per_layer

let test_measure_jobs1_equals_jobs4 () =
  let m1 = Pool.with_pool ~jobs:1 (fun pool -> Runner.run ~pool det_cfg) in
  let m4 = Pool.with_pool ~jobs:4 (fun pool -> Runner.run ~pool det_cfg) in
  check_metrics_equal m1 m4

let test_measure_default_equals_pooled () =
  (* the no-pool path must match a pooled run too — same chunked reduction *)
  let m0 = Runner.run det_cfg in
  let m4 = Pool.with_pool ~jobs:4 (fun pool -> Runner.run ~pool det_cfg) in
  check_metrics_equal m0 m4

let test_measure_oracle_equals_eager () =
  (* the runner leaves the oracle storage to Auto; whichever storage that
     resolves to, for any pool width, it must answer every host pair exactly
     as an eager matrix over the same graph *)
  let module L = Topology.Latency in
  let check_env label env =
    let lat = Runner.latency_oracle env in
    let n = L.hosts lat in
    let eager =
      L.create ~backend:L.Eager ~router_graph:(L.router_graph lat)
        ~host_router:(Array.init n (L.router_of_host lat))
        ~host_access:(Array.init n (L.access_delay lat))
        ()
    in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        let x = L.host_latency eager a b and y = L.host_latency lat a b in
        if Int64.bits_of_float x <> Int64.bits_of_float y then
          Alcotest.failf "%s: host latency (%d,%d) differs: %h vs %h" label a b x y
      done
    done;
    L.effective_backend lat
  in
  let resolved =
    List.map
      (fun nodes ->
        let cfg = Config.with_nodes det_cfg nodes in
        let seq = check_env (Printf.sprintf "%d nodes, no pool" nodes) (Runner.build_env cfg) in
        let par =
          Pool.with_pool ~jobs:4 (fun pool ->
              check_env (Printf.sprintf "%d nodes, jobs 4" nodes) (Runner.build_env ~pool cfg))
        in
        Alcotest.(check string)
          (Printf.sprintf "%d nodes: storage independent of the pool" nodes)
          (L.backend_name seq) (L.backend_name par);
        seq)
      [ 16; 192 ]
  in
  (* the two sizes exercise both storages Auto can pick *)
  Alcotest.(check (list string)) "resolved storages" [ "lazy"; "eager" ]
    (List.map L.backend_name resolved)

let test_registry_snapshot_jobs_independent () =
  (* the runner.* registry export happens after the deterministic merge, on
     the calling domain — so the rendered snapshot must be byte-identical for
     any pool width, both as text and as JSON *)
  let snapshot jobs =
    let reg = Obs.Metrics.create () in
    (if jobs = 1 then ignore (Runner.run ~registry:reg det_cfg)
     else Pool.with_pool ~jobs (fun pool -> ignore (Runner.run ~pool ~registry:reg det_cfg)));
    Obs.Metrics.snapshot reg
  in
  let s1 = snapshot 1 and s4 = snapshot 4 in
  Alcotest.(check string) "to_text jobs 1 = jobs 4" (Obs.Metrics.to_text s1)
    (Obs.Metrics.to_text s4);
  Alcotest.(check string) "to_json jobs 1 = jobs 4" (Obs.Metrics.to_json s1)
    (Obs.Metrics.to_json s4)

let test_registry_with_observers_jobs_independent () =
  (* the full observability export — runner metrics + fake-clock phase timer
     + churn time series — must also render byte-identically for any pool
     width: the timer only runs on the calling domain and the series are a
     pure function of the seed *)
  let snapshot jobs =
    let reg = Obs.Metrics.create () in
    let timer =
      Obs.Timer.create
        ~clock:
          (let t = ref 0.0 in
           fun () ->
             let v = !t in
             t := v +. 0.25;
             v)
    in
    (if jobs = 1 then ignore (Runner.run ~registry:reg ~timer det_cfg)
     else Pool.with_pool ~jobs (fun pool -> ignore (Runner.run ~pool ~registry:reg ~timer det_cfg)));
    Obs.Timer.export_metrics timer reg;
    let ts = Obs.Timeseries.create ~bucket_ms:500.0 () in
    let spec =
      { Workload.Churn.horizon = 20_000.0; join_rate = 0.4; fail_rate = 0.1; leave_rate = 0.1 }
    in
    ignore
      (Workload.Churn.generate ~ts spec ~initial:16 ~pool:64 (Prng.Rng.create ~seed:5));
    Obs.Timeseries.export_metrics ts reg;
    (Obs.Metrics.snapshot reg, Obs.Timeseries.to_json ts)
  in
  let s1, ts1 = snapshot 1 and s4, ts4 = snapshot 4 in
  Alcotest.(check string) "registry to_json jobs 1 = jobs 4" (Obs.Metrics.to_json s1)
    (Obs.Metrics.to_json s4);
  Alcotest.(check string) "series to_json jobs 1 = jobs 4" ts1 ts4

let test_traced_measure_equals_untraced () =
  (* an enabled tracer forces the replay onto the calling domain, with the
     same chunk layout — figures stay bit-identical to the parallel run *)
  let tr = Obs.Trace.ring ~capacity:4 in
  let traced =
    Pool.with_pool ~jobs:4 (fun pool -> Runner.run ~pool ~trace:tr det_cfg)
  in
  let untraced = Pool.with_pool ~jobs:4 (fun pool -> Runner.run ~pool det_cfg) in
  check_metrics_equal traced untraced

(* --- determinism: fault schedules and the resilience experiment ------------- *)

let test_fault_compile_jobs_independent () =
  (* compilation never touches a pool, but must also be insensitive to being
     run from inside a parallel region — the draw is a pure function of the
     rng state and the specs *)
  let specs =
    [
      Workload.Faults.Crash { at = 10.0; frac = 0.2 };
      Workload.Faults.Crash_restart { at = 40.0; frac = 0.1; down_ms = 500.0 };
      Workload.Faults.Loss_window { from_ms = 5.0; until_ms = 95.0; rate = 0.05 };
    ]
  in
  let compile () = Workload.Faults.compile ~nodes:300 specs (Prng.Rng.create ~seed:99) in
  let base = compile () in
  Pool.with_pool ~jobs:4 (fun pool ->
      let per_chunk = Pool.map_chunks pool ~n:8 ~chunk_size:1 (fun ~lo:_ ~hi:_ -> compile ()) in
      List.iteri
        (fun i evs ->
          if evs <> base then Alcotest.failf "chunk %d compiled a different schedule" i)
        per_chunk)

let res_cfg =
  Config.paper_default |> fun c ->
  Config.with_nodes c 128 |> fun c ->
  Config.with_requests c 6000 |> fun c ->
  Config.with_landmarks c 4 |> fun c -> Config.with_seed c 31

let check_point (a : Experiments.Resilience.point) (b : Experiments.Resilience.point) =
  let name = Printf.sprintf "fraction %g" a.fraction in
  check_bits (name ^ " fraction") a.fraction b.fraction;
  Alcotest.(check int) (name ^ " failed") a.failed b.failed;
  Alcotest.(check int) (name ^ " chord ok") a.chord.succeeded b.chord.succeeded;
  Alcotest.(check int) (name ^ " hieras ok") a.hieras.succeeded b.hieras.succeeded;
  check_bits (name ^ " chord stretch") a.chord_stretch b.chord_stretch;
  check_bits (name ^ " hieras stretch") a.hieras_stretch b.hieras_stretch;
  Alcotest.(check int) (name ^ " chord retries") a.chord.retries b.chord.retries;
  Alcotest.(check int) (name ^ " hieras retries") a.hieras.retries b.hieras.retries;
  Alcotest.(check int) (name ^ " escapes") a.hieras.layer_escapes b.hieras.layer_escapes;
  check_bits (name ^ " chord penalty") a.chord.penalty_ms b.chord.penalty_ms;
  check_bits (name ^ " hieras penalty") a.hieras.penalty_ms b.hieras.penalty_ms

let test_resilience_jobs1_equals_jobs4 () =
  let run jobs =
    let reg = Obs.Metrics.create () in
    let r =
      Pool.with_pool ~jobs (fun pool ->
          Experiments.Resilience.run ~pool ~registry:reg
            ~fractions:[ 0.0; 0.25; 0.5 ] res_cfg)
    in
    (r, Obs.Metrics.to_text (Obs.Metrics.snapshot reg))
  in
  let r1, snap1 = run 1 and r4, snap4 = run 4 in
  check_bits "chord baseline" r1.Experiments.Resilience.chord_baseline_ms
    r4.Experiments.Resilience.chord_baseline_ms;
  check_bits "hieras baseline" r1.Experiments.Resilience.hieras_baseline_ms
    r4.Experiments.Resilience.hieras_baseline_ms;
  List.iter2 check_point r1.Experiments.Resilience.points r4.Experiments.Resilience.points;
  Alcotest.(check string) "registry snapshot jobs 1 = jobs 4" snap1 snap4;
  (* the rendered report section is a pure function of the results *)
  Alcotest.(check string) "report section jobs 1 = jobs 4"
    (Experiments.Report.render (Experiments.Resilience.section r1))
    (Experiments.Report.render (Experiments.Resilience.section r4))

(* --- Runner.replay: the one chunked loop of the analytic experiments --------- *)

(* request [i] originates at node [i], so a visit can tell which index it got *)
let indexed n =
  Array.init n (fun i ->
      { Workload.Requests.origin = i; key = Hashid.Id.zero Hashid.Id.sha1_space })

let test_replay_visits_in_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let seen =
                Runner.replay ~pool (indexed n) ~fresh:Queue.create
                  ~merge:(fun a b ->
                    Queue.transfer b a;
                    a)
                  (fun q r -> Queue.add r.Workload.Requests.origin q)
              in
              Alcotest.(check (list int))
                (Printf.sprintf "n=%d jobs=%d: 0..n-1 once, in order" n jobs)
                (List.init n Fun.id)
                (List.of_seq (Queue.to_seq seen)))
            [ 0; 1; 4095; 4096; 4097; 9000 ]))
    [ 1; 4 ]

let test_traced_replay_on_calling_domain () =
  let self = Domain.self () in
  let tr = Obs.Trace.ring ~capacity:4 in
  let visits, away =
    Pool.with_pool ~jobs:4 (fun pool ->
        Runner.replay ~pool ~trace:tr (indexed 9000)
          ~fresh:(fun () -> (ref 0, ref 0))
          ~merge:(fun (v, a) (v', a') -> (ref (!v + !v'), ref (!a + !a')))
          (fun (v, a) _ ->
            incr v;
            if Domain.self () <> self then incr a))
  in
  Alcotest.(check int) "every request visited" 9000 !visits;
  Alcotest.(check int) "visits on another domain" 0 !away

let () =
  Alcotest.run "parallel"
    [
      ( "chunking",
        [
          Alcotest.test_case "covers every index once" `Quick test_chunks_cover_every_index;
          Alcotest.test_case "validation" `Quick test_chunks_validation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "parallel_for coverage" `Quick test_parallel_for_covers_indices;
          Alcotest.test_case "n < jobs" `Quick test_parallel_for_fewer_items_than_jobs;
          Alcotest.test_case "map_chunks layout" `Quick test_map_chunks_order_and_layout;
          Alcotest.test_case "map_chunks jobs-independent" `Quick
            test_map_chunks_layout_independent_of_jobs;
          Alcotest.test_case "exception re-raised" `Quick test_worker_exception_reraised;
          Alcotest.test_case "reusable across calls" `Quick test_pool_reusable_across_calls;
          Alcotest.test_case "sequential inline" `Quick test_sequential_pool_runs_inline;
          Alcotest.test_case "with_pool result" `Quick test_with_pool_returns_value;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "latency oracle seq = par" `Quick
            test_latency_oracle_deterministic_in_jobs;
          Alcotest.test_case "lazy backend = eager, raced fill" `Quick
            test_lazy_backend_deterministic_in_jobs;
          Alcotest.test_case "measure jobs 1 = jobs 4" `Slow test_measure_jobs1_equals_jobs4;
          Alcotest.test_case "measure default = pooled" `Slow test_measure_default_equals_pooled;
          Alcotest.test_case "measure oracle = eager storage" `Slow test_measure_oracle_equals_eager;
          Alcotest.test_case "registry snapshot jobs-independent" `Slow
            test_registry_snapshot_jobs_independent;
          Alcotest.test_case "timer + time-series exports jobs-independent" `Slow
            test_registry_with_observers_jobs_independent;
          Alcotest.test_case "traced measure = untraced measure" `Slow
            test_traced_measure_equals_untraced;
          Alcotest.test_case "fault compile jobs-independent" `Quick
            test_fault_compile_jobs_independent;
          Alcotest.test_case "resilience jobs 1 = jobs 4" `Slow
            test_resilience_jobs1_equals_jobs4;
        ] );
      ( "replay",
        [
          Alcotest.test_case "each request once, in order" `Quick test_replay_visits_in_order;
          Alcotest.test_case "traced replay on the calling domain" `Quick
            test_traced_replay_on_calling_domain;
        ] );
    ]
