(* Tests for the topology library: graph primitives, shortest paths, the
   three network models and the latency oracle. *)

module Graph = Topology.Graph
module Dijkstra = Topology.Dijkstra
module Latency = Topology.Latency
module TS = Topology.Transit_stub
module Inet = Topology.Inet
module Brite = Topology.Brite
module Model = Topology.Model

(* --- Graph ------------------------------------------------------------- *)

let test_graph_basic () =
  let b = Graph.builder 4 in
  Graph.add_edge b 0 1 1.0;
  Graph.add_edge b 1 2 2.0;
  Graph.add_edge b 2 3 3.0;
  let g = Graph.freeze b in
  Alcotest.(check int) "vertices" 4 (Graph.vertex_count g);
  Alcotest.(check int) "edges" 3 (Graph.edge_count g);
  Alcotest.(check int) "degree of middle" 2 (Graph.degree g 1);
  Alcotest.(check int) "degree of end" 1 (Graph.degree g 0)

let test_graph_duplicate_edges_keep_min () =
  let b = Graph.builder 2 in
  Graph.add_edge b 0 1 5.0;
  Graph.add_edge b 1 0 2.0;
  Graph.add_edge b 0 1 9.0;
  let g = Graph.freeze b in
  Alcotest.(check int) "one edge" 1 (Graph.edge_count g);
  let w = Graph.fold_neighbors g 0 (fun _ _ w -> w) 0.0 in
  Alcotest.(check (float 1e-9)) "min weight kept" 2.0 w

let test_graph_rejects_bad_edges () =
  let b = Graph.builder 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      Graph.add_edge b 1 1 1.0);
  Alcotest.check_raises "range" (Invalid_argument "Graph.add_edge: vertex out of range")
    (fun () -> Graph.add_edge b 0 3 1.0);
  Alcotest.check_raises "negative" (Invalid_argument "Graph.add_edge: negative delay")
    (fun () -> Graph.add_edge b 0 1 (-1.0))

let test_graph_connectivity () =
  let b = Graph.builder 4 in
  Graph.add_edge b 0 1 1.0;
  Graph.add_edge b 2 3 1.0;
  let g = Graph.freeze b in
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g);
  let comp = Graph.components g in
  Alcotest.(check bool) "0 and 1 together" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "2 and 3 together" true (comp.(2) = comp.(3));
  Alcotest.(check bool) "different components" true (comp.(0) <> comp.(2))

let test_graph_neighbors_symmetric () =
  let b = Graph.builder 3 in
  Graph.add_edge b 0 2 7.0;
  let g = Graph.freeze b in
  let from0 = Graph.fold_neighbors g 0 (fun acc v _ -> v :: acc) [] in
  let from2 = Graph.fold_neighbors g 2 (fun acc v _ -> v :: acc) [] in
  Alcotest.(check (list int)) "0 sees 2" [ 2 ] from0;
  Alcotest.(check (list int)) "2 sees 0" [ 0 ] from2

let neighbor_list g v = List.rev (Graph.fold_neighbors g v (fun acc u w -> (u, w) :: acc) [])

let test_graph_freeze_insertion_order_independent () =
  (* the frozen CSR layout must be a function of the edge set alone: two
     builders fed the same edges in different orders freeze identically *)
  let edges = [ (0, 4, 1.0); (2, 3, 2.5); (0, 1, 3.0); (1, 4, 0.5); (0, 3, 7.0); (3, 4, 1.5) ] in
  let build es =
    let b = Graph.builder 5 in
    List.iter (fun (u, v, w) -> Graph.add_edge b u v w) es;
    Graph.freeze b
  in
  let g1 = build edges in
  let g2 = build (List.rev edges) in
  let g3 = build (List.filteri (fun i _ -> i mod 2 = 0) edges @ List.filteri (fun i _ -> i mod 2 = 1) edges) in
  for v = 0 to 4 do
    let l1 = neighbor_list g1 v in
    Alcotest.(check (list (pair int (float 0.0))))
      (Printf.sprintf "vertex %d adjacency, reversed insertion" v)
      l1 (neighbor_list g2 v);
    Alcotest.(check (list (pair int (float 0.0))))
      (Printf.sprintf "vertex %d adjacency, interleaved insertion" v)
      l1 (neighbor_list g3 v)
  done

let test_graph_freeze_neighbors_sorted () =
  let rng = Prng.Rng.create ~seed:11 in
  let n = 40 in
  let b = Graph.builder n in
  for _ = 1 to 200 do
    let u = Prng.Rng.int rng n and v = Prng.Rng.int rng n in
    if u <> v then Graph.add_edge b u v (1.0 +. Prng.Rng.float rng 5.0)
  done;
  let g = Graph.freeze b in
  for v = 0 to n - 1 do
    let prev = ref (-1) in
    Graph.iter_neighbors g v (fun u _ ->
        if u <= !prev then Alcotest.failf "vertex %d: neighbors not strictly ascending" v;
        prev := u)
  done

(* --- Dijkstra ------------------------------------------------------------ *)

(* a diamond with a shortcut: 0-1 (1), 0-2 (4), 1-2 (2), 1-3 (7), 2-3 (1) *)
let diamond () =
  let b = Graph.builder 4 in
  Graph.add_edge b 0 1 1.0;
  Graph.add_edge b 0 2 4.0;
  Graph.add_edge b 1 2 2.0;
  Graph.add_edge b 1 3 7.0;
  Graph.add_edge b 2 3 1.0;
  Graph.freeze b

let test_dijkstra_distances () =
  let g = diamond () in
  let d = Dijkstra.distances g ~src:0 in
  Alcotest.(check (float 1e-9)) "d(0,0)" 0.0 d.(0);
  Alcotest.(check (float 1e-9)) "d(0,1)" 1.0 d.(1);
  Alcotest.(check (float 1e-9)) "d(0,2)" 3.0 d.(2);
  Alcotest.(check (float 1e-9)) "d(0,3)" 4.0 d.(3)

let test_dijkstra_unreachable () =
  let b = Graph.builder 3 in
  Graph.add_edge b 0 1 1.0;
  let g = Graph.freeze b in
  let d = Dijkstra.distances g ~src:0 in
  Alcotest.(check bool) "isolated vertex" true (d.(2) = infinity)

let test_dijkstra_path () =
  let g = diamond () in
  match Dijkstra.path g ~src:0 ~dst:3 with
  | Some p -> Alcotest.(check (list int)) "shortest path" [ 0; 1; 2; 3 ] p
  | None -> Alcotest.fail "path expected"

let test_dijkstra_path_unreachable () =
  let b = Graph.builder 2 in
  let g = Graph.freeze b in
  Alcotest.(check bool) "no path" true (Dijkstra.path g ~src:0 ~dst:1 = None)

let test_distance_matrix_symmetric () =
  let g = diamond () in
  let m = Dijkstra.distance_matrix g in
  for i = 0 to 3 do
    for j = 0 to 3 do
      Alcotest.(check (float 1e-9)) "symmetric" m.(i).(j) m.(j).(i)
    done
  done

let test_distance_matrix_flat_matches_boxed () =
  let g = diamond () in
  let m = Dijkstra.distance_matrix g in
  let flat = Dijkstra.distance_matrix_flat g in
  Alcotest.(check int) "length" 16 (Array.length flat);
  for i = 0 to 3 do
    for j = 0 to 3 do
      Alcotest.(check (float 0.0)) (Printf.sprintf "(%d,%d)" i j) m.(i).(j) flat.((i * 4) + j)
    done
  done

(* --- Latency oracle -------------------------------------------------------- *)

let test_latency_oracle () =
  let g = diamond () in
  let lat =
    Latency.create ~router_graph:g ~host_router:[| 0; 3; 3 |] ~host_access:[| 1.0; 2.0; 2.0 |] ()
  in
  Alcotest.(check int) "hosts" 3 (Latency.hosts lat);
  Alcotest.(check int) "routers" 4 (Latency.routers lat);
  Alcotest.(check (float 1e-9)) "self latency" 0.0 (Latency.host_latency lat 1 1);
  Alcotest.(check (float 1e-9)) "host 0 to 1: 1 + 4 + 2" 7.0 (Latency.host_latency lat 0 1);
  Alcotest.(check (float 1e-9)) "symmetric" (Latency.host_latency lat 0 1)
    (Latency.host_latency lat 1 0);
  Alcotest.(check (float 1e-9)) "same-router hosts" 4.0 (Latency.host_latency lat 1 2);
  Alcotest.(check (float 1e-9)) "host to router" 5.0 (Latency.host_to_router lat 0 3)

let test_latency_oracle_validation () =
  let g = diamond () in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Latency.create: host arrays differ in length") (fun () ->
      ignore (Latency.create ~router_graph:g ~host_router:[| 0 |] ~host_access:[||] ()));
  Alcotest.check_raises "router range"
    (Invalid_argument "Latency.create: router index out of range") (fun () ->
      ignore (Latency.create ~router_graph:g ~host_router:[| 9 |] ~host_access:[| 0.0 |] ()));
  let b = Graph.builder 2 in
  let disconnected = Graph.freeze b in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Latency.create: router graph must be connected") (fun () ->
      ignore
        (Latency.create ~router_graph:disconnected ~host_router:[| 0 |] ~host_access:[| 0.0 |] ()))

let test_latency_backends_bit_identical () =
  let rng () = Prng.Rng.create ~seed:21 in
  let eager = TS.generate ~backend:Topology.Latency.Eager ~hosts:250 (rng ()) in
  let lazy_ = TS.generate ~backend:Topology.Latency.Lazy ~hosts:250 (rng ()) in
  let auto = TS.generate ~backend:Topology.Latency.Auto ~hosts:250 (rng ()) in
  let nr = Latency.routers eager in
  for a = 0 to nr - 1 do
    for b = 0 to nr - 1 do
      let x = Latency.router_latency eager a b in
      if Int64.bits_of_float x <> Int64.bits_of_float (Latency.router_latency lazy_ a b) then
        Alcotest.failf "lazy row (%d,%d) differs from eager" a b;
      if Int64.bits_of_float x <> Int64.bits_of_float (Latency.router_latency auto a b) then
        Alcotest.failf "auto row (%d,%d) differs from eager" a b
    done
  done;
  for h = 0 to 249 do
    let x = Latency.host_latency eager h ((h + 13) mod 250) in
    let y = Latency.host_latency lazy_ h ((h + 13) mod 250) in
    Alcotest.(check int64)
      (Printf.sprintf "host latency %d" h)
      (Int64.bits_of_float x) (Int64.bits_of_float y)
  done

let test_latency_lazy_stats () =
  let rng = Prng.Rng.create ~seed:22 in
  let lat = TS.generate ~backend:Topology.Latency.Lazy ~hosts:300 rng in
  let st0 = Latency.stats lat in
  Alcotest.(check string) "backend" "lazy" st0.Latency.backend;
  Alcotest.(check int) "no rows before first query" 0 st0.Latency.rows_computed;
  Alcotest.(check int) "no hits before first query" 0 st0.Latency.row_hits;
  ignore (Latency.host_latency lat 0 1);
  let st1 = Latency.stats lat in
  Alcotest.(check bool) "first query computes a row" true (st1.Latency.rows_computed >= 1);
  Alcotest.(check int) "one hit" 1 st1.Latency.row_hits;
  Alcotest.(check bool) "memory grows with rows" true
    (st1.Latency.resident_bytes > st0.Latency.resident_bytes);
  ignore (Latency.host_latency lat 0 1);
  let st2 = Latency.stats lat in
  Alcotest.(check int) "warm query computes nothing" st1.Latency.rows_computed
    st2.Latency.rows_computed;
  Alcotest.(check int) "warm query still counted" 2 st2.Latency.row_hits;
  (* hosts live only on stub routers, so a full workload replay leaves the
     transit rows untouched *)
  for a = 0 to 299 do
    for b = 0 to 299 do
      ignore (Latency.host_latency lat a b)
    done
  done;
  let st3 = Latency.stats lat in
  Alcotest.(check bool) "rows computed < router count" true
    (st3.Latency.rows_computed < st3.Latency.routers)

let test_latency_eager_stats () =
  let rng = Prng.Rng.create ~seed:23 in
  let lat = TS.generate ~backend:Topology.Latency.Eager ~hosts:100 rng in
  let st = Latency.stats lat in
  Alcotest.(check string) "backend" "eager" st.Latency.backend;
  Alcotest.(check int) "all rows precomputed" st.Latency.routers st.Latency.rows_computed;
  Alcotest.(check bool) "matrix resident" true
    (st.Latency.resident_bytes >= 8 * st.Latency.routers * st.Latency.routers)

let test_latency_auto_resolution () =
  let g = diamond () in
  (* 4 routers, hosts on 3 of them: coverage 75% >= 50% and few routers -> eager *)
  let covered =
    Latency.create ~backend:Topology.Latency.Auto ~router_graph:g ~host_router:[| 0; 1; 3 |]
      ~host_access:[| 1.0; 1.0; 1.0 |] ()
  in
  Alcotest.(check bool) "well-covered small graph resolves eager" true
    (Latency.effective_backend covered = Topology.Latency.Eager);
  (* hosts on 1 of 4 routers: coverage 25% < 50% -> lazy *)
  let sparse =
    Latency.create ~backend:Topology.Latency.Auto ~router_graph:g ~host_router:[| 2; 2; 2 |]
      ~host_access:[| 1.0; 1.0; 1.0 |] ()
  in
  Alcotest.(check bool) "sparse coverage resolves lazy" true
    (Latency.effective_backend sparse = Topology.Latency.Lazy)

let test_mean_host_latency_estimator () =
  let lat = TS.generate ~hosts:120 (Prng.Rng.create ~seed:24) in
  (* fixed seed -> bit-identical estimate *)
  let e1 = Latency.mean_host_latency lat ~samples:5000 (Prng.Rng.create ~seed:99) in
  let e2 = Latency.mean_host_latency lat ~samples:5000 (Prng.Rng.create ~seed:99) in
  Alcotest.(check int64) "fixed seed, fixed estimate" (Int64.bits_of_float e1)
    (Int64.bits_of_float e2);
  (* unbiased: close to the exact all-pairs mean on a small topology *)
  let n = Latency.hosts lat in
  let acc = ref 0.0 and pairs = ref 0 in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b then begin
        acc := !acc +. Latency.host_latency lat a b;
        incr pairs
      end
    done
  done;
  let exact = !acc /. float_of_int !pairs in
  let est = Latency.mean_host_latency lat ~samples:20_000 (Prng.Rng.create ~seed:7) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.2f within 5%% of exact %.2f" est exact)
    true
    (Float.abs (est -. exact) < 0.05 *. exact)

(* --- Transit-Stub ------------------------------------------------------------ *)

let test_ts_connected_and_sized () =
  let rng = Prng.Rng.create ~seed:1 in
  let lat = TS.generate ~hosts:500 rng in
  Alcotest.(check int) "router count" (TS.router_count ~hosts:500) (Latency.routers lat);
  Alcotest.(check int) "hosts" 500 (Latency.hosts lat);
  Alcotest.(check bool) "connected" true (Graph.is_connected (Latency.router_graph lat))

let test_ts_three_latency_scales () =
  (* same-stub pairs must be far cheaper than cross-region pairs *)
  let rng = Prng.Rng.create ~seed:2 in
  let lat = TS.generate ~hosts:1000 rng in
  let same_stub = Stats.Summary.create () in
  let cross = Stats.Summary.create () in
  for a = 0 to 300 do
    for b = a + 1 to 301 do
      let ra = Latency.router_of_host lat a and rb = Latency.router_of_host lat b in
      let stub_of r = (r - TS.transit_routers) / TS.routers_per_stub ~hosts:1000 in
      let l = Latency.host_latency lat a b in
      if stub_of ra = stub_of rb then Stats.Summary.add same_stub l
      else if l > 0.0 then Stats.Summary.add cross l
    done
  done;
  Alcotest.(check bool) "found same-stub pairs" true (Stats.Summary.count same_stub > 0);
  Alcotest.(check bool) "same-stub far cheaper" true
    (Stats.Summary.mean same_stub < 0.4 *. Stats.Summary.mean cross)

let test_ts_hosts_on_stub_routers () =
  let rng = Prng.Rng.create ~seed:3 in
  let lat = TS.generate ~hosts:200 rng in
  for h = 0 to 199 do
    Alcotest.(check bool) "host attaches to a stub router" true
      (Latency.router_of_host lat h >= TS.transit_routers)
  done

let test_ts_determinism () =
  let l1 = TS.generate ~hosts:100 (Prng.Rng.create ~seed:9) in
  let l2 = TS.generate ~hosts:100 (Prng.Rng.create ~seed:9) in
  for a = 0 to 20 do
    Alcotest.(check (float 1e-9)) "same latencies" (Latency.host_latency l1 a (a + 50))
      (Latency.host_latency l2 a (a + 50))
  done

let test_ts_rejects_no_hosts () =
  Alcotest.check_raises "0 hosts" (Invalid_argument "Transit_stub.generate: need at least one host")
    (fun () -> ignore (TS.generate ~hosts:0 (Prng.Rng.create ~seed:1)))

(* --- Inet ---------------------------------------------------------------------- *)

let test_inet_minimum () =
  Alcotest.(check bool) "min hosts is 3000" true (Inet.min_hosts = 3000);
  match ignore (Inet.generate ~hosts:100 (Prng.Rng.create ~seed:1)) with
  | () -> Alcotest.fail "should reject"
  | exception Invalid_argument _ -> ()

let test_inet_structure () =
  let rng = Prng.Rng.create ~seed:4 in
  let lat = Inet.generate ~hosts:3000 rng in
  let g = Latency.router_graph lat in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check bool) "enough routers" true (Graph.vertex_count g >= 200);
  (* power-law-ish: a hub with degree far above the minimum *)
  let max_deg = ref 0 and sum_deg = ref 0 in
  for v = 0 to Graph.vertex_count g - 1 do
    let d = Graph.degree g v in
    if d > !max_deg then max_deg := d;
    sum_deg := !sum_deg + d
  done;
  let mean_deg = float_of_int !sum_deg /. float_of_int (Graph.vertex_count g) in
  Alcotest.(check bool) "hub exists" true (float_of_int !max_deg > 6.0 *. mean_deg);
  (* degree histogram is heavily skewed towards the minimum degree *)
  let hist = Inet.degree_histogram g in
  let low_mass =
    List.fold_left (fun acc (d, c) -> if d <= 3 then acc + c else acc) 0 hist
  in
  Alcotest.(check bool) "most routers have low degree" true
    (low_mass * 2 > Graph.vertex_count g)

let test_model_facade () =
  Alcotest.(check (list string)) "names" [ "TS"; "Inet"; "BRITE" ]
    (List.map Model.name Model.all);
  Alcotest.(check bool) "parse ts" true (Model.of_name "ts" = Some Model.Transit_stub);
  Alcotest.(check bool) "parse case" true (Model.of_name "BRITE" = Some Model.Brite);
  Alcotest.(check bool) "parse junk" true (Model.of_name "foo" = None);
  Alcotest.(check int) "inet minimum" 3000 (Model.min_hosts Model.Inet);
  Alcotest.(check int) "ts minimum" 1 (Model.min_hosts Model.Transit_stub)

(* the count the CLI checks --landmarks against is the count each build makes *)
let test_model_routers () =
  List.iter
    (fun (kind, hosts) ->
      let lat = Model.build kind ~hosts (Prng.Rng.create ~seed:3) in
      Alcotest.(check int)
        (Printf.sprintf "%s at %d hosts" (Model.name kind) hosts)
        (Latency.routers lat) (Model.routers kind ~hosts))
    [
      (Model.Transit_stub, 64);
      (Model.Transit_stub, 2000);
      (Model.Transit_stub, 7000);
      (Model.Brite, 64);
      (Model.Brite, 4000);
      (Model.Inet, 3000);
    ]

(* The generators default to the eager matrix, and [Model.build] asks for
   [Auto], which keeps lazy rows when the hosts cover few routers. The two
   defaults are pinned apart: the benchmark's small store pools call the
   generator, and their peak memory moves with the storage they get. *)
let test_storage_defaults () =
  let resolved lat = Latency.backend_name (Latency.effective_backend lat) in
  let rng () = Prng.Rng.create ~seed:2003 in
  Alcotest.(check string) "Transit_stub.generate at 16 hosts" "eager"
    (resolved (TS.generate ~hosts:16 (rng ())));
  List.iter
    (fun (hosts, want) ->
      Alcotest.(check string)
        (Printf.sprintf "Model.build at %d hosts" hosts)
        want
        (resolved (Model.build Model.Transit_stub ~hosts (rng ()))))
    [ (16, "lazy"); (256, "eager"); (1024, "eager") ]

(* What each model generates, pinned: router and edge counts, the bits of
   the summed link delays and a hash of the host-to-router map. The
   goldens build Transit-Stub only, and at sizes below Inet's minimum. *)
let test_model_digests () =
  let digest kind ~hosts =
    let rng = Prng.Rng.create ~seed:2003 in
    let backend = Latency.Lazy in
    let lat =
      match kind with
      | Model.Transit_stub -> TS.generate ~backend ~hosts rng
      | Model.Inet -> Inet.generate ~backend ~hosts rng
      | Model.Brite -> Brite.generate ~backend ~hosts rng
    in
    let g = Latency.router_graph lat in
    let delays = ref 0.0 in
    for u = 0 to Graph.vertex_count g - 1 do
      Graph.iter_neighbors g u (fun v w -> if v > u then delays := !delays +. w)
    done;
    let routers = Buffer.create (4 * hosts) in
    for h = 0 to hosts - 1 do
      Buffer.add_string routers (string_of_int (Latency.router_of_host lat h) ^ ",")
    done;
    Printf.sprintf "%d routers, %d edges, delays %Lx, hosts %s" (Graph.vertex_count g)
      (Graph.edge_count g) (Int64.bits_of_float !delays)
      (Digest.to_hex (Digest.string (Buffer.contents routers)))
  in
  List.iter
    (fun (kind, hosts, want) ->
      Alcotest.(check string) (Printf.sprintf "%s at %d hosts" (Model.name kind) hosts) want
        (digest kind ~hosts))
    [
      (Model.Transit_stub, 500, "88 routers, 111 edges, delays 408fe00000000000, hosts cf7889e57fe4092657881d3f5aef58f3");
      (Model.Transit_stub, 7000, "628 routers, 819 edges, delays 40b3ec0000000000, hosts b78aa32866332d366c7913ecea53aa7c");
      (Model.Inet, 3000, "375 routers, 747 edges, delays 40e06af2dd40abd9, hosts d9b9f4d556616d744e436911aeb01f56");
      (Model.Brite, 300, "100 routers, 390 edges, delays 40cf0c4f511abf7f, hosts 3660c91bc77be180d5fb4ec2523dc1b4");
      (Model.Brite, 3000, "375 routers, 1490 edges, delays 40e6c076b70f64ef, hosts 220688337e2625763b6bdb4d6d6d5136");
    ]

(* --- BRITE ---------------------------------------------------------------------- *)

let test_brite_structure () =
  let rng = Prng.Rng.create ~seed:5 in
  let lat = Brite.generate ~hosts:800 rng in
  let g = Latency.router_graph lat in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* BA growth with m links per router: edges ~ m * routers *)
  let v = Graph.vertex_count g and e = Graph.edge_count g in
  Alcotest.(check bool) "edge density ~ m*n" true (e >= v && e <= (Brite.m + 1) * v);
  (* geometric delays are bounded by the plane diagonal *)
  let max_link = (sqrt 2.0 *. Brite.plane_size /. Brite.plane_speed) +. Brite.delay_floor in
  let ok = ref true in
  for r = 0 to v - 1 do
    Graph.iter_neighbors g r (fun _ w -> if w > max_link +. 1e-6 then ok := false)
  done;
  Alcotest.(check bool) "delays bounded by diagonal" true !ok

let test_brite_mean_latency_reasonable () =
  let rng = Prng.Rng.create ~seed:6 in
  let lat = Brite.generate ~hosts:500 rng in
  let mean = Latency.mean_host_latency lat ~samples:2000 rng in
  Alcotest.(check bool) "mean in a plausible band" true (mean > 10.0 && mean < 500.0)

(* --- qcheck -------------------------------------------------------------------- *)

let random_connected_graph seed n =
  let rng = Prng.Rng.create ~seed in
  let b = Graph.builder n in
  for i = 1 to n - 1 do
    Graph.add_edge b i (Prng.Rng.int rng i) (1.0 +. Prng.Rng.float rng 10.0)
  done;
  for _ = 1 to n do
    let u = Prng.Rng.int rng n and v = Prng.Rng.int rng n in
    if u <> v then Graph.add_edge b u v (1.0 +. Prng.Rng.float rng 10.0)
  done;
  Graph.freeze b

let prop_dijkstra_triangle =
  QCheck.Test.make ~name:"shortest paths obey the triangle inequality" ~count:50
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, n) ->
      let g = random_connected_graph seed n in
      let m = Dijkstra.distance_matrix g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if m.(i).(j) > m.(i).(k) +. m.(k).(j) +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let prop_dijkstra_edge_bound =
  QCheck.Test.make ~name:"d(u,v) <= any direct edge weight" ~count:50
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, n) ->
      let g = random_connected_graph seed n in
      let m = Dijkstra.distance_matrix g in
      let ok = ref true in
      for u = 0 to n - 1 do
        Graph.iter_neighbors g u (fun v w -> if m.(u).(v) > w +. 1e-9 then ok := false)
      done;
      !ok)

let edge_weight g u v =
  let w = ref infinity in
  Graph.iter_neighbors g u (fun x wx -> if x = v then w := Float.min !w wx);
  !w

let prop_dijkstra_path_valid =
  QCheck.Test.make ~name:"path endpoints + edge-weight sum match distances" ~count:50
    QCheck.(pair small_int (int_range 3 30))
    (fun (seed, n) ->
      let g = random_connected_graph seed n in
      let rng = Prng.Rng.create ~seed:(seed + 31) in
      let src = Prng.Rng.int rng n and dst = Prng.Rng.int rng n in
      let dist = Dijkstra.distances g ~src in
      match Dijkstra.path g ~src ~dst with
      | None -> false (* connected graph: every vertex is reachable *)
      | Some [] -> false
      | Some (first :: _ as p) ->
          let rec sum = function
            | [] | [ _ ] -> 0.0
            | u :: (v :: _ as rest) ->
                (* infinity when u-v is not an edge, which poisons the sum *)
                edge_weight g u v +. sum rest
          in
          let last = List.nth p (List.length p - 1) in
          first = src && last = dst && Float.abs (sum p -. dist.(dst)) < 1e-9)

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "duplicate edges" `Quick test_graph_duplicate_edges_keep_min;
          Alcotest.test_case "bad edges" `Quick test_graph_rejects_bad_edges;
          Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
          Alcotest.test_case "symmetric adjacency" `Quick test_graph_neighbors_symmetric;
          Alcotest.test_case "freeze insertion-order independent" `Quick
            test_graph_freeze_insertion_order_independent;
          Alcotest.test_case "freeze sorts neighbors" `Quick test_graph_freeze_neighbors_sorted;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "distances" `Quick test_dijkstra_distances;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "path" `Quick test_dijkstra_path;
          Alcotest.test_case "path unreachable" `Quick test_dijkstra_path_unreachable;
          Alcotest.test_case "matrix symmetric" `Quick test_distance_matrix_symmetric;
          Alcotest.test_case "flat matrix matches boxed" `Quick
            test_distance_matrix_flat_matches_boxed;
        ] );
      ( "latency",
        [
          Alcotest.test_case "oracle" `Quick test_latency_oracle;
          Alcotest.test_case "validation" `Quick test_latency_oracle_validation;
          Alcotest.test_case "backends bit-identical" `Quick test_latency_backends_bit_identical;
          Alcotest.test_case "lazy stats" `Quick test_latency_lazy_stats;
          Alcotest.test_case "eager stats" `Quick test_latency_eager_stats;
          Alcotest.test_case "auto resolution" `Quick test_latency_auto_resolution;
          Alcotest.test_case "mean estimator" `Quick test_mean_host_latency_estimator;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "connected + sized" `Quick test_ts_connected_and_sized;
          Alcotest.test_case "three latency scales" `Quick test_ts_three_latency_scales;
          Alcotest.test_case "hosts on stub routers" `Quick test_ts_hosts_on_stub_routers;
          Alcotest.test_case "deterministic" `Quick test_ts_determinism;
          Alcotest.test_case "rejects zero hosts" `Quick test_ts_rejects_no_hosts;
        ] );
      ( "inet",
        [
          Alcotest.test_case "3000-node minimum" `Quick test_inet_minimum;
          Alcotest.test_case "power-law structure" `Slow test_inet_structure;
        ] );
      ( "brite",
        [
          Alcotest.test_case "structure" `Quick test_brite_structure;
          Alcotest.test_case "mean latency" `Quick test_brite_mean_latency_reasonable;
        ] );
      ( "model",
        [
          Alcotest.test_case "facade" `Quick test_model_facade;
          Alcotest.test_case "router counts" `Quick test_model_routers;
          Alcotest.test_case "storage defaults" `Quick test_storage_defaults;
          Alcotest.test_case "generated topologies" `Quick test_model_digests;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dijkstra_triangle; prop_dijkstra_edge_bound; prop_dijkstra_path_valid ] );
    ]
