(* Tests for the CAN substrate: zones, the join-built partition, greedy
   routing, and HIERAS over CAN (paper §3.2) as [Hieras.Make (Can.Routable)].
   Flat routes are [Can.Routable]'s walk; the conformance suite
   (test_routing.ml) checks that every route ends in the zone that owns the
   key's point, with exact hop and latency accounting. *)

module Zone = Can.Zone
module Net = Can.Network
module R = Can.Routable
module LCan = Experiments.Tournament.LCan
module Id = Hashid.Id

(* --- Zone ------------------------------------------------------------------ *)

let test_zone_unit_and_split () =
  let z = Zone.unit 2 in
  Alcotest.(check int) "dims" 2 (Zone.dims z);
  Alcotest.(check (float 1e-12)) "volume" 1.0 (Zone.volume z);
  Alcotest.(check bool) "contains center" true (Zone.contains z [| 0.5; 0.5 |]);
  let lower, upper = Zone.split z in
  Alcotest.(check (float 1e-12)) "half volumes" 0.5 (Zone.volume lower);
  Alcotest.(check (float 1e-12)) "half volumes" 0.5 (Zone.volume upper);
  Alcotest.(check bool) "halves adjacent" true (Zone.adjacent lower upper);
  Alcotest.(check bool) "left point in lower" true (Zone.contains lower [| 0.1; 0.5 |]);
  Alcotest.(check bool) "right point in upper" true (Zone.contains upper [| 0.9; 0.5 |])

let test_zone_split_alternates_dims () =
  let z = Zone.unit 2 in
  let l, _ = Zone.split z in
  (* after splitting x, the widest dimension of the half is y *)
  Alcotest.(check int) "next split on y" 1 (Zone.widest_dim l);
  let ll, lu = Zone.split l in
  Alcotest.(check bool) "y-halves adjacent" true (Zone.adjacent ll lu)

let test_zone_torus_adjacency () =
  (* zones at opposite x-edges of the torus are adjacent across the seam *)
  let z = Zone.unit 1 in
  let l, u = Zone.split z in
  (* [0, 0.5) and [0.5, 1) touch at 0.5 AND across the 0/1 seam *)
  Alcotest.(check bool) "adjacent" true (Zone.adjacent l u);
  let ll, lr = Zone.split l in
  let ul, ur = Zone.split u in
  (* [0, 0.25) and [0.75, 1) only touch across the seam *)
  Alcotest.(check bool) "seam adjacency" true (Zone.adjacent ll ur);
  Alcotest.(check bool) "inner halves" true (Zone.adjacent lr ul);
  Alcotest.(check bool) "non-adjacent" false (Zone.adjacent ll ul)

let test_zone_corner_contact_not_adjacent () =
  (* quadrants touching only at the corner are not CAN neighbors *)
  let z = Zone.unit 2 in
  let l, u = Zone.split z in
  let ll, lu = Zone.split l in
  let ul, uu = Zone.split u in
  (* ll = [0,.5)x[0,.5), uu = [.5,1)x[.5,1): corner contact only *)
  Alcotest.(check bool) "corner quadrants" false (Zone.adjacent ll uu);
  Alcotest.(check bool) "corner quadrants" false (Zone.adjacent lu ul);
  Alcotest.(check bool) "side quadrants" true (Zone.adjacent ll ul);
  Alcotest.(check bool) "side quadrants" true (Zone.adjacent ll lu)

let test_zone_torus_distance () =
  let z = Zone.unit 2 in
  let l, _ = Zone.split z in
  (* l = [0,0.5) x [0,1) *)
  Alcotest.(check (float 1e-9)) "inside" 0.0 (Zone.torus_distance l [| 0.2; 0.3 |]);
  Alcotest.(check (float 1e-9)) "direct gap" 0.2 (Zone.torus_distance l [| 0.7; 0.3 |]);
  (* wrapping: x = 0.95 is 0.05 from lo = 0 across the seam *)
  Alcotest.(check (float 1e-9)) "seam gap" 0.05 (Zone.torus_distance l [| 0.95; 0.3 |])

(* --- Network ------------------------------------------------------------------ *)

let make ?(hosts = 150) seed =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts rng in
  let net = Net.build ~space:Id.sha1_space ~hosts:(Array.init hosts (fun i -> i)) () in
  (lat, net)

let test_partition_invariant () =
  let _, net = make 1 in
  Alcotest.(check bool) "zones partition the torus" true (Net.zones_partition_space net)

let test_neighbors_symmetric_and_adjacent () =
  let _, net = make 2 in
  for i = 0 to Net.size net - 1 do
    List.iter
      (fun j ->
        Alcotest.(check bool) "neighbor zones adjacent" true
          (Zone.adjacent (Net.zone net i) (Net.zone net j));
        Alcotest.(check bool) "symmetric" true (List.mem i (Net.neighbors net j)))
      (Net.neighbors net i)
  done

let test_neighbor_lists_complete () =
  (* brute force: every adjacent pair must be in each other's lists *)
  let _, net = make ~hosts:60 3 in
  for i = 0 to Net.size net - 1 do
    for j = 0 to Net.size net - 1 do
      if i <> j && Zone.adjacent (Net.zone net i) (Net.zone net j) then
        Alcotest.(check bool)
          (Printf.sprintf "pair %d-%d tracked" i j)
          true
          (List.mem j (Net.neighbors net i))
    done
  done

let test_mean_neighbors_near_2d () =
  let _, net = make ~hosts:500 4 in
  let m = Net.mean_neighbors net in
  (* theory: 2d = 4 for d=2; uneven splits push it a bit above *)
  Alcotest.(check bool) "near 2d" true (m > 3.0 && m < 8.0)

let test_owner_of_point () =
  let _, net = make 5 in
  for i = 0 to Net.size net - 1 do
    let c = Zone.center (Net.zone net i) in
    Alcotest.(check int) "zone center owned by zone holder" i (Net.owner_of_point net c)
  done

let test_key_point_deterministic () =
  let _, net = make 6 in
  let key = Id.of_hash Id.sha1_space "some-file" in
  let p1 = Net.key_point net key and p2 = Net.key_point net key in
  Alcotest.(check bool) "deterministic" true (p1 = p2);
  Array.iter (fun x -> Alcotest.(check bool) "in unit box" true (x >= 0.0 && x < 1.0)) p1

let test_of_points_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Can.Network: empty network") (fun () ->
      ignore (Net.of_points ~hosts:[||] ~points:[||]));
  Alcotest.check_raises "out of range" (Invalid_argument "Can.Network: point outside [0,1)")
    (fun () -> ignore (Net.of_points ~hosts:[| 0 |] ~points:[| [| 1.5 |] |]))

let test_dims_parameter () =
  let net3 =
    Net.build ~space:Id.sha1_space ~hosts:(Array.init 50 (fun i -> i)) ~dims:3 ()
  in
  Alcotest.(check int) "3 dimensions" 3 (Net.dims net3);
  Alcotest.(check bool) "partition holds in 3d" true (Net.zones_partition_space net3)

(* --- routing --------------------------------------------------------------------- *)

let test_route_hop_scaling () =
  (* O(sqrt n) for d=2: hops must grow clearly slower than n *)
  let lat128, net128 = make ~hosts:128 9 in
  let lat512, net512 = make ~hosts:512 10 in
  let mean net lat n =
    let r = R.make ~net ~lat in
    let rng = Prng.Rng.create ~seed:11 in
    let acc = ref 0 in
    for _ = 1 to 200 do
      let key = Id.random Id.sha1_space rng in
      let origin = Prng.Rng.int rng n in
      acc := !acc + (R.route r ~origin ~key).Routing.hop_count
    done;
    float_of_int !acc /. 200.0
  in
  let h128 = mean net128 lat128 128 and h512 = mean net512 lat512 512 in
  Alcotest.(check bool) "grows" true (h512 > h128);
  (* sqrt scaling: x4 nodes -> about x2 hops, certainly below x3 *)
  Alcotest.(check bool) "sublinear" true (h512 < 3.0 *. h128)

(* --- HIERAS over CAN ----------------------------------------------------------- *)

let make_layered ?(hosts = 200) ?(depth = 2) seed =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts rng in
  let net = Net.build ~space:Id.sha1_space ~hosts:(Array.init hosts (fun i -> i)) () in
  let lm = Binning.Landmark.choose_spread lat ~count:4 rng in
  (lat, net, LCan.build ~base:(R.make ~net ~lat) ~lat ~landmarks:lm ~depth ())

let test_layered_structure () =
  let _, net, lcan = make_layered 12 in
  Alcotest.(check int) "depth" 2 (LCan.depth lcan);
  Alcotest.(check bool) "several rings" true (LCan.ring_count lcan ~layer:2 > 1);
  let total = ref 0 in
  let seen = Hashtbl.create 16 in
  for node = 0 to Net.size net - 1 do
    let o = LCan.order_of_node lcan ~layer:2 node in
    if not (Hashtbl.mem seen o) then begin
      Hashtbl.replace seen o ();
      total := !total + LCan.ring_size_of_node lcan ~layer:2 node
    end
  done;
  Alcotest.(check int) "rings partition the nodes" (Net.size net) !total

let test_layered_validation () =
  let rng = Prng.Rng.create ~seed:13 in
  let lat = Topology.Transit_stub.generate ~hosts:16 rng in
  let net = Net.build ~space:Id.sha1_space ~hosts:(Array.init 16 (fun i -> i)) () in
  let lm = Binning.Landmark.choose_spread lat ~count:2 rng in
  Alcotest.check_raises "depth 1" (Invalid_argument "Hieras.Make: depth must be >= 2") (fun () ->
      ignore (LCan.build ~base:(R.make ~net ~lat) ~lat ~landmarks:lm ~depth:1 ()))

let test_layered_route_correct () =
  let _, net, lcan = make_layered 14 in
  let rng = Prng.Rng.create ~seed:15 in
  for _ = 1 to 300 do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng (Net.size net) in
    let r = LCan.route lcan ~origin ~key in
    Alcotest.(check int) "same owner as flat CAN" (Net.owner_of_key net key) r.Routing.destination;
    Alcotest.(check int) "per-layer hops sum" r.Routing.hop_count
      (Array.fold_left ( + ) 0 r.Routing.hops_per_layer);
    Alcotest.(check (float 1e-6)) "per-layer latency sums" r.Routing.latency
      (Array.fold_left ( +. ) 0.0 r.Routing.latency_per_layer)
  done

(* an origin that owns the key is already the destination, whatever its
   ring zones are *)
let test_layered_owner_origin () =
  let _, net, lcan = make_layered 20 in
  let rng = Prng.Rng.create ~seed:21 in
  for _ = 1 to 500 do
    let key = Id.random Id.sha1_space rng in
    let origin = Net.owner_of_key net key in
    let r = LCan.route lcan ~origin ~key in
    Alcotest.(check int) "no hops" 0 r.Routing.hop_count;
    Alcotest.(check int) "destination" origin r.Routing.destination
  done

let test_layered_depth3 () =
  let _, net, lcan = make_layered ~depth:3 16 in
  let rng = Prng.Rng.create ~seed:17 in
  for _ = 1 to 150 do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng (Net.size net) in
    let r = LCan.route lcan ~origin ~key in
    Alcotest.(check int) "depth-3 correct" (Net.owner_of_key net key) r.Routing.destination
  done

let test_layered_beats_flat_on_latency () =
  let lat, net, lcan = make_layered ~hosts:600 18 in
  let r = R.make ~net ~lat in
  let rng = Prng.Rng.create ~seed:19 in
  let flat = Stats.Summary.create () and layered = Stats.Summary.create () in
  for _ = 1 to 1500 do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng 600 in
    Stats.Summary.add flat (R.route r ~origin ~key).Routing.latency;
    Stats.Summary.add layered (LCan.route lcan ~origin ~key).Routing.latency
  done;
  Alcotest.(check bool) "hierarchy helps CAN" true
    (Stats.Summary.mean layered < 0.7 *. Stats.Summary.mean flat)

(* --- qcheck ---------------------------------------------------------------------- *)

let prop_route_owner =
  QCheck.Test.make ~name:"CAN greedy always reaches the owner" ~count:25
    QCheck.(pair small_nat (int_range 4 80))
    (fun (seed, n) ->
      let rng = Prng.Rng.create ~seed:(seed + 90) in
      let lat = Topology.Transit_stub.generate ~hosts:n rng in
      let net = Net.build ~space:Id.sha1_space ~hosts:(Array.init n (fun i -> i)) () in
      let r = R.make ~net ~lat in
      let ok = ref true in
      for _ = 1 to 20 do
        let key = Id.random Id.sha1_space rng in
        let origin = Prng.Rng.int rng n in
        if (R.route r ~origin ~key).Routing.destination <> Net.owner_of_key net key then ok := false
      done;
      !ok)

let prop_partition_any_size =
  QCheck.Test.make ~name:"zones always partition the torus" ~count:25
    QCheck.(pair small_nat (int_range 1 120))
    (fun (seed, n) ->
      (* random join points: hashed ones are a function of the size alone *)
      let rng = Prng.Rng.create ~seed:(seed + 1000) in
      let points = Array.init n (fun _ -> Array.init 2 (fun _ -> Prng.Rng.float rng 1.0)) in
      Net.zones_partition_space (Net.of_points ~hosts:(Array.init n (fun i -> i)) ~points))

let () =
  Alcotest.run "can"
    [
      ( "zone",
        [
          Alcotest.test_case "unit + split" `Quick test_zone_unit_and_split;
          Alcotest.test_case "split alternates" `Quick test_zone_split_alternates_dims;
          Alcotest.test_case "torus adjacency" `Quick test_zone_torus_adjacency;
          Alcotest.test_case "corner contact" `Quick test_zone_corner_contact_not_adjacent;
          Alcotest.test_case "torus distance" `Quick test_zone_torus_distance;
        ] );
      ( "network",
        [
          Alcotest.test_case "partition invariant" `Quick test_partition_invariant;
          Alcotest.test_case "neighbors symmetric" `Quick test_neighbors_symmetric_and_adjacent;
          Alcotest.test_case "neighbors complete" `Quick test_neighbor_lists_complete;
          Alcotest.test_case "mean neighbors ~2d" `Quick test_mean_neighbors_near_2d;
          Alcotest.test_case "owner of point" `Quick test_owner_of_point;
          Alcotest.test_case "key point" `Quick test_key_point_deterministic;
          Alcotest.test_case "validation" `Quick test_of_points_validation;
          Alcotest.test_case "3 dimensions" `Quick test_dims_parameter;
        ] );
      ( "route",
        [
          Alcotest.test_case "hop scaling" `Slow test_route_hop_scaling;
        ] );
      ( "layered",
        [
          Alcotest.test_case "structure" `Quick test_layered_structure;
          Alcotest.test_case "owner origin takes 0 hops" `Quick test_layered_owner_origin;
          Alcotest.test_case "validation" `Quick test_layered_validation;
          Alcotest.test_case "route correct" `Quick test_layered_route_correct;
          Alcotest.test_case "depth 3" `Quick test_layered_depth3;
          Alcotest.test_case "beats flat CAN" `Slow test_layered_beats_flat_on_latency;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_route_owner; prop_partition_any_size ] );
    ]
