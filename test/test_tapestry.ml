(* Tests for the Tapestry substrate: surrogate root resolution and prefix
   routing with proximity selection. Routes are [Tapestry.Routable]'s walk. *)

module Id = Hashid.Id
module Net = Tapestry.Network
module R = Tapestry.Routable

let make ?(hosts = 150) ?(space = Id.sha1_space) seed =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts rng in
  let net = Net.build ~space ~hosts:(Array.init hosts (fun i -> i)) ~lat in
  (lat, net)

let test_build_validation () =
  let rng = Prng.Rng.create ~seed:1 in
  let lat = Topology.Transit_stub.generate ~hosts:4 rng in
  Alcotest.check_raises "width not multiple of 4"
    (Invalid_argument "Tapestry.Network.build: identifier width must be a multiple of 4")
    (fun () -> ignore (Net.build ~space:(Id.space ~bits:10) ~hosts:[| 0 |] ~lat));
  Alcotest.check_raises "empty" (Invalid_argument "Tapestry.Network.build: empty network")
    (fun () -> ignore (Net.build ~space:Id.sha1_space ~hosts:[||] ~lat))

let test_root_deterministic () =
  let _, net = make 2 in
  let rng = Prng.Rng.create ~seed:3 in
  for _ = 1 to 100 do
    let key = Id.random Id.sha1_space rng in
    Alcotest.(check int) "stable root" (Net.root_of_key net key) (Net.root_of_key net key)
  done

let test_root_of_own_id () =
  let _, net = make 4 in
  (* a node's own identifier roots at that node: surrogate routing always
     finds the exact digits *)
  for node = 0 to Net.size net - 1 do
    Alcotest.(check int) "own id" node (Net.root_of_key net (Net.id net node))
  done

let test_root_path_matches_root () =
  let _, net = make 5 in
  let rng = Prng.Rng.create ~seed:6 in
  let sp = Net.space net in
  for _ = 1 to 100 do
    let key = Id.random Id.sha1_space rng in
    let path = Net.root_path net key in
    let root = Net.root_of_key net key in
    (* the root's digits follow the resolved path *)
    List.iteri
      (fun r d -> Alcotest.(check int) "root follows path" d (Id.digit4 sp (Net.id net root) r))
      path
  done

(* the path each node keeps for the keys it roots is the one surrogate
   routing resolves for any of those keys, from a single node up *)
let test_root_path_of_root () =
  List.iter
    (fun hosts ->
      let _, net = make ~hosts (20 + hosts) in
      let rng = Prng.Rng.create ~seed:hosts in
      for _ = 1 to 200 do
        let key = Id.random Id.sha1_space rng in
        Alcotest.(check (array int))
          (Printf.sprintf "%d nodes" hosts)
          (Array.of_list (Net.root_path net key))
          (Net.root_path_of net (Net.root_of_key net key))
      done)
    [ 1; 2; 17; 150; 1024 ]

(* Each level narrows a run of the sorted ids by bisection: no prefix
   strings, no table lookups, nothing allocated. *)
let test_root_of_key_allocation () =
  let _, net = make ~hosts:1024 15 in
  let keys = Array.init 1000 (fun i -> Id.of_hash Id.sha1_space (Printf.sprintf "key-%d" i)) in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to Array.length keys - 1 do
    sink := !sink + Net.root_of_key net keys.(i)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.0)) "minor words over 1000 calls" 0.0 words

let test_route_reaches_root_from_everywhere () =
  let _, net = make ~hosts:80 7 in
  let r = R.make net in
  let rng = Prng.Rng.create ~seed:8 in
  for _ = 1 to 30 do
    let key = Id.random Id.sha1_space rng in
    let root = Net.root_of_key net key in
    for origin = 0 to Net.size net - 1 do
      Alcotest.(check int) "path-independent destination" root
        (R.route r ~origin ~key).Routing.destination
    done
  done

let test_route_accounting () =
  let _, net = make 9 in
  let rt = R.make net in
  let rng = Prng.Rng.create ~seed:10 in
  for _ = 1 to 200 do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng (Net.size net) in
    let r = R.route rt ~origin ~key in
    Alcotest.(check int) "hop count" r.Routing.hop_count (List.length r.Routing.hops);
    let total =
      List.fold_left (fun acc (h : Routing.hop) -> acc +. h.Routing.latency) 0.0 r.Routing.hops
    in
    Alcotest.(check (float 1e-6)) "latency sums" total r.Routing.latency;
    Alcotest.(check bool) "hops bounded by path length" true
      (r.Routing.hop_count <= List.length (Net.root_path net key) + 1)
  done

let test_route_zero_hops_at_root () =
  let _, net = make 11 in
  let key = Net.id net 5 in
  let r = R.route (R.make net) ~origin:5 ~key in
  Alcotest.(check int) "no hops" 0 r.Routing.hop_count;
  Alcotest.(check int) "stays" 5 r.Routing.destination

let test_logarithmic_hops () =
  let _, net = make ~hosts:1024 12 in
  let r = R.make net in
  let rng = Prng.Rng.create ~seed:13 in
  let acc = ref 0 in
  let trials = 300 in
  for _ = 1 to trials do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng 1024 in
    acc := !acc + (R.route r ~origin ~key).Routing.hop_count
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  Alcotest.(check bool) "hops ~ log16 n" true (mean > 1.2 && mean < 4.5)

let test_single_node () =
  let rng = Prng.Rng.create ~seed:14 in
  let lat = Topology.Transit_stub.generate ~hosts:1 rng in
  let net = Net.build ~space:Id.sha1_space ~hosts:[| 0 |] ~lat in
  let key = Id.of_hash Id.sha1_space "anything" in
  Alcotest.(check int) "root" 0 (Net.root_of_key net key);
  Alcotest.(check int) "route" 0 (R.route (R.make net) ~origin:0 ~key).Routing.destination

let prop_route_ends_at_root =
  QCheck.Test.make ~name:"tapestry routes end at the surrogate root" ~count:20
    QCheck.(pair small_nat (int_range 4 90))
    (fun (seed, n) ->
      let rng = Prng.Rng.create ~seed:(seed + 70) in
      let lat = Topology.Transit_stub.generate ~hosts:n rng in
      let net = Net.build ~space:Id.sha1_space ~hosts:(Array.init n (fun i -> i)) ~lat in
      let r = R.make net in
      let ok = ref true in
      for _ = 1 to 20 do
        let key = Id.random Id.sha1_space rng in
        let origin = Prng.Rng.int rng n in
        if (R.route r ~origin ~key).Routing.destination <> Net.root_of_key net key then ok := false
      done;
      !ok)

let () =
  Alcotest.run "tapestry"
    [
      ( "roots",
        [
          Alcotest.test_case "validation" `Quick test_build_validation;
          Alcotest.test_case "deterministic" `Quick test_root_deterministic;
          Alcotest.test_case "own id" `Quick test_root_of_own_id;
          Alcotest.test_case "path matches root" `Quick test_root_path_matches_root;
          Alcotest.test_case "root's own path" `Quick test_root_path_of_root;
          Alcotest.test_case "root_of_key allocates nothing" `Quick test_root_of_key_allocation;
        ] );
      ( "routing",
        [
          Alcotest.test_case "path-independent" `Slow test_route_reaches_root_from_everywhere;
          Alcotest.test_case "accounting" `Quick test_route_accounting;
          Alcotest.test_case "zero hops at root" `Quick test_route_zero_hops_at_root;
          Alcotest.test_case "logarithmic hops" `Slow test_logarithmic_hops;
          Alcotest.test_case "single node" `Quick test_single_node;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_route_ends_at_root ]);
    ]
