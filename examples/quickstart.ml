(* Quickstart: build a two-layer HIERAS network over a simulated
   transit-stub Internet, store a file name in the DHT, and look it up —
   comparing the route against plain Chord.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let rng = Prng.Rng.create ~seed:42 in

  (* 1. a simulated Internet: 1000 end-hosts on a GT-ITM transit-stub
     topology (the paper's primary model; link delays 100/20/5 ms) *)
  let lat = Topology.Transit_stub.generate ~hosts:1000 rng in
  Printf.printf "topology: %d hosts, %d routers, mean host-host latency %.1f ms\n"
    (Topology.Latency.hosts lat) (Topology.Latency.routers lat)
    (Topology.Latency.mean_host_latency lat rng);

  (* 2. a Chord network: one peer per host, 160-bit SHA-1 identifiers *)
  let space = Hashid.Id.sha1_space in
  let hosts = Array.init 1000 (fun i -> i) in
  let chord = Chord.Network.build ~space ~hosts () in

  (* 3. the HIERAS overlay: 4 landmark nodes spread over the topology,
     distributed binning, two layers *)
  let landmarks = Binning.Landmark.choose_spread lat ~count:4 rng in
  let hieras = Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth:2 () in
  Printf.printf "hieras: %d layer-2 rings\n" (Hieras.Hnetwork.ring_count hieras ~layer:2);

  (* 4. a file is stored at the successor of its hashed name *)
  let key = Workload.Keys.file_key space "icpp-2003-camera-ready.pdf" in
  let owner = Chord.Network.successor_of_key chord key in
  Printf.printf "file key %s...\nstored on node %d\n"
    (String.sub (Hashid.Id.to_hex key) 0 16)
    owner;

  (* 5. route to it from a random peer, with both algorithms *)
  let origin = Prng.Rng.int rng 1000 in
  let rh = Hieras.Hlookup.route hieras ~origin ~key in
  let rc = Chord.Lookup.route chord lat ~origin ~key in
  Printf.printf "\nlookup from node %d:\n" origin;
  Printf.printf "  chord : %d hops, %7.1f ms\n" rc.Chord.Lookup.hop_count rc.Chord.Lookup.latency;
  Printf.printf "  hieras: %d hops, %7.1f ms (%d on the local ring)\n"
    rh.Hieras.Hlookup.hop_count rh.Hieras.Hlookup.latency
    (Array.fold_left ( + ) 0 rh.Hieras.Hlookup.hops_per_layer
    - rh.Hieras.Hlookup.hops_per_layer.(0));
  List.iter
    (fun h ->
      Printf.printf "    layer %d: node %4d -> node %4d  %7.1f ms\n" h.Hieras.Hlookup.layer
        h.Hieras.Hlookup.from_node h.Hieras.Hlookup.to_node h.Hieras.Hlookup.latency)
    rh.Hieras.Hlookup.hops
