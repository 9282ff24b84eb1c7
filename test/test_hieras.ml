(* Tests for the HIERAS core library: ring naming, ring tables, the layered
   oracle network, hierarchical routing and the cost model. *)

module Id = Hashid.Id
module RN = Hieras.Ring_name
module RT = Hieras.Ring_table
module HN = Hieras.Hnetwork
module HL = Hieras.Hlookup
module Cost = Hieras.Cost

let space8 = Id.space ~bits:8

(* --- Ring_name ------------------------------------------------------------- *)

let test_ring_name_basics () =
  let r = RN.make ~layer:2 ~order:"012" in
  Alcotest.(check int) "layer" 2 (RN.layer r);
  Alcotest.(check string) "order" "012" (RN.order r);
  Alcotest.(check string) "to_string" "L2/012" (RN.to_string r);
  Alcotest.(check bool) "equal" true (RN.equal r (RN.make ~layer:2 ~order:"012"));
  Alcotest.(check bool) "layer distinguishes" false (RN.equal r (RN.make ~layer:3 ~order:"012"))

let test_ring_name_validation () =
  Alcotest.check_raises "layer 1" (Invalid_argument "Ring_name.make: lower-layer rings start at layer 2")
    (fun () -> ignore (RN.make ~layer:1 ~order:"0"));
  Alcotest.check_raises "empty order" (Invalid_argument "Ring_name.make: empty order") (fun () ->
      ignore (RN.make ~layer:2 ~order:""))

let test_ring_id_deterministic () =
  let a = RN.ring_id space8 (RN.make ~layer:2 ~order:"012") in
  let b = RN.ring_id space8 (RN.make ~layer:2 ~order:"012") in
  let c = RN.ring_id space8 (RN.make ~layer:3 ~order:"012") in
  Alcotest.(check bool) "same name same id" true (Id.equal a b);
  Alcotest.(check bool) "layer changes id" false (Id.equal a c)

let test_ring_name_compare_total () =
  let l = [ RN.make ~layer:3 ~order:"0"; RN.make ~layer:2 ~order:"1"; RN.make ~layer:2 ~order:"0" ] in
  let sorted = List.sort RN.compare l in
  Alcotest.(check (list string)) "layer then order" [ "L2/0"; "L2/1"; "L3/0" ]
    (List.map RN.to_string sorted)

(* --- Ring_table --------------------------------------------------------------- *)

let entry node v = { RT.node; id = Id.of_int space8 v }
let rname = RN.make ~layer:2 ~order:"01"

let test_ring_table_extremes () =
  let rt = RT.of_members space8 rname [ entry 0 50; entry 1 10; entry 2 200; entry 3 90; entry 4 150 ] in
  let ids = List.map (fun e -> Id.to_int space8 e.RT.id) (RT.entries rt) in
  Alcotest.(check (list int)) "two smallest + two largest" [ 10; 50; 150; 200 ]
    (List.sort compare ids);
  let l, l2, s, s2 = RT.slots rt in
  let v = function Some e -> Id.to_int space8 e.RT.id | None -> -1 in
  Alcotest.(check int) "largest" 200 (v l);
  Alcotest.(check int) "second largest" 150 (v l2);
  Alcotest.(check int) "smallest" 10 (v s);
  Alcotest.(check int) "second smallest" 50 (v s2)

let test_ring_table_small () =
  let rt = RT.of_members space8 rname [ entry 0 42 ] in
  Alcotest.(check int) "single entry" 1 (List.length (RT.entries rt));
  Alcotest.(check bool) "not empty" false (RT.is_empty rt);
  let rt0 = RT.create space8 rname in
  Alcotest.(check bool) "fresh table empty" true (RT.is_empty rt0);
  Alcotest.(check bool) "any_member none" true (RT.any_member rt0 = None)

let test_should_register () =
  let rt = RT.of_members space8 rname [ entry 0 50; entry 1 10; entry 2 200; entry 3 90 ] in
  (* slots: 10,50 (small) 90,200 (large) *)
  Alcotest.(check bool) "smaller than 2nd smallest" true (RT.should_register rt (Id.of_int space8 5));
  Alcotest.(check bool) "larger than 2nd largest" true (RT.should_register rt (Id.of_int space8 95));
  Alcotest.(check bool) "middle value" false (RT.should_register rt (Id.of_int space8 60));
  (* underfull tables always accept new identifiers *)
  let rt2 = RT.of_members space8 rname [ entry 0 50 ] in
  Alcotest.(check bool) "underfull accepts" true (RT.should_register rt2 (Id.of_int space8 60));
  Alcotest.(check bool) "duplicate id refused" false (RT.should_register rt2 (Id.of_int space8 50))

let test_register_and_remove () =
  let rt = RT.of_members space8 rname [ entry 0 50; entry 1 10 ] in
  Alcotest.(check bool) "register changes" true (RT.register rt (entry 2 200));
  Alcotest.(check bool) "re-register same id no-ops" false (RT.register rt (entry 2 200));
  Alcotest.(check bool) "remove present" true (RT.remove rt 2);
  Alcotest.(check bool) "remove absent" false (RT.remove rt 2);
  Alcotest.(check int) "back to 2" 2 (List.length (RT.entries rt))

let test_register_keeps_extremes () =
  let rt = RT.of_members space8 rname [ entry 0 10; entry 1 20; entry 2 30; entry 3 40 ] in
  ignore (RT.register rt (entry 4 5));
  let ids = List.sort compare (List.map (fun e -> Id.to_int space8 e.RT.id) (RT.entries rt)) in
  Alcotest.(check (list int)) "5 displaced 20 or 30" [ 5; 10; 30; 40 ] ids

(* --- Hnetwork -------------------------------------------------------------------- *)

let build_small ?(nodes = 200) ?(depth = 2) ?(landmarks = 4) seed =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts:nodes rng in
  let chord =
    Chord.Network.build ~space:Id.sha1_space ~hosts:(Array.init nodes (fun i -> i)) ()
  in
  let lm = Binning.Landmark.choose_spread lat ~count:landmarks rng in
  (lat, chord, HN.build ~chord ~lat ~landmarks:lm ~depth ())

let test_hnetwork_validation () =
  let rng = Prng.Rng.create ~seed:1 in
  let lat = Topology.Transit_stub.generate ~hosts:16 rng in
  let chord = Chord.Network.build ~space:Id.sha1_space ~hosts:(Array.init 16 (fun i -> i)) () in
  let lm = Binning.Landmark.choose_spread lat ~count:2 rng in
  Alcotest.check_raises "depth 1" (Invalid_argument "Hnetwork.build: depth must be >= 2")
    (fun () -> ignore (HN.build ~chord ~lat ~landmarks:lm ~depth:1 ()))

let test_rings_partition_nodes () =
  let _, chord, hnet = build_small 2 in
  let n = Chord.Network.size chord in
  let names = HN.ring_names hnet ~layer:2 in
  let total =
    List.fold_left
      (fun acc rn -> acc + Array.length (HN.ring_members hnet ~layer:2 ~order:(RN.order rn)))
      0 names
  in
  Alcotest.(check int) "members cover all nodes exactly once" n total;
  Alcotest.(check int) "ring_count agrees" (List.length names) (HN.ring_count hnet ~layer:2);
  (* each node's recorded order matches its ring *)
  for node = 0 to n - 1 do
    let order = HN.order_of_node hnet ~layer:2 node in
    let members = HN.ring_members hnet ~layer:2 ~order in
    Alcotest.(check bool) "node in its ring" true (Array.exists (( = ) node) members)
  done

let test_ring_members_sorted () =
  let _, chord, hnet = build_small 3 in
  List.iter
    (fun rn ->
      let ms = HN.ring_members hnet ~layer:2 ~order:(RN.order rn) in
      for i = 1 to Array.length ms - 1 do
        Alcotest.(check bool) "ascending ids" true
          (Id.compare (Chord.Network.id chord ms.(i - 1)) (Chord.Network.id chord ms.(i)) < 0)
      done)
    (HN.ring_names hnet ~layer:2)

let test_ring_successor_cycles () =
  let _, _, hnet = build_small 4 in
  let n = HN.size hnet in
  for node = 0 to n - 1 do
    let succ = HN.ring_successor hnet ~layer:2 node in
    Alcotest.(check int) "pred . succ = id" node (HN.ring_predecessor hnet ~layer:2 succ);
    Alcotest.(check string) "successor in same ring" (HN.order_of_node hnet ~layer:2 node)
      (HN.order_of_node hnet ~layer:2 succ)
  done

let test_nesting_invariant () =
  let _, _, hnet = build_small ~depth:4 5 in
  Alcotest.(check bool) "nested rings" true (HN.nesting_ok hnet)

let test_fingers_restricted_to_ring () =
  let _, _, hnet = build_small 6 in
  let n = HN.size hnet in
  for node = 0 to n - 1 do
    let order = HN.order_of_node hnet ~layer:2 node in
    let ft = HN.finger_table hnet ~layer:2 node in
    Array.iter
      (fun (_, target) ->
        Alcotest.(check string) "finger stays in ring" order
          (HN.order_of_node hnet ~layer:2 target))
      (Chord.Finger_table.segments ft)
  done

let test_ring_tables () =
  let _, chord, hnet = build_small 7 in
  List.iter
    (fun rn ->
      match HN.ring_table hnet ~layer:2 ~order:(RN.order rn) with
      | None -> Alcotest.fail "every ring has a table"
      | Some rt ->
          let members = HN.ring_members hnet ~layer:2 ~order:(RN.order rn) in
          Alcotest.(check bool) "table entries are ring members" true
            (List.for_all
               (fun e -> Array.exists (( = ) e.RT.node) members)
               (RT.entries rt));
          (* the extremes really are the extremes *)
          let ids = Array.map (Chord.Network.id chord) members in
          let sorted = Array.copy ids in
          Array.sort Id.compare sorted;
          let l, _, s, _ = RT.slots rt in
          (match (l, s) with
          | Some l, Some s ->
              Alcotest.(check bool) "largest" true (Id.equal l.RT.id sorted.(Array.length sorted - 1));
              Alcotest.(check bool) "smallest" true (Id.equal s.RT.id sorted.(0))
          | _ -> Alcotest.fail "slots populated"))
    (HN.ring_names hnet ~layer:2)

let test_ring_table_manager_is_successor () =
  let _, chord, hnet = build_small 8 in
  List.iter
    (fun rn ->
      let rid = RN.ring_id (Chord.Network.space chord) rn in
      Alcotest.(check int) "manager = successor of ring id"
        (Chord.Network.successor_of_key chord rid)
        (HN.ring_table_manager hnet rn))
    (HN.ring_names hnet ~layer:2)

let test_layer_bounds_checked () =
  let _, _, hnet = build_small 9 in
  Alcotest.check_raises "layer 3 on depth-2" (Invalid_argument "Hnetwork: layer out of range")
    (fun () -> ignore (HN.ring_count hnet ~layer:3));
  Alcotest.check_raises "layer 1 ring order" (Invalid_argument "Hnetwork: layer out of range")
    (fun () -> ignore (HN.order_of_node hnet ~layer:1 0))

(* --- Hlookup ------------------------------------------------------------------------ *)

let test_route_correctness_exhaustive () =
  let _, chord, hnet = build_small ~nodes:64 10 in
  let rng = Prng.Rng.create ~seed:11 in
  for _ = 1 to 500 do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng 64 in
    let r = HL.route hnet ~origin ~key in
    Alcotest.(check int) "destination owns key" (Chord.Network.successor_of_key chord key)
      r.HL.destination
  done

let test_route_accounting_consistent () =
  let _, _, hnet = build_small ~nodes:100 ~depth:3 12 in
  let rng = Prng.Rng.create ~seed:13 in
  for _ = 1 to 300 do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng 100 in
    let r = HL.route hnet ~origin ~key in
    Alcotest.(check int) "per-layer hops sum" r.HL.hop_count
      (Array.fold_left ( + ) 0 r.HL.hops_per_layer);
    Alcotest.(check (float 1e-6)) "per-layer latency sums" r.HL.latency
      (Array.fold_left ( +. ) 0.0 r.HL.latency_per_layer);
    Alcotest.(check int) "hops list length" r.HL.hop_count (List.length r.HL.hops);
    Alcotest.(check (float 1e-6)) "hop latencies sum" r.HL.latency
      (List.fold_left (fun acc (h : HL.hop) -> acc +. h.HL.latency) 0.0 r.HL.hops);
    Alcotest.(check bool) "finished_at in range" true
      (r.HL.finished_at_layer >= 1 && r.HL.finished_at_layer <= 3)
  done

let test_route_owner_origin () =
  let _, chord, hnet = build_small ~nodes:32 14 in
  (* pick a key owned by its origin *)
  let origin = 5 in
  let key = Chord.Network.id chord origin in
  let r = HL.route hnet ~origin ~key in
  Alcotest.(check int) "zero hops" 0 r.HL.hop_count;
  Alcotest.(check int) "stays home" origin r.HL.destination

let test_route_lower_layer_stays_in_ring () =
  let _, _, hnet = build_small ~nodes:150 15 in
  let rng = Prng.Rng.create ~seed:16 in
  for _ = 1 to 200 do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng 150 in
    let r = HL.route hnet ~origin ~key in
    let origin_order = HN.order_of_node hnet ~layer:2 origin in
    List.iter
      (fun h ->
        if h.HL.layer = 2 then begin
          Alcotest.(check string) "layer-2 hop stays in origin's ring" origin_order
            (HN.order_of_node hnet ~layer:2 h.HL.from_node);
          Alcotest.(check string) "target too" origin_order
            (HN.order_of_node hnet ~layer:2 h.HL.to_node)
        end)
      r.HL.hops
  done

let test_hieras_vs_chord_on_workload () =
  (* the headline claim at small scale: comparable hops, lower latency *)
  let lat, chord, hnet = build_small ~nodes:400 ~landmarks:6 17 in
  let rng = Prng.Rng.create ~seed:18 in
  let ch = Stats.Summary.create () and hh = Stats.Summary.create () in
  let cl = Stats.Summary.create () and hl = Stats.Summary.create () in
  for _ = 1 to 3000 do
    let key = Id.random Id.sha1_space rng in
    let origin = Prng.Rng.int rng 400 in
    let rc = Chord.Lookup.route chord lat ~origin ~key in
    let rh = HL.route hnet ~origin ~key in
    Stats.Summary.add ch (float_of_int rc.Chord.Lookup.hop_count);
    Stats.Summary.add hh (float_of_int rh.HL.hop_count);
    Stats.Summary.add cl rc.Chord.Lookup.latency;
    Stats.Summary.add hl rh.HL.latency
  done;
  let hop_overhead = (Stats.Summary.mean hh /. Stats.Summary.mean ch) -. 1.0 in
  let latency_ratio = Stats.Summary.mean hl /. Stats.Summary.mean cl in
  Alcotest.(check bool) "hop overhead below 15%" true (hop_overhead < 0.15);
  Alcotest.(check bool) "latency materially lower" true (latency_ratio < 0.85)

(* --- Location service ------------------------------------------------------------ *)

let test_location_publish_lookup () =
  let _, chord, hnet = build_small ~nodes:100 30 in
  let svc = Hieras.Location.create hnet in
  let pub = Hieras.Location.publish svc ~from:7 ~name:"report.pdf" in
  Alcotest.(check int) "record on the key's owner"
    (Chord.Network.successor_of_key chord
       (Id.of_hash Id.sha1_space "file:report.pdf"))
    pub.Hieras.Location.owner;
  let q = Hieras.Location.lookup svc ~from:42 ~name:"report.pdf" in
  Alcotest.(check (list int)) "advertiser found" [ 7 ] q.Hieras.Location.locations;
  Alcotest.(check int) "same owner" pub.Hieras.Location.owner q.Hieras.Location.owner;
  Alcotest.(check (float 1e-6)) "total = route + response"
    (q.Hieras.Location.route.HL.latency +. q.Hieras.Location.response_latency)
    q.Hieras.Location.total_latency

let test_location_missing_file () =
  let _, _, hnet = build_small ~nodes:64 31 in
  let svc = Hieras.Location.create hnet in
  let q = Hieras.Location.lookup svc ~from:3 ~name:"nowhere.txt" in
  Alcotest.(check (list int)) "not found" [] q.Hieras.Location.locations

let test_location_multiple_publishers () =
  let _, _, hnet = build_small ~nodes:64 32 in
  let svc = Hieras.Location.create hnet in
  ignore (Hieras.Location.publish svc ~from:1 ~name:"x");
  ignore (Hieras.Location.publish svc ~from:2 ~name:"x");
  ignore (Hieras.Location.publish svc ~from:1 ~name:"x");
  (* idempotent *)
  let q = Hieras.Location.lookup svc ~from:9 ~name:"x" in
  Alcotest.(check (list int)) "both advertisers, newest first" [ 2; 1 ]
    q.Hieras.Location.locations

let test_location_unpublish () =
  let _, _, hnet = build_small ~nodes:64 33 in
  let svc = Hieras.Location.create hnet in
  ignore (Hieras.Location.publish svc ~from:5 ~name:"y");
  Alcotest.(check bool) "withdrawn" true (Hieras.Location.unpublish svc ~from:5 ~name:"y");
  Alcotest.(check bool) "second withdrawal is a no-op" false
    (Hieras.Location.unpublish svc ~from:5 ~name:"y");
  let q = Hieras.Location.lookup svc ~from:9 ~name:"y" in
  Alcotest.(check (list int)) "gone" [] q.Hieras.Location.locations

let test_location_load_accounting () =
  let _, _, hnet = build_small ~nodes:64 34 in
  let svc = Hieras.Location.create hnet in
  for i = 0 to 19 do
    ignore (Hieras.Location.publish svc ~from:(i mod 7) ~name:(Printf.sprintf "f%d" i))
  done;
  let total = ref 0 in
  for node = 0 to 63 do
    total := !total + Hieras.Location.stored_on svc node
  done;
  Alcotest.(check int) "every record counted once" 20 !total

(* --- Cost ---------------------------------------------------------------------------- *)

let test_cost_entry_bytes () =
  Alcotest.(check int) "sha1 entry" 26 (Cost.entry_bytes Id.sha1_space);
  Alcotest.(check int) "8-bit entry" 7 (Cost.entry_bytes space8)

let test_cost_per_node_and_totals () =
  let _, _, hnet = build_small ~nodes:120 ~depth:3 19 in
  let totals = Cost.totals hnet ~succ_list_len:8 in
  Alcotest.(check int) "nodes" 120 totals.Cost.nodes;
  Alcotest.(check int) "depth" 3 totals.Cost.depth;
  Alcotest.(check bool) "hieras costs more state than chord" true
    (totals.Cost.state_overhead_ratio > 1.0);
  Alcotest.(check bool) "but only modestly (< 4x)" true (totals.Cost.state_overhead_ratio < 4.0);
  (* lower layers have no more distinct fingers than the global layer *)
  let segs = totals.Cost.mean_finger_segments_per_layer in
  Alcotest.(check int) "one entry per layer" 3 (Array.length segs);
  Alcotest.(check bool) "lower layers smaller tables" true (segs.(1) <= segs.(0));
  (* ring tables exist and are counted *)
  Alcotest.(check bool) "ring tables counted" true
    (totals.Cost.ring_tables
     = HN.ring_count hnet ~layer:2 + HN.ring_count hnet ~layer:3);
  (* stabilize links: lower layers are cheaper on TS topologies *)
  let stab = totals.Cost.mean_stabilize_link_latency_per_layer in
  Alcotest.(check bool) "lower-layer stabilize cheaper" true (stab.(1) < stab.(0))

let test_cost_state_is_kilobytes () =
  (* the paper's §3.4 claim: multi-layer finger tables occupy only hundreds
     or thousands of bytes *)
  let _, _, hnet = build_small ~nodes:200 ~depth:2 20 in
  let totals = Cost.totals hnet ~succ_list_len:8 in
  Alcotest.(check bool) "mean state below 8 KiB" true (totals.Cost.mean_state_bytes < 8192.0)

(* --- qcheck ---------------------------------------------------------------------------- *)

let prop_route_matches_chord_owner =
  QCheck.Test.make ~name:"hieras destination = chord owner (random nets)" ~count:20
    QCheck.(pair small_nat (int_range 16 80))
    (fun (seed, n) ->
      let rng = Prng.Rng.create ~seed:(seed + 100) in
      let lat = Topology.Transit_stub.generate ~hosts:n rng in
      let chord = Chord.Network.build ~space:Id.sha1_space ~hosts:(Array.init n (fun i -> i)) () in
      let lm = Binning.Landmark.choose_spread lat ~count:3 rng in
      let hnet = HN.build ~chord ~lat ~landmarks:lm ~depth:2 () in
      let ok = ref true in
      for _ = 1 to 30 do
        let key = Id.random Id.sha1_space rng in
        let origin = Prng.Rng.int rng n in
        let r = HL.route hnet ~origin ~key in
        if r.HL.destination <> Chord.Network.successor_of_key chord key then ok := false
      done;
      !ok)

let prop_hops_monotone_toward_key =
  (* every hop before the final one lands strictly before the key (clockwise):
     the predecessor-stopping rule means the route never overshoots, which is
     what keeps upper layers from re-routing around the circle *)
  QCheck.Test.make ~name:"hieras hops never overshoot the key" ~count:15
    QCheck.(pair small_nat (int_range 24 100))
    (fun (seed, n) ->
      let rng = Prng.Rng.create ~seed:(seed + 900) in
      let lat = Topology.Transit_stub.generate ~hosts:n rng in
      let chord = Chord.Network.build ~space:Id.sha1_space ~hosts:(Array.init n (fun i -> i)) () in
      let lm = Binning.Landmark.choose_spread lat ~count:4 rng in
      let hnet = HN.build ~chord ~lat ~landmarks:lm ~depth:3 () in
      let ok = ref true in
      for _ = 1 to 25 do
        let key = Id.random Id.sha1_space rng in
        let origin = Prng.Rng.int rng n in
        let r = HL.route hnet ~origin ~key in
        let rec check = function
          | [] | [ _ ] -> ()
          | (h : HL.hop) :: rest ->
              (* intermediate hop targets lie strictly inside (origin, key) *)
              if not (Id.in_oo (Chord.Network.id chord h.HL.to_node)
                        ~lo:(Chord.Network.id chord r.HL.origin) ~hi:key)
              then ok := false;
              check rest
        in
        check r.HL.hops
      done;
      !ok)

let prop_nesting_all_depths =
  QCheck.Test.make ~name:"hnetwork nesting holds for random builds" ~count:10
    QCheck.(pair small_nat (int_range 2 4))
    (fun (seed, depth) ->
      let rng = Prng.Rng.create ~seed:(seed + 500) in
      let n = 80 in
      let lat = Topology.Transit_stub.generate ~hosts:n rng in
      let chord = Chord.Network.build ~space:Id.sha1_space ~hosts:(Array.init n (fun i -> i)) () in
      let lm = Binning.Landmark.choose_spread lat ~count:4 rng in
      let hnet = HN.build ~chord ~lat ~landmarks:lm ~depth () in
      HN.nesting_ok hnet)

let () =
  Alcotest.run "hieras"
    [
      ( "ring_name",
        [
          Alcotest.test_case "basics" `Quick test_ring_name_basics;
          Alcotest.test_case "validation" `Quick test_ring_name_validation;
          Alcotest.test_case "ring id" `Quick test_ring_id_deterministic;
          Alcotest.test_case "compare" `Quick test_ring_name_compare_total;
        ] );
      ( "ring_table",
        [
          Alcotest.test_case "extremes" `Quick test_ring_table_extremes;
          Alcotest.test_case "small tables" `Quick test_ring_table_small;
          Alcotest.test_case "should_register" `Quick test_should_register;
          Alcotest.test_case "register/remove" `Quick test_register_and_remove;
          Alcotest.test_case "register keeps extremes" `Quick test_register_keeps_extremes;
        ] );
      ( "hnetwork",
        [
          Alcotest.test_case "validation" `Quick test_hnetwork_validation;
          Alcotest.test_case "rings partition" `Quick test_rings_partition_nodes;
          Alcotest.test_case "members sorted" `Quick test_ring_members_sorted;
          Alcotest.test_case "ring cycles" `Quick test_ring_successor_cycles;
          Alcotest.test_case "nesting" `Quick test_nesting_invariant;
          Alcotest.test_case "fingers in ring" `Quick test_fingers_restricted_to_ring;
          Alcotest.test_case "ring tables" `Quick test_ring_tables;
          Alcotest.test_case "manager = successor" `Quick test_ring_table_manager_is_successor;
          Alcotest.test_case "layer bounds" `Quick test_layer_bounds_checked;
        ] );
      ( "hlookup",
        [
          Alcotest.test_case "correctness" `Quick test_route_correctness_exhaustive;
          Alcotest.test_case "accounting" `Quick test_route_accounting_consistent;
          Alcotest.test_case "owner origin" `Quick test_route_owner_origin;
          Alcotest.test_case "layer-2 hops stay in ring" `Quick test_route_lower_layer_stays_in_ring;
          Alcotest.test_case "beats chord on latency" `Slow test_hieras_vs_chord_on_workload;
        ] );
      ( "location",
        [
          Alcotest.test_case "publish + lookup" `Quick test_location_publish_lookup;
          Alcotest.test_case "missing file" `Quick test_location_missing_file;
          Alcotest.test_case "multiple publishers" `Quick test_location_multiple_publishers;
          Alcotest.test_case "unpublish" `Quick test_location_unpublish;
          Alcotest.test_case "load accounting" `Quick test_location_load_accounting;
        ] );
      ( "cost",
        [
          Alcotest.test_case "entry bytes" `Quick test_cost_entry_bytes;
          Alcotest.test_case "totals" `Quick test_cost_per_node_and_totals;
          Alcotest.test_case "state is kilobytes" `Quick test_cost_state_is_kilobytes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_route_matches_chord_owner;
            prop_hops_monotone_toward_key;
            prop_nesting_all_depths;
          ] );
    ]
