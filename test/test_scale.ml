(* Tests for the million-node scale machinery, exercised at small sizes:
   the packed struct-of-arrays network against the record-level
   [Finger_table.build] reference (qcheck observational equality), the
   analytic routing mode against the full simulated walk (identical hop
   sequences, destinations and histograms), and the determinism contract of
   the sharded replay — jobs-independent results and the committed golden
   bytes. *)

module Id = Hashid.Id
module Network = Chord.Network
module FT = Chord.Finger_table
module Hnetwork = Hieras.Hnetwork
module Scale = Experiments.Scale
module Rng = Prng.Rng

let space = Id.sha1_space

(* n distinct random identifiers, sorted ascending — the canonical input of
   [Network.of_ids] *)
let sorted_ids ~n rng =
  let tbl = Hashtbl.create (2 * n) in
  let rec fresh () =
    let id = Id.random space rng in
    if Hashtbl.mem tbl id then fresh ()
    else begin
      Hashtbl.replace tbl id ();
      id
    end
  in
  let ids = Array.init n (fun _ -> fresh ()) in
  Array.sort Id.compare ids;
  ids

(* --- packed network == record-level reference ------------------------------ *)

(* The packed arena is filled by [Finger_table.pack_arena]'s sweep (start
   prefixes, per-exponent cursors, galloping); [Finger_table.build] finds
   every finger on its own by bisection. Observational equality of the two
   over random networks pins the sweep as exact. *)
let test_packed_equals_reference () =
  QCheck.Test.make ~count:25 ~name:"packed network == Finger_table.build reference"
    QCheck.(pair (int_range 2 80) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = sorted_ids ~n rng in
      let t = Network.of_ids ~space ~ids ~hosts:(Array.init n (fun i -> i)) () in
      let member_nodes = Array.init n (fun i -> i) in
      for i = 0 to n - 1 do
        if Network.successor t i <> (i + 1) mod n then
          QCheck.Test.fail_reportf "successor of %d" i;
        if Network.predecessor t i <> (i + n - 1) mod n then
          QCheck.Test.fail_reportf "predecessor of %d" i;
        let view = Network.finger_table t i in
        let ref_t =
          FT.build space ~owner:i ~owner_id:ids.(i) ~member_ids:ids ~member_nodes
        in
        if FT.segments view <> FT.segments ref_t then
          QCheck.Test.fail_reportf "finger segments of node %d differ" i;
        (* every conceptual finger slot resolves identically through both *)
        let bits = Id.bits space in
        for e = 0 to bits - 1 do
          if FT.finger view e <> FT.finger ref_t e then
            QCheck.Test.fail_reportf "finger %d of node %d" e i
        done;
        (* the arena scan agrees with the record-level scan for random keys *)
        for _ = 1 to 8 do
          let key = Id.random space rng in
          let got = Network.closest_preceding_finger t i ~key in
          let want =
            match FT.closest_preceding ref_t ~id_of:(Network.id t) ~self:ids.(i) ~key with
            | Some v -> v
            | None -> -1
          in
          if got <> want then QCheck.Test.fail_reportf "closest_preceding at node %d" i
        done
      done;
      (* owner binary search (prefix column + fallback) vs linear scan *)
      for _ = 1 to 32 do
        let key = Id.random space rng in
        let want =
          let rec scan i = if i = n then 0 else if Id.compare ids.(i) key >= 0 then i else scan (i + 1) in
          scan 0
        in
        if Network.successor_of_key t key <> want then
          QCheck.Test.fail_reportf "successor_of_key"
      done;
      true)

(* Per-layer HIERAS views: ring successor/predecessor off the packed arrays
   and every ring-restricted finger table against the reference built over
   that ring's members — its segments, its closest preceding finger and its
   farthest-first failover candidates (what the resilient ring walks read). *)
let test_hieras_layers_equal_reference () =
  QCheck.Test.make ~count:8 ~name:"hieras layer packs == per-ring reference"
    QCheck.(triple (int_range 8 64) (int_range 2 4) (int_range 0 10_000))
    (fun (n, depth, seed) ->
      let spec =
        { Scale.default_spec with Scale.nodes = n; requests = 0; depth; seed }
      in
      let chord, hnet = Scale.networks spec in
      let rng = Rng.create ~seed:(seed + 7) in
      for layer = 2 to depth do
        List.iter
          (fun rname ->
            let order = Hieras.Ring_name.order rname in
            let members = Hnetwork.ring_members hnet ~layer ~order in
            let m = Array.length members in
            let member_ids = Array.map (Network.id chord) members in
            Array.iteri
              (fun pos node ->
                if Hnetwork.ring_successor hnet ~layer node <> members.((pos + 1) mod m)
                then QCheck.Test.fail_reportf "ring successor (layer %d)" layer;
                if
                  Hnetwork.ring_predecessor hnet ~layer node
                  <> members.((pos + m - 1) mod m)
                then QCheck.Test.fail_reportf "ring predecessor (layer %d)" layer;
                let view = Hnetwork.finger_table hnet ~layer node in
                let ref_t =
                  FT.build space ~owner:node ~owner_id:(Network.id chord node)
                    ~member_ids ~member_nodes:members
                in
                if FT.segments view <> FT.segments ref_t then
                  QCheck.Test.fail_reportf "layer %d finger segments of node %d" layer node;
                let key = Id.random space rng in
                let got = Hnetwork.closest_preceding_finger hnet ~layer node ~key in
                let want =
                  match
                    FT.closest_preceding ref_t ~id_of:(Network.id chord)
                      ~self:(Network.id chord node) ~key
                  with
                  | Some v -> v
                  | None -> -1
                in
                if got <> want then
                  QCheck.Test.fail_reportf "layer %d closest_preceding" layer;
                let got = Hnetwork.preceding_candidates hnet ~layer node ~key in
                let want =
                  FT.preceding_candidates ref_t ~id_of:(Network.id chord)
                    ~self:(Network.id chord node) ~key
                in
                if got <> want then
                  QCheck.Test.fail_reportf "layer %d preceding_candidates" layer)
              members)
          (Hnetwork.ring_names hnet ~layer)
      done;
      true)

(* --- identifiers random draws never reach ------------------------------------ *)

(* Two random SHA-1 ids tie on their 56-bit prefix with probability 2^-56,
   so the sweep's prefix ties, its carries into the prefix and its starts
   that wrap past zero onto a tie need ids built for them. Each id takes
   its bits above the prefix's low end from a few shared patterns (all
   ones at the top of the space, zero at the bottom, one random prefix and
   that prefix plus one) or a fresh draw, and its low bits from all ones,
   all ones but one, zero, a small value or a random draw. *)
let edge_ids sp ~n rng =
  let bits = Id.bits sp in
  let low = 8 * max 0 (Id.bytes sp - 7) in
  let of_bits f =
    let x = ref (Id.zero sp) in
    for i = 0 to bits - 1 do
      if f i then x := Id.add_pow2 sp !x i
    done;
    !x
  in
  let shared = Array.init bits (fun _ -> Rng.bool rng) in
  let tbl = Hashtbl.create (2 * n) in
  for _ = 1 to n do
    let fresh = Array.init bits (fun _ -> Rng.bool rng) in
    let zero_bit = Rng.int rng low in
    let high_kind = Rng.int rng 5 and low_kind = Rng.int rng 5 in
    let id =
      of_bits (fun i ->
          if i >= low then
            match high_kind with 0 -> true | 1 -> false | 2 | 3 -> shared.(i) | _ -> fresh.(i)
          else
            match low_kind with
            | 0 -> true
            | 1 -> i <> zero_bit
            | 2 -> false
            | 3 -> i < 8 && fresh.(i)
            | _ -> fresh.(i))
    in
    let id = if high_kind = 3 then Id.add_pow2 sp id low else id in
    Hashtbl.replace tbl id ()
  done;
  let ids = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort Id.compare ids;
  ids

(* Every node's segments, on the global ring and on one layer of up to four
   random rings, against [Finger_table.build] over its member set. *)
let test_packed_edge_ids () =
  QCheck.Test.make ~count:60 ~name:"packed arenas == build on tied, carrying and wrapping ids"
    QCheck.(triple (oneofl [ 57; 60; 64; 160 ]) (int_range 1 48) (int_range 0 10_000))
    (fun (bits, n, seed) ->
      let sp = Id.space ~bits in
      let rng = Rng.create ~seed in
      let ids = edge_ids sp ~n rng in
      let n = Array.length ids in
      let net = Network.of_ids ~space:sp ~ids ~hosts:(Array.init n (fun i -> i)) () in
      let check ~what view ~members =
        Array.iter
          (fun node ->
            let ref_t =
              FT.build sp ~owner:node ~owner_id:ids.(node)
                ~member_ids:(Array.map (Array.get ids) members)
                ~member_nodes:members
            in
            if FT.segments (view node) <> FT.segments ref_t then
              QCheck.Test.fail_reportf "%d bits, %s: segments of node %d differ" bits what node)
          members
      in
      check ~what:"global ring" (Network.finger_table net) ~members:(Array.init n (fun i -> i));
      let t = Chord.Routable.of_network net in
      let ring_of = Array.init n (fun _ -> Rng.int rng (1 + Rng.int rng 4)) in
      let rings =
        List.init 4 (fun r ->
            Array.of_list (List.filter (fun i -> ring_of.(i) = r) (List.init n Fun.id)))
        |> List.filter (fun m -> Array.length m > 0)
      in
      let layer = Chord.Routable.make_layer t ~rings in
      List.iter
        (fun members ->
          check ~what:"layer ring" (Chord.Routable.layer_finger_table t layer) ~members)
        rings;
      true)

(* Owners are packed in ascending identifier order by construction: a node
   must be its set's next member, and the members must ascend. *)
let test_pack_arena_rejects_disorder () =
  let ids = sorted_ids ~n:3 (Rng.create ~seed:5) in
  let pre = Array.map Id.prefix_int ids in
  let pack ids pre nodes =
    ignore (FT.pack_arena space ~sets:[| { FT.ids; pre; nodes } |] ~set_of:(fun _ -> 0))
  in
  let rejects what msg f =
    Alcotest.check_raises what (Invalid_argument ("Finger_table.pack_arena: " ^ msg)) f
  in
  pack ids pre [| 0; 1; 2 |];
  rejects "nodes out of order" "node not its set's next member" (fun () ->
      pack ids pre [| 0; 2; 1 |]);
  rejects "node missing" "node not its set's next member" (fun () -> pack ids pre [| 0; 1; 3 |]);
  let rev = Array.of_list (List.rev (Array.to_list ids)) in
  rejects "ids descending" "members not ascending" (fun () ->
      pack rev (Array.map Id.prefix_int rev) [| 0; 1; 2 |]);
  rejects "prefix column misaligned" "prefix column misaligned" (fun () ->
      pack ids (Array.map Id.prefix_int rev) [| 0; 1; 2 |])

(* The sweep judges a start by its prefix, without building it, and packs
   into preallocated buffers: its minor allocation is per set, not per node
   (0.0 words a node here, against 648.7 when every probe built its start
   and returned a tuple). *)
let test_pack_arena_allocation () =
  let n = 20_000 in
  let ids = sorted_ids ~n (Rng.create ~seed:11) in
  let set = { FT.ids; pre = Array.map Id.prefix_int ids; nodes = Array.init n Fun.id } in
  let before = Gc.minor_words () in
  let arena = FT.pack_arena space ~sets:[| set |] ~set_of:(fun _ -> 0) in
  let per_node = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "one offset per node" (n + 1) (Array.length arena.FT.off);
  Alcotest.(check bool)
    (Printf.sprintf "pack_arena stays under 8 minor words a node (%.1f)" per_node)
    true (per_node < 8.0)

(* --- exhaustive 8-bit differential of the owner rule ------------------------- *)

(* [Chord.Routable] decides every hop from node indices and the key's owner
   alone. In an 8-bit space every key 0..255 can be tried at every node, so
   keys equal to node identifiers, owners that are the current node and arc
   ends that are the current node all occur — cases random 160-bit keys never
   reach. Each primitive must decide exactly as its identifier-space
   reference ([Id.in_oc], [FT.closest_preceding], [FT.preceding_candidates])
   does, on the global ring and on HIERAS layers of depth 2 and 3. *)
module R = Chord.Routable
module L = Hieras.Layered.Make (Chord.Routable)

let space8 = Id.space ~bits:8

(* n distinct 8-bit identifiers, ascending, so node i runs on host i *)
let ids8 ~n ~seed =
  let pool = Array.init 256 (fun v -> v) in
  let rng = Rng.create ~seed in
  for i = 255 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- x
  done;
  let vs = Array.sub pool 0 n in
  Array.sort compare vs;
  Array.map (Id.of_int space8) vs

(* two landmarks: nodes 0 and n-1 share a ring that straddles identifier
   zero, node n/2 sits alone, and the rest interleave in three layer-2 rings
   that layer 3 splits further *)
let measure8 ~n ~host =
  if host = 0 || host = n - 1 then [| 150.0; 150.0 |]
  else if host = n / 2 then [| 150.0; 5.0 |]
  else
    match host mod 3 with
    | 0 -> [| (if host mod 2 = 0 then 5.0 else 15.0); 5.0 |]
    | 1 -> [| 50.0; 50.0 |]
    | _ -> [| 5.0; (if host mod 2 = 0 then 50.0 else 150.0) |]

let opt_or d = function Some v -> v | None -> d

(* checks one network of [n] nodes; records each layer ring's size, capped
   at 3, in [sizes] *)
let check_network8 sizes n =
  let ids = ids8 ~n ~seed:(31 * n) in
  let net = Network.of_ids ~space:space8 ~ids ~hosts:(Array.init n (fun i -> i)) () in
  let t = R.of_network net in
  let id_of = Network.id net in
  let member_nodes = Array.init n (fun i -> i) in
  let fail fmt = Alcotest.failf ("n=%d: " ^^ fmt) n in
  for cur = 0 to n - 1 do
    let ref_t = FT.build space8 ~owner:cur ~owner_id:ids.(cur) ~member_ids:ids ~member_nodes in
    let succ = (cur + 1) mod n in
    for k = 0 to 255 do
      let key = Id.of_int space8 k in
      let owner = Network.successor_of_key net key in
      if not (Id.in_oc key ~lo:ids.((owner + n - 1) mod n) ~hi:ids.(owner)) then
        fail "owner of key %d" k;
      let closest = FT.closest_preceding ref_t ~id_of ~self:ids.(cur) ~key in
      if Network.closest_preceding_finger net cur ~key <> opt_or (-1) closest then
        fail "closest_preceding_finger at %d, key %d" cur k;
      let cands = FT.preceding_candidates ref_t ~id_of ~self:ids.(cur) ~key in
      if R.candidates t ~cur ~owner ~key <> cands then fail "candidates at %d, key %d" cur k;
      (* the successor when the key lies on (cur, succ], else the closest
         preceding finger, else the successor *)
      let to_succ = Id.in_oc key ~lo:ids.(cur) ~hi:ids.(succ) in
      let step = if to_succ then succ else opt_or succ closest in
      if cur <> owner && R.step t ~cur ~owner ~key <> step then fail "step at %d, key %d" cur k;
      let early = if to_succ then Some succ else None in
      if R.early_finish t ~cur ~owner ~key <> early then fail "early_finish at %d, key %d" cur k;
      for upto = 0 to n - 1 do
        if R.covers t ~cur ~upto ~owner ~key <> Id.in_oc key ~lo:ids.(cur) ~hi:ids.(upto) then
          fail "covers at %d up to %d, key %d" cur upto k
      done
    done
  done;
  (* the same rule over ring-restricted arenas *)
  let star = Topology.Graph.freeze (Topology.Graph.builder 1) in
  let lat =
    Topology.Latency.create ~router_graph:star ~host_router:(Array.make n 0)
      ~host_access:(Array.make n 1.0) ()
  in
  let landmarks = Binning.Landmark.of_routers [| 0; 0 |] in
  for depth = 2 to 3 do
    let hnet = Hnetwork.build ~chord:net ~lat ~landmarks ~depth ~measure:(measure8 ~n) () in
    for layer = 2 to depth do
      let lr = L.layer_state (Hnetwork.layered hnet) ~layer in
      List.iter
        (fun rname ->
          let members = Hnetwork.ring_members hnet ~layer ~order:(Hieras.Ring_name.order rname) in
          let m = Array.length members in
          Hashtbl.replace sizes (min m 3) ();
          let member_ids = Array.map id_of members in
          Array.iteri
            (fun pos cur ->
              let ref_t =
                FT.build space8 ~owner:cur ~owner_id:ids.(cur) ~member_ids ~member_nodes:members
              in
              let ring_succ = members.((pos + 1) mod m) in
              for k = 0 to 255 do
                let key = Id.of_int space8 k in
                let owner = Network.successor_of_key net key in
                (* the ring walk stops where the key lies on (cur, ring_succ] *)
                let want =
                  if Id.in_oc key ~lo:ids.(cur) ~hi:ids.(ring_succ) then cur
                  else opt_or ring_succ (FT.closest_preceding ref_t ~id_of ~self:ids.(cur) ~key)
                in
                if R.ring_step t lr ~cur ~owner ~key <> want then
                  fail "depth %d layer %d ring_step at %d, key %d" depth layer cur k;
                let cands = FT.preceding_candidates ref_t ~id_of ~self:ids.(cur) ~key in
                if R.ring_candidates t lr ~cur ~owner ~key <> cands then
                  fail "depth %d layer %d ring_candidates at %d, key %d" depth layer cur k
              done)
            members)
        (Hnetwork.ring_names hnet ~layer)
    done
  done

let test_exhaustive_8bit () =
  let sizes = Hashtbl.create 8 in
  List.iter (check_network8 sizes) [ 1; 2; 3; 17; 64 ];
  (* singleton, two-member and larger rings all occurred *)
  Alcotest.(check (list int))
    "ring sizes seen (3 = three or more)" [ 1; 2; 3 ]
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) sizes []))

(* --- analytic mode == simulated walk --------------------------------------- *)

(* Replays the scale experiment's own request stream through both the
   analytic walk and the full simulated route, comparing hop-for-hop and as
   whole histograms — the cross-validation the ISSUE requires at N <= 2000. *)
let test_analytic_equals_simulated () =
  let spec =
    { Scale.default_spec with Scale.nodes = 512; requests = 512; depth = 3; seed = 4242 }
  in
  let chord, hnet = Scale.networks spec in
  let lat = Hnetwork.latency_oracle hnet in
  let hist_a = Array.make 64 0 and hist_s = Array.make 64 0 in
  let hhist_a = Array.make 64 0 and hhist_s = Array.make 64 0 in
  Scale.iter_requests spec ~f:(fun i ~origin ~key ->
      let c_hops, c_dest = Chord.Lookup.route_hops_only chord ~origin ~key in
      let rc = Chord.Lookup.route chord lat ~origin ~key in
      Alcotest.(check int) (Printf.sprintf "chord hops (req %d)" i) rc.Chord.Lookup.hop_count c_hops;
      Alcotest.(check int) (Printf.sprintf "chord dest (req %d)" i) rc.Chord.Lookup.destination c_dest;
      let h_hops, per_layer, h_dest, fin = Hieras.Hlookup.route_hops_only hnet ~origin ~key in
      let rh = Hieras.Hlookup.route hnet ~origin ~key in
      Alcotest.(check int) (Printf.sprintf "hieras hops (req %d)" i) rh.Hieras.Hlookup.hop_count h_hops;
      Alcotest.(check int) (Printf.sprintf "hieras dest (req %d)" i) rh.Hieras.Hlookup.destination h_dest;
      Alcotest.(check (array int))
        (Printf.sprintf "hieras per-layer (req %d)" i)
        rh.Hieras.Hlookup.hops_per_layer per_layer;
      Alcotest.(check int)
        (Printf.sprintf "hieras finished_at (req %d)" i)
        rh.Hieras.Hlookup.finished_at_layer fin;
      hist_a.(min 63 c_hops) <- hist_a.(min 63 c_hops) + 1;
      hist_s.(min 63 rc.Chord.Lookup.hop_count) <- hist_s.(min 63 rc.Chord.Lookup.hop_count) + 1;
      hhist_a.(min 63 h_hops) <- hhist_a.(min 63 h_hops) + 1;
      hhist_s.(min 63 rh.Hieras.Hlookup.hop_count) <- hhist_s.(min 63 rh.Hieras.Hlookup.hop_count) + 1);
  Alcotest.(check (array int)) "chord hop histogram" hist_s hist_a;
  Alcotest.(check (array int)) "hieras hop histogram" hhist_s hhist_a

(* [Scale.run]'s built-in cross-check covers the same comparison through the
   public entry point — zero mismatches must hold. *)
let test_run_cross_check () =
  let spec =
    { Scale.default_spec with Scale.nodes = 200; requests = 300; depth = 2; cross_check = 300 }
  in
  let r = Scale.run spec in
  Alcotest.(check int) "cross-checked" 300 r.Scale.cross_checked;
  Alcotest.(check int) "cross mismatches" 0 r.Scale.cross_mismatches;
  Alcotest.(check int) "all lookups counted" 300 r.Scale.lookups;
  Alcotest.(check int) "destinations agree" 300 r.Scale.dest_match

(* --- scratch-buffer allocation regression ----------------------------------- *)

(* [Hlookup.route_hops_only ~into:scratch] must not allocate the per-layer
   accumulator per call — the hoisting the scale replay relies on. Minor-word
   counts are deterministic for a fixed walk, so the comparison against the
   allocating path is exact on whole-replay totals: the scratch variant must
   save at least the [Array.make depth] header+slots on every call. The walk
   itself allocates nothing per hop over the packed arenas, so a scratch call
   allocates only its result tuple: a cap of 8 words per call catches any
   per-hop allocation creeping back in. *)
let test_hops_only_scratch_allocation () =
  let spec = { Scale.default_spec with Scale.nodes = 256; requests = 0; depth = 3 } in
  let _chord, hnet = Scale.networks spec in
  let depth = Hnetwork.depth hnet in
  let scratch = Array.make depth 0 in
  let rng = Rng.create ~seed:7 in
  let calls = 1000 in
  let requests = Array.init calls (fun i -> (i mod 256, Id.random space rng)) in
  let replay ~scratch:s () =
    Array.iter
      (fun (origin, key) -> ignore (Hieras.Hlookup.route_hops_only ?into:s hnet ~origin ~key))
      requests
  in
  let measure f =
    f ();
    (* warmed up: measure the steady state *)
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let with_scratch = measure (replay ~scratch:(Some scratch)) in
  let without = measure (replay ~scratch:None) in
  Alcotest.(check bool)
    (Printf.sprintf "scratch saves the per-call accumulator (%.0f vs %.0f words over %d calls)"
       with_scratch without calls)
    true
    (without -. with_scratch >= float_of_int (calls * (depth + 1)));
  Alcotest.(check bool)
    (Printf.sprintf "scratch lookups stay under 8 words/call (%.0f words over %d calls)"
       with_scratch calls)
    true
    (with_scratch < float_of_int (8 * calls))

(* --- determinism: jobs-independence and golden bytes ------------------------ *)

let test_jobs_independent () =
  (* crosses two chunk boundaries so the merge order matters *)
  let spec = { Scale.default_spec with Scale.nodes = 128; requests = 20_000 } in
  let seq = Scale.run spec in
  let par =
    Parallel.Pool.with_pool ~jobs:4 (fun pool -> Scale.run ~pool spec)
  in
  Alcotest.(check string) "results_json identical for jobs 1 vs 4"
    (Scale.results_json seq) (Scale.results_json par)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_golden_scale () =
  let want = read_file (Filename.concat "golden" "scale_ts64.json") in
  let got = Obs_test_support.Golden.build_scale () in
  Alcotest.(check string)
    "byte-identical (regenerate with: dune exec test/support/gen_golden.exe -- --scale > test/golden/scale_ts64.json)"
    want got

let test_validate () =
  let ok s = Result.is_ok (Scale.validate s) in
  Alcotest.(check bool) "default ok" true (ok Scale.default_spec);
  Alcotest.(check bool) "nodes < 2" false (ok { Scale.default_spec with Scale.nodes = 1 });
  Alcotest.(check bool) "depth 5" false (ok { Scale.default_spec with Scale.depth = 5 });
  Alcotest.(check bool) "negative requests" false
    (ok { Scale.default_spec with Scale.requests = -1 });
  Alcotest.(check bool) "cross_check > requests" false
    (ok { Scale.default_spec with Scale.requests = 10; cross_check = 11 })

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "scale"
    [
      ( "packed",
        [
          qt (test_packed_equals_reference ());
          qt (test_hieras_layers_equal_reference ());
          qt (test_packed_edge_ids ());
          Alcotest.test_case "pack_arena rejects owners out of order" `Quick
            test_pack_arena_rejects_disorder;
          Alcotest.test_case "pack_arena allocation per node" `Quick test_pack_arena_allocation;
          Alcotest.test_case "exhaustive 8-bit space: owner rule == identifier reference" `Quick
            test_exhaustive_8bit;
        ] );
      ( "analytic",
        [
          Alcotest.test_case "analytic == simulated (hop-for-hop + histograms)" `Slow
            test_analytic_equals_simulated;
          Alcotest.test_case "Scale.run cross-check is exact" `Quick test_run_cross_check;
          Alcotest.test_case "route_hops_only scratch buffer does not allocate" `Quick
            test_hops_only_scratch_allocation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs-independent results" `Quick test_jobs_independent;
          Alcotest.test_case "golden scale_ts64.json" `Quick test_golden_scale;
          Alcotest.test_case "spec validation" `Quick test_validate;
        ] );
    ]
