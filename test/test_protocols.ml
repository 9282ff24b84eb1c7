(* Tests for the message-level protocols (Chord.Protocol and
   Hieras.Hprotocol) on the event simulator: join convergence against the
   oracle fixpoint, lookup correctness, failure healing, message loss and
   ring-table maintenance. *)

module Id = Hashid.Id
module Engine = Simnet.Engine
module CP = Chord.Protocol
module HP = Hieras.Hprotocol

let space = Id.space ~bits:32

let make_world ?(hosts = 24) seed =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts rng in
  let latency a b = Topology.Latency.host_latency lat a b in
  (lat, Engine.create ~latency ~nodes:hosts)

let ids n = Array.init n (fun i -> Id.of_hash space (Printf.sprintf "proto-%d" i))

let oracle n =
  Chord.Network.of_ids ~space ~ids:(ids n) ~hosts:(Array.init n (fun i -> i)) ()

(* rotate a cycle list so it starts at its smallest element, for comparison *)
let canonical cycle =
  match cycle with
  | [] -> []
  | _ ->
      let m = List.fold_left min (List.hd cycle) cycle in
      let rec rot = function
        | x :: rest when x = m -> (x :: rest) @ []
        | x :: rest -> rot (rest @ [ x ])
        | [] -> []
      in
      rot cycle

let expected_ring n =
  canonical (List.sort (fun a b -> Id.compare (ids n).(a) (ids n).(b)) (List.init n (fun i -> i)))

(* --- Chord protocol ---------------------------------------------------------- *)

let build_chord ?(hosts = 24) seed =
  let _, eng = make_world ~hosts seed in
  let p = CP.create (CP.default_config space) eng in
  let id = ids hosts in
  CP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to hosts - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 250.0) (fun () ->
        CP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:120_000.0 eng;
  (eng, p)

let test_chord_ring_converges () =
  let n = 24 in
  let _, p = build_chord 1 in
  let ring = canonical (CP.ring_from p 0) in
  Alcotest.(check (list int)) "ring equals oracle order" (expected_ring n) ring

let test_chord_predecessors_converge () =
  let n = 16 in
  let _, p = build_chord ~hosts:n 2 in
  let net = oracle n in
  (* protocol node addr i has oracle index: position of its id *)
  let pos = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace pos (Chord.Network.id net i) i
  done;
  for addr = 0 to n - 1 do
    match CP.predecessor_addr p addr with
    | None -> Alcotest.fail "predecessor unset after convergence"
    | Some paddr ->
        let i = Hashtbl.find pos (CP.node_id p addr) in
        let expect_pred = Chord.Network.id net (Chord.Network.predecessor net i) in
        Alcotest.(check bool) "predecessor id matches oracle" true
          (Id.equal expect_pred (CP.node_id p paddr))
  done

let test_chord_successor_lists () =
  let n = 16 in
  let _, p = build_chord ~hosts:n 3 in
  for addr = 0 to n - 1 do
    let sl = CP.successor_list_addrs p addr in
    Alcotest.(check bool) "non-empty" true (sl <> []);
    Alcotest.(check bool) "bounded" true (List.length sl <= (CP.config p).CP.succ_list_len);
    Alcotest.(check bool) "self not in list" true (not (List.mem addr sl))
  done

let test_chord_lookups_correct () =
  let n = 24 in
  let eng, p = build_chord 4 in
  let net = oracle n in
  let rng = Prng.Rng.create ~seed:5 in
  let ok = ref 0 in
  let total = 100 in
  for _ = 1 to total do
    let key = Id.random space rng in
    let origin = Prng.Rng.int rng n in
    let expect = Chord.Network.id net (Chord.Network.successor_of_key net key) in
    CP.lookup p ~origin ~key (fun r ->
        match r with
        | Some o when Id.equal o.CP.owner_id expect -> incr ok
        | _ -> ())
  done;
  Engine.run ~until:400_000.0 eng;
  Alcotest.(check int) "all lookups correct" total !ok

let test_chord_heals_after_failures () =
  let n = 24 in
  let eng, p = build_chord 6 in
  List.iter (CP.fail_node p) [ 2; 9; 17 ];
  Engine.run ~until:400_000.0 eng;
  let ring = CP.ring_from p 0 in
  Alcotest.(check int) "survivors form a full ring" (n - 3) (List.length ring);
  Alcotest.(check bool) "dead nodes not in ring" true
    (not (List.exists (fun a -> List.mem a [ 2; 9; 17 ]) ring));
  (* lookups still resolve to live successors *)
  let rng = Prng.Rng.create ~seed:7 in
  let answered = ref 0 in
  for _ = 1 to 50 do
    let key = Id.random space rng in
    CP.lookup p ~origin:0 ~key (fun r -> if r <> None then incr answered)
  done;
  Engine.run ~until:900_000.0 eng;
  Alcotest.(check bool) "most lookups answered" true (!answered >= 45)

let test_chord_survives_message_loss () =
  let n = 16 in
  let _, eng = make_world ~hosts:n 8 in
  Engine.set_loss eng ~rate:0.05 ~rng:(Prng.Rng.create ~seed:9);
  let p = CP.create (CP.default_config space) eng in
  let id = ids n in
  CP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () ->
        CP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:300_000.0 eng;
  let ring = canonical (CP.ring_from p 0) in
  Alcotest.(check (list int)) "ring converges despite loss" (expected_ring n) ring

let test_chord_rejects_duplicate_addr () =
  let _, eng = make_world 10 in
  let p = CP.create (CP.default_config space) eng in
  CP.spawn p ~addr:0 ~id:(ids 1).(0);
  Alcotest.check_raises "addr reuse" (Invalid_argument "Chord.Protocol: address already in use")
    (fun () -> CP.spawn p ~addr:0 ~id:(ids 1).(0))

let test_chord_single_node_lookup () =
  let _, eng = make_world 11 in
  let p = CP.create (CP.default_config space) eng in
  let id = (ids 1).(0) in
  CP.spawn p ~addr:0 ~id;
  let got = ref None in
  CP.lookup p ~origin:0 ~key:(Id.of_int space 12345) (fun r -> got := r);
  Engine.run ~until:60_000.0 eng;
  match !got with
  | Some o -> Alcotest.(check bool) "owns everything" true (Id.equal o.CP.owner_id id)
  | None -> Alcotest.fail "lookup unanswered"

(* --- HIERAS protocol ------------------------------------------------------------- *)

let build_hieras ?(hosts = 24) ?(depth = 2) ?(landmarks = 3) ?(loss = 0.0) seed =
  let lat, eng = make_world ~hosts seed in
  if loss > 0.0 then Engine.set_loss eng ~rate:loss ~rng:(Prng.Rng.create ~seed:(seed + 1));
  let lm = Binning.Landmark.choose_spread lat ~count:landmarks (Prng.Rng.create ~seed:(seed + 2)) in
  let p = HP.create (HP.default_config space ~depth) eng ~lat ~landmarks:lm in
  let id = ids hosts in
  HP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to hosts - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () ->
        HP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:200_000.0 eng;
  (lat, eng, p)

let test_hieras_global_ring_converges () =
  let n = 24 in
  let _, _, p = build_hieras 20 in
  Alcotest.(check (list int)) "global ring equals oracle"
    (expected_ring n)
    (canonical (HP.ring_from p 0 ~layer:1))

let test_hieras_layer2_rings_partition () =
  let n = 24 in
  let _, _, p = build_hieras 21 in
  let orders = List.init n (fun i -> HP.order_of p i ~layer:2) in
  let distinct = List.sort_uniq compare orders in
  Alcotest.(check bool) "more than one ring" true (List.length distinct > 1);
  List.iter
    (fun o ->
      let members =
        List.filteri (fun i _ -> List.nth orders i = o) (List.init n (fun i -> i))
      in
      let cycle = HP.ring_from p (List.hd members) ~layer:2 in
      Alcotest.(check (list int)) ("ring " ^ o) (List.sort compare members)
        (List.sort compare cycle))
    distinct

let test_hieras_lookups_correct () =
  let n = 24 in
  let _, eng, p = build_hieras 22 in
  let net = oracle n in
  let rng = Prng.Rng.create ~seed:23 in
  let ok = ref 0 and lower_used = ref 0 in
  let total = 100 in
  for _ = 1 to total do
    let key = Id.random space rng in
    let origin = Prng.Rng.int rng n in
    let expect = Chord.Network.id net (Chord.Network.successor_of_key net key) in
    HP.lookup p ~origin ~key (fun r ->
        match r with
        | Some o ->
            if Id.equal o.HP.owner_id expect then incr ok;
            if o.HP.lower_hops > 0 then incr lower_used
        | None -> ())
  done;
  Engine.run ~until:600_000.0 eng;
  Alcotest.(check int) "all lookups correct" total !ok;
  Alcotest.(check bool) "lower layers actually used" true (!lower_used > total / 4)

let test_hieras_ring_tables_present () =
  let n = 24 in
  let _, _, p = build_hieras 24 in
  let orders = List.sort_uniq compare (List.init n (fun i -> HP.order_of p i ~layer:2)) in
  List.iter
    (fun o ->
      match HP.find_ring_table p (Hieras.Ring_name.make ~layer:2 ~order:o) with
      | None -> Alcotest.fail ("missing ring table for " ^ o)
      | Some (_, rt) ->
          Alcotest.(check bool) "table non-empty" false (Hieras.Ring_table.is_empty rt))
    orders

let test_hieras_depth3 () =
  let n = 20 in
  let _, eng, p = build_hieras ~hosts:n ~depth:3 25 in
  let net = oracle n in
  let rng = Prng.Rng.create ~seed:26 in
  let ok = ref 0 in
  for _ = 1 to 50 do
    let key = Id.random space rng in
    let origin = Prng.Rng.int rng n in
    let expect = Chord.Network.id net (Chord.Network.successor_of_key net key) in
    HP.lookup p ~origin ~key (fun r ->
        match r with Some o when Id.equal o.HP.owner_id expect -> incr ok | _ -> ())
  done;
  Engine.run ~until:600_000.0 eng;
  Alcotest.(check int) "depth-3 lookups correct" 50 !ok;
  (* layer-3 rings nest inside layer-2 rings *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if HP.order_of p i ~layer:3 = HP.order_of p j ~layer:3 then
        Alcotest.(check string) "nesting" (HP.order_of p i ~layer:2) (HP.order_of p j ~layer:2)
    done
  done

let test_hieras_heals_after_failures () =
  let n = 24 in
  let _, eng, p = build_hieras 27 in
  List.iter (HP.fail_node p) [ 3; 11; 19 ];
  Engine.run ~until:700_000.0 eng;
  let ring = HP.ring_from p 0 ~layer:1 in
  Alcotest.(check int) "global ring heals" (n - 3) (List.length ring);
  (* layer-2 rings heal too: every live node's layer-2 cycle contains only
     live nodes of its order *)
  let live = HP.live_members p in
  List.iter
    (fun a ->
      let cycle = HP.ring_from p a ~layer:2 in
      List.iter
        (fun m ->
          Alcotest.(check bool) "cycle members alive" true (List.mem m live);
          Alcotest.(check string) "same order" (HP.order_of p a ~layer:2)
            (HP.order_of p m ~layer:2))
        cycle)
    live

let test_hieras_ring_table_failure_recovery () =
  let n = 24 in
  let _, eng, p = build_hieras 28 in
  (* kill one recorded extreme of some ring; the manager's duty cycle must
     expunge it from the table *)
  let orders = List.sort_uniq compare (List.init n (fun i -> HP.order_of p i ~layer:2)) in
  let victim_order =
    List.find (fun o -> List.length (List.filter (fun i -> HP.order_of p i ~layer:2 = o) (List.init n (fun i -> i))) >= 3) orders
  in
  let rn = Hieras.Ring_name.make ~layer:2 ~order:victim_order in
  let victim =
    match HP.find_ring_table p rn with
    | Some (_, rt) -> (
        match Hieras.Ring_table.any_member rt with
        | Some e -> e.Hieras.Ring_table.node
        | None -> Alcotest.fail "empty table")
    | None -> Alcotest.fail "table missing"
  in
  HP.fail_node p victim;
  Engine.run ~until:800_000.0 eng;
  (match HP.find_ring_table p rn with
  | Some (_, rt) ->
      Alcotest.(check bool) "victim expunged" true
        (not (List.exists (fun e -> e.Hieras.Ring_table.node = victim) (Hieras.Ring_table.entries rt)));
      Alcotest.(check bool) "table refilled" false (Hieras.Ring_table.is_empty rt)
  | None -> Alcotest.fail "table lost")

let test_hieras_ring_table_replication () =
  let n = 24 in
  let _, eng, p = build_hieras 40 in
  (* replicas appear after a few duty cycles *)
  let replicas_exist =
    List.exists (fun a -> HP.replica_ring_tables p a <> []) (HP.live_members p)
  in
  Alcotest.(check bool) "replicas pushed" true replicas_exist;
  (* kill a manager that stores at least one table; its tables must reappear
     elsewhere (replica promotion or ring_refresh recreation) *)
  let manager =
    List.find (fun a -> a <> 0 && HP.stored_ring_tables p a <> []) (HP.live_members p)
  in
  let lost = List.map Hieras.Ring_table.name (HP.stored_ring_tables p manager) in
  HP.fail_node p manager;
  Engine.run ~until:900_000.0 eng;
  List.iter
    (fun rname ->
      (* only rings that still have live members must recover their table *)
      let order = Hieras.Ring_name.order rname in
      let still_populated =
        List.exists
          (fun a -> HP.order_of p a ~layer:(Hieras.Ring_name.layer rname) = order)
          (HP.live_members p)
      in
      if still_populated then
        match HP.find_ring_table p rname with
        | Some (holder, rt) ->
            Alcotest.(check bool) "recovered table non-empty" false
              (Hieras.Ring_table.is_empty rt);
            Alcotest.(check bool) "held by a live node" true
              (List.mem holder (HP.live_members p))
        | None -> Alcotest.fail ("table lost for ring " ^ Hieras.Ring_name.to_string rname))
    lost;
  ignore n

let test_hieras_survives_message_loss () =
  let n = 16 in
  let _, eng, p = build_hieras ~hosts:n ~loss:0.03 29 in
  Engine.run ~until:400_000.0 eng;
  Alcotest.(check (list int)) "global ring converges despite loss" (expected_ring n)
    (canonical (HP.ring_from p 0 ~layer:1))

let test_hieras_concurrent_joins_unify_rings () =
  (* all nodes join nearly simultaneously: the ring-refresh duty must merge
     the private rings that stale ring tables produce *)
  let n = 16 in
  let lat, eng = make_world ~hosts:n 30 in
  let lm = Binning.Landmark.choose_spread lat ~count:3 (Prng.Rng.create ~seed:31) in
  let p = HP.create (HP.default_config space ~depth:2) eng ~lat ~landmarks:lm in
  let id = ids n in
  HP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(10.0 +. float_of_int i) (fun () ->
        HP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:300_000.0 eng;
  let orders = List.init n (fun i -> HP.order_of p i ~layer:2) in
  List.iter
    (fun o ->
      let members =
        List.filteri (fun i _ -> List.nth orders i = o) (List.init n (fun i -> i))
      in
      let cycle = HP.ring_from p (List.hd members) ~layer:2 in
      Alcotest.(check (list int)) ("unified ring " ^ o) (List.sort compare members)
        (List.sort compare cycle))
    (List.sort_uniq compare orders)

(* --- protocol conformance ----------------------------------------------------
   The analytic networks (Chord.Network, and per-ring restrictions of it) are
   the fixpoint the maintenance machinery is supposed to reach. These tests
   demand byte-for-byte agreement at convergence: every node's successor list
   and every conceptual finger slot of the message-level protocol must equal
   the analytic table built over the same (id, address) population — not just
   "a correct ring", the *same* ring. *)

let oracle_of_members ~succ_list_len idf members =
  let members = Array.of_list members in
  Chord.Network.of_ids ~space ~ids:(Array.map idf members) ~hosts:members ~succ_list_len ()

let oracle_index net ~n addr =
  let rec go i =
    if i >= n then Alcotest.fail (Printf.sprintf "addr %d not in oracle" addr)
    else if Chord.Network.host net i = addr then i
    else go (i + 1)
  in
  go 0

let oracle_succ_addrs net ~n addr =
  Chord.Network.successor_list net (oracle_index net ~n addr)
  |> Array.to_list
  |> List.map (Chord.Network.host net)

let oracle_finger_addrs net ~n addr =
  let ft = Chord.Network.finger_table net (oracle_index net ~n addr) in
  Array.init (Id.bits space) (fun k -> Chord.Network.host net (Chord.Finger_table.finger ft k))

let check_fingers ~what expect got =
  Array.iteri
    (fun k e ->
      match got.(k) with
      | Some a -> Alcotest.(check int) (Printf.sprintf "%s finger %d" what k) e a
      | None -> Alcotest.fail (Printf.sprintf "%s finger %d unset at convergence" what k))
    expect

let test_chord_conforms_to_network () =
  let n = 16 in
  let _, p = build_chord ~hosts:n 33 in
  let sll = (CP.config p).CP.succ_list_len in
  let net = oracle_of_members ~succ_list_len:sll (CP.node_id p) (List.init n (fun i -> i)) in
  Alcotest.(check bool) "detector agrees the ring is converged" true (CP.converged p);
  for addr = 0 to n - 1 do
    let what = Printf.sprintf "node %d" addr in
    Alcotest.(check (list int))
      (what ^ " successor list")
      (oracle_succ_addrs net ~n addr)
      (CP.successor_list_addrs p addr);
    check_fingers ~what (oracle_finger_addrs net ~n addr) (CP.finger_addrs p addr)
  done

let test_hieras_conforms_per_layer depth () =
  let n = 24 in
  let _, _, p = build_hieras ~hosts:n ~depth 34 in
  let sll = (HP.config p).HP.succ_list_len in
  Alcotest.(check bool) "all layers converged" true (HP.converged p);
  for layer = 1 to depth do
    (* partition the membership into this layer's rings; layer 1 is the one
       global ring (order_of is undefined there), deeper layers split by
       landmark order *)
    let order_of i = if layer = 1 then "global" else HP.order_of p i ~layer in
    let orders = List.sort_uniq compare (List.init n order_of) in
    List.iter
      (fun o ->
        let members = List.filter (fun i -> order_of i = o) (List.init n (fun i -> i)) in
        let rn = List.length members in
        let net = oracle_of_members ~succ_list_len:sll (HP.node_id p) members in
        List.iter
          (fun addr ->
            let what = Printf.sprintf "layer %d ring %s node %d" layer o addr in
            (* a singleton ring has no analytic successor list (r = n-1 = 0);
               the protocol represents it as a self-loop *)
            let expect_succs =
              if rn = 1 then [ addr ] else oracle_succ_addrs net ~n:rn addr
            in
            Alcotest.(check (list int))
              (what ^ " successor list") expect_succs
              (HP.successor_list_addrs p addr ~layer);
            check_fingers ~what (oracle_finger_addrs net ~n:rn addr)
              (HP.finger_addrs p addr ~layer))
          members)
      orders
  done

let test_conformance_survives_healing () =
  (* kill a few nodes, let maintenance re-converge, then demand the healed
     ring again equals the analytic network over the survivors *)
  let n = 24 in
  let eng, p = build_chord ~hosts:n 35 in
  let dead = [ 4; 13; 21 ] in
  List.iter (CP.fail_node p) dead;
  Engine.run ~until:500_000.0 eng;
  let live = List.filter (fun i -> not (List.mem i dead)) (List.init n (fun i -> i)) in
  let rn = List.length live in
  let net = oracle_of_members ~succ_list_len:(CP.config p).CP.succ_list_len (CP.node_id p) live in
  List.iter
    (fun addr ->
      Alcotest.(check (list int))
        (Printf.sprintf "survivor %d successor list" addr)
        (oracle_succ_addrs net ~n:rn addr)
        (CP.successor_list_addrs p addr))
    live

(* --- Lookup counts --------------------------------------------------------------- *)

(* What a fixed stream of 300 lookups, issued 20 ms apart on a converged
   48-node pool, reports: each lookup's owner, hops and lower-ring hops in
   issue order, summed and digested. The goldens pin every message a lookup
   sends but not these counts. The expected values were recorded while the
   two protocols still had separate lookup walks. *)
let lookup_counts eng ~seed lookup =
  let rng = Prng.Rng.create ~seed in
  let got = Array.make 300 "-" in
  let answered = ref 0 and hops = ref 0 and lower = ref 0 in
  Array.iteri
    (fun i _ ->
      let key = Id.random space rng in
      let origin = Prng.Rng.int rng 48 in
      Engine.schedule eng ~delay:(float_of_int i *. 20.0) (fun () ->
          lookup ~origin ~key (fun (owner, h, l) ->
              incr answered;
              hops := !hops + h;
              lower := !lower + l;
              got.(i) <- Printf.sprintf "%d/%d/%d" owner h l)))
    got;
  Engine.run ~until:(Engine.now eng +. 60_000.0) eng;
  Printf.sprintf "%d answered, %d hops, %d lower, %s" !answered !hops !lower
    (Digest.to_hex (Digest.string (String.concat " " (Array.to_list got))))

let test_chord_lookup_counts () =
  let eng, p = build_chord ~hosts:48 36 in
  Alcotest.(check string) "chord"
    "300 answered, 707 hops, 0 lower, e6d9b755b72b892392e43ae962a1c7e5"
    (lookup_counts eng ~seed:37 (fun ~origin ~key k ->
         CP.lookup p ~origin ~key
           (Option.iter (fun o -> k (o.CP.owner_addr, o.CP.hops, o.CP.lower_hops)))))

let test_hieras_lookup_counts depth expect () =
  let _, eng, p = build_hieras ~hosts:48 ~depth 38 in
  Alcotest.(check string) (Printf.sprintf "hieras depth %d" depth) expect
    (lookup_counts eng ~seed:39 (fun ~origin ~key k ->
         HP.lookup p ~origin ~key
           (Option.iter (fun o -> k (o.HP.owner_addr, o.HP.hops, o.HP.lower_hops)))))

(* --- Maintenance allocation ---------------------------------------------------- *)

(* What one maintenance RPC costs in minor words on a converged, loss-free
   64-node Chord pool over 10 simulated seconds: its round, its messages
   and replies, and the convergence probe. Minor words are deterministic
   for a fixed build, so the ratio is exact. The bound sits between the
   rings on [Id.t] keys, whose fix-fingers queries each allocated two
   closures and a finger start (61.7 words per RPC), and the rings on int
   keys (37.8). *)
let test_maintenance_words () =
  let eng, p = build_chord ~hosts:64 42 in
  Alcotest.(check bool) "converged" true (CP.converged p);
  let rpcs () =
    let c = Chord.Ring.counts (CP.rings p).(0) in
    c.stabilize + c.notify + c.fix_fingers + c.check_pred + c.duty
  in
  let ops = rpcs () and before = Gc.minor_words () in
  Engine.run ~until:(Engine.now eng +. 10_000.0) eng;
  let words = Gc.minor_words () -. before and ops = rpcs () - ops in
  let per = words /. float_of_int ops in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per maintenance RPC (%d RPCs) stay under 48" per ops)
    true (per < 48.0)

(* --- Settled requests ------------------------------------------------------------ *)

(* A request whose reply has landed holds nothing: a block reachable only
   from its timeout's continuation is collected while that timeout is still
   queued. *)
module Held = Obs_test_support.Held

let check_released what eng ~issued ~timeout answered flag =
  Held.run_until eng answered;
  Alcotest.(check bool) (what ^ ": answered") true !answered;
  Alcotest.(check bool) (what ^ ": its timeout still queued") true (Engine.now eng < issued +. timeout);
  Alcotest.(check bool) (what ^ ": timeout continuation released") true (Held.released eng flag)

let test_settled_ring_ask () =
  let eng = Engine.create ~latency:(fun _ _ -> 10.0) ~nodes:2 in
  let cfg = Chord.Ring.default_config space in
  let r = (Chord.Ring.create ~prefix:"settled" ~rings:1 cfg eng).(0) in
  let id = ids 2 in
  ignore (Chord.Ring.add r ~addr:0 ~id:id.(0));
  ignore (Chord.Ring.add r ~addr:1 ~id:id.(1));
  let answered = ref false in
  let flag, timeout = Held.watch (fun () -> ()) in
  Chord.Ring.ask r ~kind:Obs.Netspan.Other ~src:0 ~dst:1
    ~service:(fun _ -> ())
    ~ok:(fun () -> answered := true)
    ~timeout;
  check_released "ask" eng ~issued:0.0 ~timeout:cfg.rpc_timeout answered flag

let test_settled_chord_lookup () =
  let eng, p = build_chord ~hosts:8 30 in
  let answered = ref false in
  let flag, k = Held.watch (fun r -> answered := Option.is_some r) in
  let issued = Engine.now eng in
  CP.lookup p ~origin:3 ~key:(Id.of_hash space "settled-chord") k;
  check_released "chord lookup" eng ~issued ~timeout:(CP.config p).rpc_timeout answered flag

let test_settled_hieras_lookup () =
  let _, eng, p = build_hieras ~hosts:12 31 in
  let answered = ref false in
  let flag, k = Held.watch (fun r -> answered := Option.is_some r) in
  let issued = Engine.now eng in
  HP.lookup p ~origin:5 ~key:(Id.of_hash space "settled-hieras") k;
  check_released "hieras lookup" eng ~issued ~timeout:(HP.config p).rpc_timeout answered flag

let () =
  Alcotest.run "protocols"
    [
      ( "chord-protocol",
        [
          Alcotest.test_case "ring converges" `Slow test_chord_ring_converges;
          Alcotest.test_case "predecessors converge" `Slow test_chord_predecessors_converge;
          Alcotest.test_case "successor lists" `Slow test_chord_successor_lists;
          Alcotest.test_case "lookups correct" `Slow test_chord_lookups_correct;
          Alcotest.test_case "heals after failures" `Slow test_chord_heals_after_failures;
          Alcotest.test_case "survives message loss" `Slow test_chord_survives_message_loss;
          Alcotest.test_case "duplicate addr" `Quick test_chord_rejects_duplicate_addr;
          Alcotest.test_case "single node" `Quick test_chord_single_node_lookup;
        ] );
      ( "hieras-protocol",
        [
          Alcotest.test_case "global ring converges" `Slow test_hieras_global_ring_converges;
          Alcotest.test_case "layer-2 rings partition" `Slow test_hieras_layer2_rings_partition;
          Alcotest.test_case "lookups correct" `Slow test_hieras_lookups_correct;
          Alcotest.test_case "ring tables present" `Slow test_hieras_ring_tables_present;
          Alcotest.test_case "depth 3" `Slow test_hieras_depth3;
          Alcotest.test_case "heals after failures" `Slow test_hieras_heals_after_failures;
          Alcotest.test_case "ring table recovery" `Slow test_hieras_ring_table_failure_recovery;
          Alcotest.test_case "ring table replication" `Slow test_hieras_ring_table_replication;
          Alcotest.test_case "survives message loss" `Slow test_hieras_survives_message_loss;
          Alcotest.test_case "concurrent joins unify" `Slow test_hieras_concurrent_joins_unify_rings;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "chord matches analytic network" `Slow test_chord_conforms_to_network;
          Alcotest.test_case "hieras matches per-layer oracles" `Slow
            (test_hieras_conforms_per_layer 2);
          Alcotest.test_case "hieras matches per-layer oracles at depth 3" `Slow
            (test_hieras_conforms_per_layer 3);
          Alcotest.test_case "healed ring matches survivor oracle" `Slow
            test_conformance_survives_healing;
        ] );
      ( "lookup-counts",
        [
          Alcotest.test_case "chord" `Slow test_chord_lookup_counts;
          Alcotest.test_case "hieras depth 2" `Slow
            (test_hieras_lookup_counts 2
               "300 answered, 726 hops, 348 lower, d47db46aeaf1c3f2f6df5f24bd5d87c2");
          Alcotest.test_case "hieras depth 3" `Slow
            (test_hieras_lookup_counts 3
               "300 answered, 728 hops, 350 lower, f474669748616d2ab67b0f0a444fd214");
        ] );
      ( "allocation",
        [ Alcotest.test_case "words per maintenance RPC" `Slow test_maintenance_words ] );
      ( "settled",
        [
          Alcotest.test_case "Ring.ask holds nothing" `Quick test_settled_ring_ask;
          Alcotest.test_case "Chord lookup holds nothing" `Slow test_settled_chord_lookup;
          Alcotest.test_case "HIERAS lookup holds nothing" `Slow test_settled_hieras_lookup;
        ] );
    ]
