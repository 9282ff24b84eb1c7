(* Property and conformance tests for the storage layer (DESIGN.md §15):
   the replicated key-value store (Store.Kv) checked against the analytic
   Chord.Network oracle, data availability under spaced correlated
   failures, read-repair convergence to bit-identical replica sets, the
   per-node cache tier (Store.Cache), the zipf web-cache workload, the
   spaced fault schedule, the cache experiment golden with its --jobs
   independence, and the analyzer's wire-bytes audit. *)

module Id = Hashid.Id
module Engine = Simnet.Engine
module CP = Chord.Protocol
module HP = Hieras.Hprotocol
module Kv = Store.Kv
module Ncache = Store.Cache
module Webcache = Workload.Webcache
module Cache_exp = Experiments.Cache
module Analyze = Obs.Analyze
module Netspan = Obs.Netspan

let space = Id.space ~bits:32
let ids n = Array.init n (fun i -> Id.of_hash space (Printf.sprintf "store-%d" i))

let make_engine ~hosts seed =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts rng in
  (lat, Engine.create ~latency:(fun a b -> Topology.Latency.host_latency lat a b) ~nodes:hosts)

(* --- the analytic oracle ------------------------------------------------------
   The fixpoint the store's placement must reach: for every key, the owner
   is the analytic successor of the key over the live membership, and the
   replicas are the owner's first r-1 live successors — the same
   Chord.Network the protocol conformance suite compares against. *)

let oracle_over ~succ_list_len idf members =
  let members = Array.of_list members in
  Chord.Network.of_ids ~space ~ids:(Array.map idf members) ~hosts:members ~succ_list_len ()

let rec take k = function
  | [] -> []
  | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl

let expected_holders net ~r key =
  let oi = Chord.Network.successor_of_key net key in
  let owner = Chord.Network.host net oi in
  let succs =
    Chord.Network.successor_list net oi
    |> Array.to_list
    |> List.map (Chord.Network.host net)
    |> List.filter (fun a -> a <> owner)
  in
  List.sort_uniq compare (owner :: take (r - 1) succs)

(* --- store worlds ------------------------------------------------------------- *)

(* a converged chord overlay with the store's repair scan running; callers
   advance the returned clock to keep Engine.run monotone *)
let build_chord_store ?(hosts = 12) ?joined ~r seed =
  let joined = Option.value joined ~default:hosts in
  let _, eng = make_engine ~hosts seed in
  let p = CP.create (CP.default_config space) eng in
  let id = ids hosts in
  CP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to joined - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 250.0) (fun () ->
        CP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  let kv = Kv.create { Kv.default_config with Kv.replication = r } (Kv.chord_substrate p) in
  for a = 0 to joined - 1 do
    Kv.track kv a
  done;
  let clock = ref 45_000.0 in
  Engine.run ~until:!clock eng;
  (eng, p, kv, clock)

let advance eng clock dt =
  clock := !clock +. dt;
  Engine.run ~until:!clock eng

let members_by_id node_id live =
  List.sort (fun a b -> Id.compare (node_id a) (node_id b)) live |> Array.of_list

(* put a batch and require every callback to fire acknowledged *)
let put_all_acked ~what kv eng clock ~origin_of objs =
  let fired = ref 0 and acked = ref 0 in
  List.iter
    (fun (key, value) ->
      Kv.put kv ~origin:(origin_of key) ~key ~value (fun res ->
          incr fired;
          if res <> None then incr acked))
    objs;
  advance eng clock 20_000.0;
  let n = List.length objs in
  if !fired <> n then QCheck.Test.fail_reportf "%s: %d/%d put callbacks fired" what !fired n;
  if !acked <> n then QCheck.Test.fail_reportf "%s: only %d/%d puts acknowledged" what !acked n

(* --- property: replication invariant vs the oracle ---------------------------- *)

(* After puts, churn (kills and joins through the ordinary protocol paths)
   and re-convergence, every key must sit on exactly min r live nodes —
   the analytic owner plus its first r-1 live successors, bit-identical
   entries on each. *)
let replication_invariant_prop seed =
  let hosts = 14 and joined = 10 and r = 3 in
  let eng, p, kv, clock = build_chord_store ~hosts ~joined ~r seed in
  let rng = Prng.Rng.create ~seed:(seed + 1) in
  let nobj = 6 in
  let objs =
    List.init nobj (fun i ->
        ( Id.of_hash space (Printf.sprintf "inv-%d-%d" seed i),
          Printf.sprintf "value-%d-%d" seed i ))
  in
  put_all_acked ~what:(Printf.sprintf "seed %d" seed) kv eng clock
    ~origin_of:(fun _ -> Prng.Rng.int rng joined)
    objs;
  (* churn: kill r-1 nodes (never the bootstrap) and join the spares *)
  let v1 = 1 + Prng.Rng.int rng (joined - 1) in
  let v2 =
    let rec pick () =
      let v = 1 + Prng.Rng.int rng (joined - 1) in
      if v = v1 then pick () else v
    in
    pick ()
  in
  List.iter (CP.fail_node p) [ v1; v2 ];
  let id = ids hosts in
  for i = joined to hosts - 1 do
    Engine.schedule eng
      ~delay:(float_of_int (i - joined) *. 300.0)
      (fun () -> CP.join p ~addr:i ~id:id.(i) ~bootstrap:0);
    Kv.track kv i
  done;
  advance eng clock 90_000.0;
  let live =
    List.filter (fun a -> not (List.mem a [ v1; v2 ])) (List.init joined Fun.id)
    @ List.init (hosts - joined) (fun i -> joined + i)
  in
  let net = oracle_over ~succ_list_len:(CP.config p).CP.succ_list_len (CP.node_id p) live in
  (* repair is periodic: poll the invariant instead of guessing one horizon *)
  let invariant_holds () =
    List.for_all (fun (key, _) -> Kv.holders kv key = expected_holders net ~r key) objs
  in
  let rec settle n = if invariant_holds () || n = 0 then () else (advance eng clock 20_000.0; settle (n - 1)) in
  settle 6;
  List.iter
    (fun (key, value) ->
      let expect = expected_holders net ~r key in
      let got = Kv.holders kv key in
      if got <> expect then
        QCheck.Test.fail_reportf "seed %d: holders %s, oracle says %s" seed
          (String.concat "," (List.map string_of_int got))
          (String.concat "," (List.map string_of_int expect));
      if List.length got <> r then
        QCheck.Test.fail_reportf "seed %d: %d holders, want exactly %d" seed (List.length got) r;
      (* entries on every holder are bit-identical and carry the put value *)
      let entries = List.map (fun a -> Kv.entry_on kv a key) got in
      match entries with
      | Some e :: rest ->
          if e.Kv.value <> value then
            QCheck.Test.fail_reportf "seed %d: stored %S, put %S" seed e.Kv.value value;
          List.iter
            (function
              | Some e' when e' = e -> ()
              | Some _ -> QCheck.Test.fail_reportf "seed %d: divergent replica entries" seed
              | None -> QCheck.Test.fail_reportf "seed %d: holder without an entry" seed)
            rest
      | _ -> QCheck.Test.fail_reportf "seed %d: first holder has no entry" seed)
    objs;
  if Kv.items_live kv <> nobj * r then
    QCheck.Test.fail_reportf "seed %d: %d live items, want %d (no strays, no losses)" seed
      (Kv.items_live kv) (nobj * r);
  true

let test_replication_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"exactly min r live replicas on the oracle's successor set"
       ~count:30
       QCheck.(int_range 0 1_000_000)
       replication_invariant_prop)

(* --- property: availability under < r correlated failures --------------------- *)

(* The acceptance gate: every acknowledged put survives a spaced crash
   schedule that never kills r copies of one key — after healing, every
   get finds the exact value. *)
let availability_prop seed =
  let hosts = 10 and r = 3 in
  let eng, p, kv, clock = build_chord_store ~hosts ~r seed in
  let rng = Prng.Rng.create ~seed:(seed + 1) in
  let nobj = 5 in
  let objs =
    List.init nobj (fun i ->
        ( Id.of_hash space (Printf.sprintf "avail-%d-%d" seed i),
          Printf.sprintf "value-%d-%d" seed i ))
  in
  put_all_acked ~what:(Printf.sprintf "seed %d" seed) kv eng clock
    ~origin_of:(fun _ -> Prng.Rng.int rng hosts)
    objs;
  let victims =
    Cache_exp.spaced_victims
      ~members_by_id:(members_by_id (CP.node_id p) (List.init hosts Fun.id))
      ~frac:0.3 ~r
  in
  if victims = [] then QCheck.Test.fail_reportf "seed %d: schedule produced no victims" seed;
  List.iter (CP.fail_node p) victims;
  let live = List.filter (fun a -> not (List.mem a victims)) (List.init hosts Fun.id) in
  advance eng clock 15_000.0;
  let fired = ref 0 and outcomes = ref [] in
  List.iter
    (fun (key, value) ->
      let origin = List.nth live (Prng.Rng.int rng (List.length live)) in
      Kv.get kv ~origin ~key (fun o ->
          incr fired;
          outcomes := (value, o) :: !outcomes))
    objs;
  advance eng clock 40_000.0;
  if !fired <> nobj then QCheck.Test.fail_reportf "seed %d: %d/%d get callbacks fired" seed !fired nobj;
  List.iter
    (fun (value, o) ->
      match o with
      | Kv.Found g when g.Kv.g_value = value -> ()
      | Kv.Found g -> QCheck.Test.fail_reportf "seed %d: got %S, want %S" seed g.Kv.g_value value
      | Kv.Absent -> QCheck.Test.fail_reportf "seed %d: acknowledged object absent" seed
      | Kv.Unreachable -> QCheck.Test.fail_reportf "seed %d: acknowledged object unreachable" seed)
    !outcomes;
  true

let test_availability =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"every acked put survives < r correlated failures" ~count:200
       QCheck.(int_range 0 1_000_000)
       availability_prop)

(* --- property: read-repair converges to bit-identical replicas ---------------- *)

let read_repair_prop seed =
  let hosts = 12 and r = 3 in
  let eng, p, kv, clock = build_chord_store ~hosts ~r seed in
  let rng = Prng.Rng.create ~seed:(seed + 1) in
  let key = Id.of_hash space (Printf.sprintf "repair-%d" seed) in
  let value = Printf.sprintf "fresh-%d" seed in
  put_all_acked ~what:(Printf.sprintf "seed %d" seed) kv eng clock
    ~origin_of:(fun _ -> Prng.Rng.int rng hosts)
    [ (key, value) ];
  let net =
    oracle_over ~succ_list_len:(CP.config p).CP.succ_list_len (CP.node_id p)
      (List.init hosts Fun.id)
  in
  let holders = expected_holders net ~r key in
  let owner = Chord.Network.host net (Chord.Network.successor_of_key net key) in
  (match List.filter (fun a -> a <> owner) holders with
  | b :: c :: _ ->
      (* one replica loses its copy, another is stale-corrupted *)
      Kv.forget kv b key;
      Kv.tamper kv c key
        { Kv.value = "stale"; bytes = 5; version = { Kv.vseq = 0; vorigin = 0 } }
  | _ -> QCheck.Test.fail_reportf "seed %d: fewer than two replicas" seed);
  let got = ref None in
  Kv.get kv ~origin:(Prng.Rng.int rng hosts) ~key (fun o -> got := Some o);
  advance eng clock 15_000.0;
  (match !got with
  | Some (Kv.Found g) when g.Kv.g_value = value -> ()
  | Some (Kv.Found g) -> QCheck.Test.fail_reportf "seed %d: served %S, want %S" seed g.Kv.g_value value
  | Some _ -> QCheck.Test.fail_reportf "seed %d: fresh object not served" seed
  | None -> QCheck.Test.fail_reportf "seed %d: get callback never fired" seed);
  (* the repaired replica set is bit-identical to a freshly replicated one *)
  let entries = List.map (fun a -> Kv.entry_on kv a key) holders in
  (match entries with
  | Some e :: rest ->
      if e.Kv.value <> value then
        QCheck.Test.fail_reportf "seed %d: repaired to %S, want %S" seed e.Kv.value value;
      List.iter
        (function
          | Some e' when e' = e -> ()
          | _ -> QCheck.Test.fail_reportf "seed %d: replica set not bit-identical after repair" seed)
        rest
  | _ -> QCheck.Test.fail_reportf "seed %d: holder lost its entry" seed);
  true

let test_read_repair =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"read-repair restores a bit-identical replica set" ~count:25
       QCheck.(int_range 0 1_000_000)
       read_repair_prop)

(* a probe revealing a strictly newer version than the owner's must win:
   the owner adopts it and re-pushes, never the other way around *)
let test_newer_version_wins () =
  let hosts = 12 and r = 3 in
  let eng, p, kv, clock = build_chord_store ~hosts ~r 91 in
  let key = Id.of_hash space "newer-wins" in
  let acked = ref None in
  Kv.put kv ~origin:3 ~key ~value:"old" (fun res -> acked := res);
  advance eng clock 15_000.0;
  let put_version =
    match !acked with
    | Some pr -> pr.Kv.p_version
    | None -> Alcotest.fail "put not acknowledged"
  in
  let net =
    oracle_over ~succ_list_len:(CP.config p).CP.succ_list_len (CP.node_id p)
      (List.init hosts Fun.id)
  in
  let holders = expected_holders net ~r key in
  let owner = Chord.Network.host net (Chord.Network.successor_of_key net key) in
  let replica = List.find (fun a -> a <> owner) holders in
  let newer =
    {
      Kv.value = "newer";
      bytes = 5;
      version = { Kv.vseq = put_version.Kv.vseq + 5; vorigin = replica };
    }
  in
  Kv.tamper kv replica key newer;
  ignore (Kv.get kv ~origin:5 ~key (fun _ -> ()));
  advance eng clock 15_000.0;
  List.iter
    (fun a ->
      match Kv.entry_on kv a key with
      | Some e ->
          Alcotest.(check string) (Printf.sprintf "node %d adopted the newer value" a) "newer"
            e.Kv.value;
          Alcotest.(check int) "newer seq" (put_version.Kv.vseq + 5) e.Kv.version.Kv.vseq
      | None -> Alcotest.fail (Printf.sprintf "node %d lost the entry" a))
    holders

let test_version_order () =
  let v ~seq ~origin = { Kv.vseq = seq; vorigin = origin } in
  Alcotest.(check bool) "higher seq wins" true (Kv.version_newer (v ~seq:2 ~origin:0) (v ~seq:1 ~origin:9));
  Alcotest.(check bool) "lower seq loses" false (Kv.version_newer (v ~seq:1 ~origin:9) (v ~seq:2 ~origin:0));
  Alcotest.(check bool) "tie breaks to higher origin" true
    (Kv.version_newer (v ~seq:1 ~origin:5) (v ~seq:1 ~origin:3));
  Alcotest.(check bool) "tie loses to higher origin" false
    (Kv.version_newer (v ~seq:1 ~origin:3) (v ~seq:1 ~origin:5));
  Alcotest.(check bool) "equal versions are not newer" false
    (Kv.version_newer (v ~seq:1 ~origin:3) (v ~seq:1 ~origin:3))

let test_delete_roundtrip () =
  let hosts = 12 and r = 3 in
  let eng, _, kv, clock = build_chord_store ~hosts ~r 92 in
  let key = Id.of_hash space "delete-me" in
  let acked = ref false in
  Kv.put kv ~origin:2 ~key ~value:"doomed" (fun res -> acked := res <> None);
  advance eng clock 15_000.0;
  Alcotest.(check bool) "put acked" true !acked;
  let existed = ref None in
  Kv.delete kv ~origin:7 ~key (fun r -> existed := r);
  advance eng clock 15_000.0;
  Alcotest.(check (option bool)) "delete found it" (Some true) !existed;
  let outcome = ref None in
  Kv.get kv ~origin:4 ~key (fun o -> outcome := Some o);
  advance eng clock 15_000.0;
  (match !outcome with
  | Some Kv.Absent -> ()
  | Some (Kv.Found _) -> Alcotest.fail "deleted object still served"
  | Some Kv.Unreachable -> Alcotest.fail "get unreachable on a healthy network"
  | None -> Alcotest.fail "get callback never fired");
  Alcotest.(check (list int)) "no holders remain" [] (Kv.holders kv key);
  let again = ref None in
  Kv.delete kv ~origin:1 ~key (fun r -> again := r);
  advance eng clock 15_000.0;
  Alcotest.(check (option bool)) "second delete finds nothing" (Some false) !again

(* --- conformance: the same store scenario over both protocols ----------------- *)

type world = {
  w_eng : Engine.t;
  w_kv : Kv.t;
  w_node_id : int -> Id.t;
  w_fail : int -> unit;
  w_succ_list_len : int;
  w_live : unit -> int list;
  w_clock : float ref;
}

let chord_world ~hosts ~r seed =
  let eng, p, kv, clock = build_chord_store ~hosts ~r seed in
  {
    w_eng = eng;
    w_kv = kv;
    w_node_id = CP.node_id p;
    w_fail = CP.fail_node p;
    w_succ_list_len = (CP.config p).CP.succ_list_len;
    w_live = (fun () -> (Kv.substrate kv).Kv.live_members ());
    w_clock = clock;
  }

let hieras_world ~hosts ~r seed =
  let lat, eng = make_engine ~hosts seed in
  let lm = Binning.Landmark.choose_spread lat ~count:3 (Prng.Rng.create ~seed:(seed + 2)) in
  let p = HP.create (HP.default_config space ~depth:2) eng ~lat ~landmarks:lm in
  let id = ids hosts in
  HP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to hosts - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () ->
        HP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  let kv = Kv.create { Kv.default_config with Kv.replication = r } (Kv.hieras_substrate p) in
  for a = 0 to hosts - 1 do
    Kv.track kv a
  done;
  let clock = ref 200_000.0 in
  Engine.run ~until:!clock eng;
  {
    w_eng = eng;
    w_kv = kv;
    w_node_id = HP.node_id p;
    w_fail = HP.fail_node p;
    w_succ_list_len = (HP.config p).HP.succ_list_len;
    w_live = (fun () -> (Kv.substrate kv).Kv.live_members ());
    w_clock = clock;
  }

(* One scenario, two substrates: full-replication puts, placement equal to
   the oracle, spaced kills, availability, delete, and the invariant again
   over the survivors. The store must behave identically over the flat and
   the layered overlay — ownership is a global-ring notion. *)
let store_conformance ~r (w : world) =
  let adv = advance w.w_eng w.w_clock in
  let rng = Prng.Rng.create ~seed:77 in
  let live0 = w.w_live () in
  let nobj = 8 in
  let objs =
    List.init nobj (fun i ->
        (Id.of_hash space (Printf.sprintf "conf-%d" i), Printf.sprintf "payload-%d" i))
  in
  let fired = ref 0 and full = ref 0 in
  List.iter
    (fun (key, value) ->
      let origin = List.nth live0 (Prng.Rng.int rng (List.length live0)) in
      Kv.put w.w_kv ~origin ~key ~value (fun res ->
          incr fired;
          match res with Some pr when pr.Kv.p_replicas = r -> incr full | _ -> ()))
    objs;
  adv 25_000.0;
  Alcotest.(check int) "all put callbacks fired" nobj !fired;
  Alcotest.(check int) "every ack reports full replication" nobj !full;
  let check_invariant ~what live =
    let net = oracle_over ~succ_list_len:w.w_succ_list_len w.w_node_id live in
    let ok () =
      List.for_all (fun (key, _) -> Kv.holders w.w_kv key = expected_holders net ~r key) objs
    in
    let rec settle n = if ok () || n = 0 then () else (adv 20_000.0; settle (n - 1)) in
    settle 6;
    List.iter
      (fun (key, _) ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s: holders equal the oracle's replica set" what)
          (expected_holders net ~r key) (Kv.holders w.w_kv key))
      objs
  in
  check_invariant ~what:"healthy" live0;
  (* spaced kills: fewer than r copies of any key lost *)
  let victims =
    Cache_exp.spaced_victims ~members_by_id:(members_by_id w.w_node_id live0) ~frac:0.25 ~r
  in
  Alcotest.(check bool) "schedule produced victims" true (victims <> []);
  List.iter w.w_fail victims;
  let live = List.filter (fun a -> not (List.mem a victims)) live0 in
  adv 25_000.0;
  let got = ref [] in
  List.iter
    (fun (key, value) ->
      let origin = List.nth live (Prng.Rng.int rng (List.length live)) in
      Kv.get w.w_kv ~origin ~key (fun o -> got := (value, o) :: !got))
    objs;
  adv 50_000.0;
  Alcotest.(check int) "all get callbacks fired" nobj (List.length !got);
  List.iter
    (fun (value, o) ->
      match o with
      | Kv.Found g -> Alcotest.(check string) "served the put value" value g.Kv.g_value
      | Kv.Absent -> Alcotest.fail "acknowledged object absent after spaced failures"
      | Kv.Unreachable -> Alcotest.fail "acknowledged object unreachable after spaced failures")
    !got;
  (* delete propagates *)
  let dkey, _ = List.hd objs in
  let deleted = ref None in
  Kv.delete w.w_kv ~origin:(List.hd live) ~key:dkey (fun res -> deleted := res);
  adv 20_000.0;
  Alcotest.(check (option bool)) "delete acknowledged" (Some true) !deleted;
  Alcotest.(check (list int)) "no holders after delete" [] (Kv.holders w.w_kv dkey);
  (* and the survivors re-reach the oracle's placement *)
  let objs_left = List.tl objs in
  let net = oracle_over ~succ_list_len:w.w_succ_list_len w.w_node_id live in
  let ok () =
    List.for_all
      (fun (key, _) -> Kv.holders w.w_kv key = expected_holders net ~r key)
      objs_left
  in
  let rec settle n = if ok () || n = 0 then () else (adv 20_000.0; settle (n - 1)) in
  settle 6;
  List.iter
    (fun (key, _) ->
      Alcotest.(check (list int)) "healed holders equal the survivor oracle"
        (expected_holders net ~r key) (Kv.holders w.w_kv key))
    objs_left

let test_chord_conformance () = store_conformance ~r:3 (chord_world ~hosts:16 ~r:3 55)
let test_hieras_conformance () = store_conformance ~r:3 (hieras_world ~hosts:16 ~r:3 56)

(* --- the spaced fault schedule ------------------------------------------------- *)

let test_spaced_victims_shape () =
  let members = Array.init 16 Fun.id in
  Alcotest.(check (list int)) "16 nodes, frac 0.25, r 3" [ 0; 4; 8; 12 ]
    (Cache_exp.spaced_victims ~members_by_id:members ~frac:0.25 ~r:3);
  Alcotest.(check (list int)) "empty when the pool is no bigger than r" []
    (Cache_exp.spaced_victims ~members_by_id:(Array.init 3 Fun.id) ~frac:0.5 ~r:3);
  Alcotest.(check (list int)) "empty at frac 0" []
    (Cache_exp.spaced_victims ~members_by_id:members ~frac:0.0 ~r:3)

let spaced_victims_prop (n, r, frac) =
  let members = Array.init n (fun i -> 1000 + i) in
  let victims = Cache_exp.spaced_victims ~members_by_id:members ~frac ~r in
  let pos = List.map (fun v -> v - 1000) victims in
  let k = int_of_float (frac *. float_of_int n) in
  if List.length victims > k then
    QCheck.Test.fail_reportf "n=%d r=%d frac=%g: %d victims > budget %d" n r frac
      (List.length victims) k;
  List.iter
    (fun p ->
      if p < 0 || p >= n then QCheck.Test.fail_reportf "victim outside the membership" )
    pos;
  (* consecutive victims at least r apart in identifier order, and the last
     at least r before the wrap: no window of r consecutive nodes — no
     key's owner-plus-replicas set — ever loses more than one copy *)
  let rec gaps = function
    | a :: (b :: _ as tl) ->
        if b - a < r then
          QCheck.Test.fail_reportf "n=%d r=%d frac=%g: victims %d and %d inside one window" n r
            frac a b;
        gaps tl
    | _ -> ()
  in
  gaps pos;
  (match List.rev pos with
  | last :: _ ->
      if last > n - r then
        QCheck.Test.fail_reportf "n=%d r=%d frac=%g: last victim %d inside the wrap window" n r
          frac last
  | [] -> ());
  true

let test_spaced_victims_windows =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"victims never share a replica window" ~count:300
       QCheck.(triple (int_range 4 48) (int_range 1 4) (float_range 0.0 0.5))
       spaced_victims_prop)

(* --- the per-node cache tier ---------------------------------------------------- *)

let ncfg =
  {
    Ncache.capacity_entries = 3;
    capacity_bytes = 1_000_000;
    ttl_ms = 0.0;
    hot_threshold = 0.0;
    decay_half_life_ms = 5_000.0;
  }

let k name = Id.of_hash space name

let test_cache_lru_order () =
  let c = Ncache.create ncfg in
  Ncache.insert c ~now:0.0 (k "a") ~value:"A" ~bytes:10;
  Ncache.insert c ~now:1.0 (k "b") ~value:"B" ~bytes:10;
  Ncache.insert c ~now:2.0 (k "c") ~value:"C" ~bytes:10;
  (* touch a so b becomes the least recently used *)
  Alcotest.(check (option (pair string int))) "hit a" (Some ("A", 10)) (Ncache.find c ~now:3.0 (k "a"));
  Ncache.insert c ~now:4.0 (k "d") ~value:"D" ~bytes:10;
  Alcotest.(check (option (pair string int))) "b evicted" None (Ncache.find c ~now:5.0 (k "b"));
  Alcotest.(check (option (pair string int))) "a survives" (Some ("A", 10)) (Ncache.find c ~now:5.0 (k "a"));
  Alcotest.(check (option (pair string int))) "c survives" (Some ("C", 10)) (Ncache.find c ~now:5.0 (k "c"));
  Alcotest.(check (option (pair string int))) "d cached" (Some ("D", 10)) (Ncache.find c ~now:5.0 (k "d"));
  Alcotest.(check int) "one eviction" 1 (Ncache.evictions c);
  Alcotest.(check int) "three entries" 3 (Ncache.entries c)

let test_cache_byte_budget () =
  let c = Ncache.create { ncfg with Ncache.capacity_entries = 10; capacity_bytes = 100 } in
  Ncache.insert c ~now:0.0 (k "a") ~value:"A" ~bytes:60;
  Ncache.insert c ~now:1.0 (k "b") ~value:"B" ~bytes:30;
  Alcotest.(check int) "bytes add up" 90 (Ncache.bytes_used c);
  Ncache.insert c ~now:2.0 (k "c") ~value:"C" ~bytes:50;
  Alcotest.(check (option (pair string int))) "LRU evicted for bytes" None
    (Ncache.find c ~now:3.0 (k "a"));
  Alcotest.(check int) "budget holds" 80 (Ncache.bytes_used c);
  (* an object larger than the whole budget is not cached at all *)
  Ncache.insert c ~now:4.0 (k "huge") ~value:"H" ~bytes:200;
  Alcotest.(check (option (pair string int))) "oversized not cached" None
    (Ncache.find c ~now:5.0 (k "huge"));
  Alcotest.(check int) "others untouched" 80 (Ncache.bytes_used c)

let test_cache_ttl () =
  let c = Ncache.create { ncfg with Ncache.ttl_ms = 100.0 } in
  Ncache.insert c ~now:0.0 (k "a") ~value:"A" ~bytes:10;
  Alcotest.(check (option (pair string int))) "fresh hit" (Some ("A", 10))
    (Ncache.find c ~now:50.0 (k "a"));
  Alcotest.(check (option (pair string int))) "expired on touch" None
    (Ncache.find c ~now:201.0 (k "a"));
  Alcotest.(check int) "counted as expiration" 1 (Ncache.expirations c);
  (* re-insert refreshes value and TTL *)
  Ncache.insert c ~now:300.0 (k "a") ~value:"A2" ~bytes:10;
  Ncache.insert c ~now:310.0 (k "a") ~value:"A3" ~bytes:10;
  Alcotest.(check int) "re-insert keeps one entry" 1 (Ncache.entries c);
  Alcotest.(check (option (pair string int))) "refreshed value served" (Some ("A3", 10))
    (Ncache.find c ~now:395.0 (k "a"))

let test_cache_invalidate () =
  let c = Ncache.create ncfg in
  Ncache.insert c ~now:0.0 (k "a") ~value:"A" ~bytes:10;
  Ncache.invalidate c (k "a");
  Alcotest.(check (option (pair string int))) "gone" None (Ncache.find c ~now:1.0 (k "a"));
  Alcotest.(check int) "no entries" 0 (Ncache.entries c)

let test_cache_hotspots () =
  let c =
    Ncache.create { ncfg with Ncache.hot_threshold = 4.0; decay_half_life_ms = 1_000.0 }
  in
  Ncache.insert c ~now:0.0 (k "hot") ~value:"H" ~bytes:10;
  Ncache.insert c ~now:0.0 (k "cold") ~value:"C" ~bytes:10;
  for i = 1 to 8 do
    ignore (Ncache.find c ~now:(float_of_int i) (k "hot"))
  done;
  ignore (Ncache.find c ~now:9.0 (k "cold"));
  Alcotest.(check int) "one hot object" 1 (Ncache.hot_now c ~now:10.0);
  Alcotest.(check int) "recorded" 1 (Ncache.hot_ever c);
  (* a burst fades: twenty half-lives later the rate is cold again *)
  Alcotest.(check int) "decayed" 0 (Ncache.hot_now c ~now:20_010.0);
  Alcotest.(check int) "but history remains" 1 (Ncache.hot_ever c)

(* --- the zipf web-cache workload ------------------------------------------------ *)

let wspec = { Webcache.count = 400; objects = 32; alpha = 1.2 }

let stream spec seed =
  Webcache.to_array spec ~nodes:20 (Prng.Rng.create ~seed) |> Array.to_list

let test_stream_deterministic () =
  Alcotest.(check bool) "same seed, same stream" true (stream wspec 5 = stream wspec 5);
  Alcotest.(check bool) "different seed, different stream" true (stream wspec 5 <> stream wspec 6);
  (* iter and to_array agree *)
  let collected = ref [] in
  Webcache.iter wspec ~nodes:20 (Prng.Rng.create ~seed:5) (fun r -> collected := r :: !collected);
  Alcotest.(check bool) "iter replays the same stream" true (List.rev !collected = stream wspec 5);
  List.iter
    (fun { Webcache.origin; obj } ->
      Alcotest.(check bool) "origin in range" true (origin >= 0 && origin < 20);
      Alcotest.(check bool) "object in catalogue" true (obj >= 0 && obj < wspec.Webcache.objects))
    (stream wspec 5)

let test_catalogue_pure () =
  let cat = Webcache.catalogue wspec space in
  let cat' = Webcache.catalogue { wspec with Webcache.count = 7; alpha = 0.0 } space in
  Alcotest.(check int) "size" wspec.Webcache.objects (Array.length cat);
  Alcotest.(check bool) "independent of count and alpha" true (cat = cat');
  Array.iter
    (fun o ->
      Alcotest.(check bool) "sizes within bounds" true
        (o.Webcache.bytes >= Webcache.min_bytes && o.Webcache.bytes <= Webcache.max_bytes))
    cat;
  let keys = Array.to_list cat |> List.map (fun o -> o.Webcache.key) in
  Alcotest.(check int) "keys distinct" (Array.length cat)
    (List.length (List.sort_uniq Id.compare keys))

let test_zipf_skew () =
  let max_freq alpha =
    let counts = Array.make wspec.Webcache.objects 0 in
    List.iter
      (fun { Webcache.obj; _ } -> counts.(obj) <- counts.(obj) + 1)
      (stream { wspec with Webcache.alpha } 9);
    Array.fold_left max 0 counts
  in
  let skewed = max_freq 1.2 and flat = max_freq 0.0 in
  let mean = wspec.Webcache.count / wspec.Webcache.objects in
  Alcotest.(check bool)
    (Printf.sprintf "zipf concentrates load (max %d) over uniform (max %d)" skewed flat)
    true (skewed > 2 * flat);
  Alcotest.(check bool) "uniform stays roughly flat" true (flat < 3 * mean)

(* --- golden: the cache experiment ----------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let json_valid s = match Obs.Jsonu.parse s with Ok _ -> true | Error _ -> false
let golden_path = Filename.concat "golden" "cache_ts64.json"

let test_golden_cache () =
  let want = read_file golden_path in
  let res = Cache_exp.run Obs_test_support.Golden.cache_spec in
  let got = Cache_exp.results_json res ^ "\n" in
  Alcotest.(check string)
    "byte-identical (regenerate with: dune exec test/support/gen_golden.exe -- --cache > test/golden/cache_ts64.json)"
    want got;
  Alcotest.(check bool) "valid JSON" true (json_valid (String.trim want));
  (* the golden run is itself the acceptance scenario: a spaced schedule
     killing a quarter of the pool, measured availability 100% *)
  List.iter
    (fun (c : Cache_exp.cell) ->
      let what = Printf.sprintf "%s r=%d" c.Cache_exp.algo c.Cache_exp.replication in
      Alcotest.(check int) (what ^ ": every put acknowledged") c.Cache_exp.puts c.Cache_exp.puts_acked;
      Alcotest.(check int) (what ^ ": availability 100%") c.Cache_exp.requests c.Cache_exp.served;
      Alcotest.(check int) (what ^ ": nothing absent") 0 c.Cache_exp.absent;
      Alcotest.(check int) (what ^ ": nothing unreachable") 0 c.Cache_exp.unreachable;
      Alcotest.(check bool) (what ^ ": cache tier produced hits") true (c.Cache_exp.hits > 0))
    res.Cache_exp.cells

let test_cache_jobs_independent () =
  let want = read_file golden_path in
  let par =
    Parallel.Pool.with_pool ~jobs:4 (fun pool ->
        Cache_exp.results_json (Cache_exp.run ~pool Obs_test_support.Golden.cache_spec) ^ "\n")
  in
  Alcotest.(check string) "bytes independent of --jobs" want par

(* --- the wire-bytes audit -------------------------------------------------------- *)

let violations lines =
  let an = Analyze.create () in
  List.iter (Analyze.feed_line an) lines;
  match Analyze.net_report an with
  | Some nr -> nr.Analyze.n_violations
  | None -> Alcotest.fail "no net report from a netspan stream"

let msg ?parent ~span ~kind ?bytes () =
  Printf.sprintf {|{"ev":"msg","ctx":"audit","span":%d%s,"kind":"%s"%s,"src":0,"dst":1,"at":0,"lat":1}|}
    span
    (match parent with Some p -> Printf.sprintf ",\"parent\":%d" p | None -> "")
    kind
    (match bytes with Some b -> Printf.sprintf ",\"bytes\":%d" b | None -> "")

let test_audit_consistent_bytes_pass () =
  Alcotest.(check int) "consistent positive bytes are clean" 0
    (violations
       [
         msg ~span:0 ~kind:"store_put" ~bytes:128 ();
         msg ~span:1 ~parent:0 ~kind:"store_replicate" ~bytes:140 ();
         msg ~span:2 ~parent:0 ~kind:"store_reply" ~bytes:96 ();
         msg ~span:3 ~kind:"store_put" ~bytes:128 ();
       ])

let test_audit_flags_nonpositive () =
  Alcotest.(check bool) "zero bytes flagged" true
    (violations [ msg ~span:0 ~kind:"store_get" ~bytes:0 () ] > 0);
  Alcotest.(check bool) "negative bytes flagged" true
    (violations [ msg ~span:0 ~kind:"store_get" ~bytes:(-7) () ] > 0)

let test_audit_flags_inconsistent_kind () =
  Alcotest.(check bool) "two sizes for one kind flagged" true
    (violations
       [
         msg ~span:0 ~kind:"store_repair" ~bytes:64 ();
         msg ~span:1 ~kind:"store_repair" ~bytes:65 ();
       ]
    > 0)

let test_audit_tolerates_missing_bytes () =
  (* pre-bytes-field traces fall back to the cost model, unaudited *)
  Alcotest.(check int) "no bytes field, no violation" 0
    (violations [ msg ~span:0 ~kind:"lookup" (); msg ~span:1 ~parent:0 ~kind:"reply" () ])

let test_store_kinds_classified () =
  (* every store RPC kind exists, round-trips, and attributes to the
     "store" class of the bandwidth split *)
  let kinds = [ "store_put"; "store_get"; "store_delete"; "store_replicate"; "store_repair"; "store_reply" ] in
  List.iter
    (fun name ->
      match Netspan.kind_of_name name with
      | Some kind -> Alcotest.(check string) "round-trips" name (Netspan.kind_name kind)
      | None -> Alcotest.fail ("unknown store kind " ^ name))
    kinds;
  let an = Analyze.create () in
  List.iteri (fun i name -> Analyze.feed_line an (msg ~span:i ~kind:name ~bytes:(100 + i) ())) kinds;
  match Analyze.net_report an with
  | None -> Alcotest.fail "no net report"
  | Some nr -> (
      Alcotest.(check int) "clean" 0 nr.Analyze.n_violations;
      match List.find_opt (fun c -> c.Analyze.c_class = "store") nr.Analyze.n_classes with
      | Some c ->
          Alcotest.(check int) "all six messages in the store class" (List.length kinds)
            c.Analyze.c_msgs;
          Alcotest.(check bool) "store bytes attributed" true (c.Analyze.c_bytes > 0)
      | None -> Alcotest.fail "no store class in the report")

(* the experiment's own recorded trace audits clean end to end *)
let test_cache_net_trace_audits_clean () =
  let spec =
    {
      Cache_exp.default_spec with
      Cache_exp.pool = 10;
      objects = 6;
      requests = 40;
      replication = [ 2 ];
      fault = Cache_exp.No_fault;
      net_sample = Some 0.5;
      seed = 11;
    }
  in
  let r = Cache_exp.run spec in
  List.iter
    (fun (c : Cache_exp.cell) ->
      Alcotest.(check int) (c.Cache_exp.algo ^ ": healthy run serves everything")
        c.Cache_exp.requests c.Cache_exp.served)
    r.Cache_exp.cells;
  let lines =
    String.split_on_char '\n' (Cache_exp.net_trace r) |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "trace non-empty" true (lines <> []);
  let an = Analyze.create () in
  List.iter (Analyze.feed_line an) lines;
  match Analyze.net_report an with
  | None -> Alcotest.fail "no net report"
  | Some nr -> (
      Alcotest.(check int) "zero violations" 0 nr.Analyze.n_violations;
      match List.find_opt (fun c -> c.Analyze.c_class = "store") nr.Analyze.n_classes with
      | Some c -> Alcotest.(check bool) "store traffic recorded" true (c.Analyze.c_msgs > 0)
      | None -> Alcotest.fail "no store class in the report")

(* --- a settled put holds nothing ------------------------------------------------ *)

(* Once the put's acknowledgement lands, a block reachable only from the
   client's continuation is collected while the put's timeout is still
   queued: the lookup, put and replica legs each cancelled theirs. *)
let test_settled_put () =
  let module Held = Obs_test_support.Held in
  let eng, _, kv, _ = build_chord_store ~hosts:8 ~r:3 40 in
  let answered = ref false in
  let flag, k = Held.watch (fun r -> answered := Option.is_some r) in
  let issued = Engine.now eng in
  Kv.put kv ~origin:2 ~key:(Id.of_hash space "settled-put") ~value:"v" k;
  Held.run_until eng answered;
  Alcotest.(check bool) "acknowledged" true !answered;
  Alcotest.(check bool) "the put's timeout still queued" true
    (Engine.now eng < issued +. (2.0 *. Kv.default_config.Kv.rpc_timeout));
  Alcotest.(check bool) "continuation released" true (Held.released eng flag)

let () =
  Alcotest.run "store"
    [
      ( "versioning",
        [
          Alcotest.test_case "total order with deterministic tie-break" `Quick test_version_order;
          Alcotest.test_case "newer probed version wins" `Slow test_newer_version_wins;
        ] );
      ( "replication",
        [
          test_replication_invariant;
          Alcotest.test_case "delete round-trip" `Slow test_delete_roundtrip;
          Alcotest.test_case "a settled put holds nothing" `Slow test_settled_put;
        ] );
      ("availability", [ test_availability ]);
      ("read-repair", [ test_read_repair ]);
      ( "conformance",
        [
          Alcotest.test_case "store over chord" `Slow test_chord_conformance;
          Alcotest.test_case "store over hieras" `Slow test_hieras_conformance;
        ] );
      ( "fault-schedule",
        [
          Alcotest.test_case "spaced victims, concrete shape" `Quick test_spaced_victims_shape;
          test_spaced_victims_windows;
        ] );
      ( "cache-tier",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_cache_lru_order;
          Alcotest.test_case "byte budget" `Quick test_cache_byte_budget;
          Alcotest.test_case "TTL expiry and refresh" `Quick test_cache_ttl;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "hotspot detection decays" `Quick test_cache_hotspots;
        ] );
      ( "workload",
        [
          Alcotest.test_case "stream deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "catalogue pure" `Quick test_catalogue_pure;
          Alcotest.test_case "zipf skew concentrates load" `Quick test_zipf_skew;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fixed-seed cache results byte-identical" `Slow test_golden_cache;
          Alcotest.test_case "bytes independent of --jobs" `Slow test_cache_jobs_independent;
        ] );
      ( "audit",
        [
          Alcotest.test_case "consistent bytes pass" `Quick test_audit_consistent_bytes_pass;
          Alcotest.test_case "non-positive bytes flagged" `Quick test_audit_flags_nonpositive;
          Alcotest.test_case "inconsistent kind bytes flagged" `Quick
            test_audit_flags_inconsistent_kind;
          Alcotest.test_case "missing bytes tolerated" `Quick test_audit_tolerates_missing_bytes;
          Alcotest.test_case "store kinds classified" `Quick test_store_kinds_classified;
          Alcotest.test_case "experiment trace audits clean" `Slow test_cache_net_trace_audits_clean;
        ] );
    ]
