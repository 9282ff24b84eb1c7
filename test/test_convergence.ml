(* Convergence detection and adaptive maintenance: the Simnet.Stability
   state machine itself, qcheck properties over the protocol-level detectors
   (bounded-time convergence after arbitrary join sequences, converged ring
   implies ideal key ownership, adaptive backoff never starves re-convergence
   after a kill), the adaptive-saves-bandwidth guarantee, and the soak golden
   regression. *)

module Id = Hashid.Id
module Engine = Simnet.Engine
module Stab = Simnet.Stability
module CP = Chord.Protocol
module HP = Hieras.Hprotocol

let space = Id.space ~bits:32
let ids n = Array.init n (fun i -> Id.of_hash space (Printf.sprintf "conv-%d" i))

let oracle n =
  Chord.Network.of_ids ~space ~ids:(ids n) ~hosts:(Array.init n (fun i -> i)) ()

(* --- the state machine ------------------------------------------------------ *)

let test_stability_machine () =
  Alcotest.check_raises "k = 0 rejected" (Invalid_argument "Stability.create: k must be >= 1")
    (fun () -> ignore (Stab.create ~k:0 ()));
  let s = Stab.create ~k:3 () in
  Alcotest.(check bool) "born converging" false (Stab.is_stable s);
  (* first observation only seeds the fingerprint *)
  Stab.observe s ~at:100.0 ~fingerprint:7;
  Alcotest.(check int) "seed starts no streak" 0 (Stab.streak s);
  (* three unchanged observations complete the convergence *)
  Stab.observe s ~at:200.0 ~fingerprint:7;
  Stab.observe s ~at:300.0 ~fingerprint:7;
  Alcotest.(check bool) "not yet" false (Stab.is_stable s);
  Stab.observe s ~at:400.0 ~fingerprint:7;
  Alcotest.(check bool) "stable at k" true (Stab.is_stable s);
  Alcotest.(check (option (float 0.0))) "declared at" (Some 400.0) (Stab.converged_at s);
  Alcotest.(check (float 0.0)) "clock ran from epoch start" 400.0 (Stab.last_convergence_ms s);
  (* a changed fingerprint is a disturbance and restarts the clock *)
  Stab.observe s ~at:500.0 ~fingerprint:8;
  Alcotest.(check bool) "disturbed" false (Stab.is_stable s);
  Alcotest.(check int) "one disturbance" 1 (Stab.disturbances s);
  Alcotest.(check int) "one change" 1 (Stab.changes s);
  Stab.observe s ~at:600.0 ~fingerprint:8;
  Stab.observe s ~at:700.0 ~fingerprint:8;
  Stab.observe s ~at:800.0 ~fingerprint:8;
  Alcotest.(check bool) "re-stable" true (Stab.is_stable s);
  Alcotest.(check (float 0.0)) "second convergence took 300" 300.0 (Stab.last_convergence_ms s);
  Alcotest.(check (float 0.0)) "totals add up" 700.0 (Stab.total_convergence_ms s);
  Alcotest.(check int) "two convergences" 2 (Stab.convergences s);
  (* perturb while stable: disturbance now, even though the fingerprint has
     not moved yet; the streak must rebuild from zero *)
  Stab.perturb s ~at:900.0;
  Alcotest.(check bool) "perturb unsettles" false (Stab.is_stable s);
  Alcotest.(check int) "streak reset" 0 (Stab.streak s);
  Alcotest.(check int) "perturb counted" 2 (Stab.disturbances s);
  (* perturb while already converging keeps the original epoch start *)
  Stab.perturb s ~at:1500.0;
  Stab.observe s ~at:1600.0 ~fingerprint:8;
  Stab.observe s ~at:1700.0 ~fingerprint:8;
  Stab.observe s ~at:1800.0 ~fingerprint:8;
  Alcotest.(check (float 0.0)) "clock from first perturb" 900.0 (Stab.last_convergence_ms s)

let test_fingerprint_mixer () =
  (* order-sensitive, total over native ints, stays positive *)
  let h l = List.fold_left Stab.fp_add Stab.fp_init l in
  Alcotest.(check bool) "order matters" true (h [ 1; 2 ] <> h [ 2; 1 ]);
  Alcotest.(check bool) "negatives distinct" true (h [ -1 ] <> h [ 1 ]);
  Alcotest.(check bool) "positive" true (h [ -1; min_int; max_int; 0 ] >= 0);
  Alcotest.(check int) "deterministic" (h [ 3; 1; 4; 1; 5 ]) (h [ 3; 1; 4; 1; 5 ])

(* --- ring helpers ------------------------------------------------------------ *)

(* The earlier, allocating forms of the two per-hop helpers, kept as the
   reference the current ones must match exactly. The reference compares
   ids as [Id.t], converting each peer's int key back, so it cross-checks
   the int compares of the walk. *)
let ref_closest_preceding sp (s : Chord.Ring.state) ~key =
  let id (p : Chord.Ring.peer) = Id.of_int sp p.pid in
  let best = ref None in
  let consider (p : Chord.Ring.peer) =
    if p.paddr <> s.addr && Id.in_oo (id p) ~lo:s.id ~hi:key then
      match !best with
      | Some b when Id.in_oo (id p) ~lo:(id b) ~hi:key -> best := Some p
      | Some _ -> ()
      | None -> best := Some p
  in
  Array.iter (function Some p -> consider p | None -> ()) s.fingers;
  List.iter consider s.succs;
  match !best with Some p -> p | None -> Chord.Ring.current_successor s

let ref_truncate_succs eng ~len (s : Chord.Ring.state) l =
  let seen = Hashtbl.create 8 in
  let deduped =
    List.filter
      (fun (p : Chord.Ring.peer) ->
        if p.paddr = s.addr || Hashtbl.mem seen p.paddr then false
        else if not (Engine.is_alive eng p.paddr) then false
        else begin
          Hashtbl.replace seen p.paddr ();
          true
        end)
      l
  in
  List.filteri (fun i _ -> i < len) deduped

(* Random node states on a 6-bit ring, where equal ids, repeated and
   copied peers, stale entries, self entries and dead peers are all
   common. *)
let prop_ring_helpers =
  QCheck.Test.make ~name:"closest_preceding and truncate_succs match their references" ~count:500
    QCheck.(pair small_nat (int_range 1 16))
    (fun (seed, n) ->
      let rng = Prng.Rng.create ~seed in
      let sp = Id.space ~bits:6 in
      let eng = Engine.create ~latency:(fun _ _ -> 1.0) ~nodes:n in
      let len = 1 + Prng.Rng.int rng 5 in
      let cfg = { (Chord.Ring.default_config sp) with Chord.Ring.succ_list_len = len } in
      let ring = (Chord.Ring.create ~prefix:"t" ~rings:1 cfg eng).(0) in
      let peers =
        Array.init n (fun addr -> Chord.Ring.self_peer (Chord.Ring.add ring ~addr ~id:(Id.random sp rng)))
      in
      for a = 1 to n - 1 do
        if Prng.Rng.int rng 4 = 0 then Engine.kill eng a
      done;
      let s = Chord.Ring.find ring 0 in
      (* a known peer, a copy of one, or a stale entry: a known address
         under another id *)
      let peer () =
        let p = peers.(Prng.Rng.int rng n) in
        match Prng.Rng.int rng 4 with
        | 0 -> { p with Chord.Ring.paddr = p.paddr }
        | 1 -> { p with Chord.Ring.pid = Id.to_int sp (Id.random sp rng) }
        | _ -> p
      in
      let plist () = List.init (Prng.Rng.int rng 9) (fun _ -> peer ()) in
      Array.iteri
        (fun i _ -> s.fingers.(i) <- (if Prng.Rng.int rng 3 = 0 then None else Some (peer ())))
        s.fingers;
      s.succs <- plist ();
      let l = plist () in
      List.for_all
        (fun _ ->
          let key = Id.random sp rng in
          Chord.Ring.closest_preceding s ~key:(Id.to_int sp key) = ref_closest_preceding sp s ~key)
        (List.init 20 Fun.id)
      && Chord.Ring.truncate_succs ring s l = ref_truncate_succs eng ~len s l)

(* The ring's int interval tests are Id's: random ids at widths from 1 to
   62 bits, with the bounds drawn equal and the point drawn on a bound
   often enough to cover Chord's wrap conventions. *)
let prop_int_intervals =
  QCheck.Test.make ~name:"int in_oo and in_oc equal Id.in_oo and Id.in_oc" ~count:2000
    QCheck.(pair small_nat (int_range 0 3))
    (fun (seed, w) ->
      let rng = Prng.Rng.create ~seed in
      let sp = Id.space ~bits:[| 1; 6; 32; 62 |].(w) in
      let lo = Id.random sp rng in
      let hi = if Prng.Rng.int rng 4 = 0 then lo else Id.random sp rng in
      let x =
        match Prng.Rng.int rng 4 with 0 -> lo | 1 -> hi | _ -> Id.random sp rng
      in
      let k = Id.to_int sp in
      Chord.Ring.in_oo (k x) ~lo:(k lo) ~hi:(k hi) = Id.in_oo x ~lo ~hi
      && Chord.Ring.in_oc (k x) ~lo:(k lo) ~hi:(k hi) = Id.in_oc x ~lo ~hi)

let test_wide_space_rejected () =
  let eng = Engine.create ~latency:(fun _ _ -> 1.0) ~nodes:1 in
  List.iter
    (fun bits ->
      Alcotest.check_raises (Printf.sprintf "%d bits" bits)
        (Invalid_argument
           (Printf.sprintf "Ring.create: a %d-bit space is wider than the 62 bits an int key holds"
              bits))
        (fun () ->
          ignore
            (Chord.Ring.create ~prefix:"t" ~rings:1 (Chord.Ring.default_config (Id.space ~bits)) eng)))
    [ 63; 160 ];
  ignore (Chord.Ring.create ~prefix:"t" ~rings:1 (Chord.Ring.default_config (Id.space ~bits:62)) eng)

(* The fingerprint as it was computed before the ring kept an address
   index: a fold over the node table's keys, sorted afresh. [addrs] are the
   ring's addresses in any order. *)
let ref_fingerprint eng ring addrs =
  let open Stab in
  List.fold_left
    (fun acc addr ->
      if not (Engine.is_alive eng addr) then acc
      else begin
        let s = Chord.Ring.find ring addr in
        let acc = fp_add acc addr in
        let acc = fp_add acc (match s.pred with None -> -1 | Some p -> p.paddr) in
        let acc = List.fold_left (fun acc (p : Chord.Ring.peer) -> fp_add acc p.paddr) acc s.succs in
        let acc = fp_add acc (-2) in
        Array.fold_left
          (fun acc f -> fp_add acc (match f with None -> -1 | Some (p : Chord.Ring.peer) -> p.paddr))
          acc s.fingers
      end)
    fp_init (List.sort Int.compare addrs)

(* Random rings: addresses added out of order with gaps, some nodes
   killed, random predecessors, successor lists and fingers. *)
let prop_fingerprint =
  QCheck.Test.make ~name:"indexed fingerprint equals the sorted-table fold" ~count:300
    QCheck.(pair small_nat (int_range 0 40))
    (fun (seed, n) ->
      let rng = Prng.Rng.create ~seed in
      let sp = Id.space ~bits:8 in
      let hosts = 64 in
      let eng = Engine.create ~latency:(fun _ _ -> 1.0) ~nodes:hosts in
      let ring = (Chord.Ring.create ~prefix:"t" ~rings:1 (Chord.Ring.default_config sp) eng).(0) in
      let addrs = ref [] in
      for _ = 1 to n do
        let addr = Prng.Rng.int rng hosts in
        if not (Chord.Ring.mem ring addr) then begin
          ignore (Chord.Ring.add ring ~addr ~id:(Id.random sp rng));
          addrs := addr :: !addrs
        end
      done;
      let peer () =
        let s = Chord.Ring.find ring (List.nth !addrs (Prng.Rng.int rng (List.length !addrs))) in
        Chord.Ring.self_peer s
      in
      List.iter
        (fun addr ->
          let s = Chord.Ring.find ring addr in
          if Prng.Rng.int rng 2 = 0 then s.pred <- Some (peer ());
          s.succs <- List.init (Prng.Rng.int rng 5) (fun _ -> peer ());
          Array.iteri
            (fun i _ -> if Prng.Rng.int rng 3 = 0 then s.fingers.(i) <- Some (peer ()))
            s.fingers;
          if Prng.Rng.int rng 4 = 0 then Engine.kill eng addr)
        !addrs;
      Chord.Ring.fingerprint ring = ref_fingerprint eng ring !addrs
      && Chord.Ring.live_members ring
         = List.sort Int.compare (List.filter (Engine.is_alive eng) !addrs))

(* --- protocol-level properties --------------------------------------------- *)

let build_chord ?(adaptive = false) ~n ~seed ~spread () =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts:n rng in
  let latency a b = Topology.Latency.host_latency lat a b in
  let eng = Engine.create ~latency ~nodes:n in
  let cfg = { (CP.default_config space) with CP.adaptive } in
  let p = CP.create cfg eng in
  let id = ids n in
  CP.spawn p ~addr:0 ~id:id.(0);
  let jrng = Prng.Rng.create ~seed:(seed + 17) in
  let last = ref 0.0 in
  for i = 1 to n - 1 do
    let at = Prng.Rng.float jrng spread in
    if at > !last then last := at;
    Engine.schedule eng ~delay:at (fun () -> CP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  (eng, p, !last)

(* Any join sequence (random arrival times over a 20 s window) must converge,
   and the detector must notice, within a bounded horizon after the last
   join: 120 s covers 240 un-backed-off probe rounds — if the ring needed
   more the maintenance machinery, not the bound, is broken. *)
let converge_prop (seed, n) =
  let eng, p, last_join = build_chord ~n ~seed ~spread:20_000.0 () in
  let horizon = last_join +. 120_000.0 in
  Engine.run ~until:horizon eng;
  let det = CP.stability p in
  CP.converged p
  && Stab.convergences det >= 1
  && (match Stab.converged_at det with Some t -> t <= horizon | None -> false)

let test_convergence_bounded =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"detector fires within bound after any join sequence" ~count:15
       QCheck.(pair small_nat (int_range 4 20))
       converge_prop)

(* Once the detector declares stability, the ring is not merely quiet — it is
   the ideal ring: every key's owner equals the analytic successor. *)
let ownership_prop (seed, n) =
  let eng, p, last_join = build_chord ~n ~seed ~spread:15_000.0 () in
  Engine.run ~until:(last_join +. 120_000.0) eng;
  if not (CP.converged p) then false
  else begin
    let net = oracle n in
    let krng = Prng.Rng.create ~seed:(seed + 71) in
    let ok = ref 0 in
    let total = 10 in
    for _ = 1 to total do
      let key = Id.random space krng in
      let expect = Chord.Network.id net (Chord.Network.successor_of_key net key) in
      CP.lookup p ~origin:(Prng.Rng.int krng n) ~key (fun r ->
          match r with
          | Some o when Id.equal o.CP.owner_id expect -> incr ok
          | _ -> ())
    done;
    Engine.run ~until:(Engine.now eng +. 60_000.0) eng;
    !ok = total
  end

let test_converged_implies_ideal =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"converged ring owns every key ideally" ~count:10
       QCheck.(pair small_nat (int_range 4 16))
       ownership_prop)

(* Adaptive backoff stretches the maintenance cadence while stable — but a
   kill must still be detected and healed. If backoff ever starved the
   probe or froze the intervals, the survivors would not re-converge. *)
let adaptive_heals_prop (seed, n) =
  let eng, p, last_join = build_chord ~adaptive:true ~n ~seed ~spread:10_000.0 () in
  Engine.run ~until:(last_join +. 120_000.0) eng;
  if not (CP.converged p) then false
  else begin
    let backed_off = CP.interval_scale p > 1.0 in
    let victim = 1 + (seed mod (n - 1)) in
    CP.fail_node p victim;
    Engine.run ~until:(Engine.now eng +. 240_000.0) eng;
    let live = List.filter (fun a -> a <> victim) (List.init n (fun i -> i)) in
    let ring = CP.ring_from p (List.hd live) in
    backed_off && CP.converged p
    && List.sort compare ring = live
    && Stab.disturbances (CP.stability p) >= 1
  end

let test_adaptive_still_heals =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"adaptive backoff still re-converges after a kill" ~count:10
       QCheck.(pair small_nat (int_range 5 14))
       adaptive_heals_prop)

(* The HIERAS variant: every layer's detector must fire, and the global ring
   must be ideal once they all have. *)
let hieras_converge_prop (seed, n) =
  let rng = Prng.Rng.create ~seed in
  let lat = Topology.Transit_stub.generate ~hosts:n rng in
  let latency a b = Topology.Latency.host_latency lat a b in
  let eng = Engine.create ~latency ~nodes:n in
  let lm = Binning.Landmark.choose_spread lat ~count:3 (Prng.Rng.create ~seed:(seed + 2)) in
  let p = HP.create (HP.default_config space ~depth:2) eng ~lat ~landmarks:lm in
  let id = ids n in
  HP.spawn p ~addr:0 ~id:id.(0);
  for i = 1 to n - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () ->
        HP.join p ~addr:i ~id:id.(i) ~bootstrap:0)
  done;
  Engine.run ~until:(float_of_int n *. 400.0 +. 160_000.0) eng;
  HP.converged p
  && HP.converged_layer p ~layer:1
  && HP.converged_layer p ~layer:2
  && Stab.convergences (HP.stability p ~layer:1) >= 1
  && Stab.convergences (HP.stability p ~layer:2) >= 1
  &&
  let sorted =
    List.sort (fun a b -> Id.compare (ids n).(a) (ids n).(b)) (List.init n (fun i -> i))
  in
  let ring = HP.ring_from p 0 ~layer:1 in
  List.sort compare ring = List.sort compare sorted

let test_hieras_convergence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"hieras detectors fire on every layer" ~count:8
       QCheck.(pair small_nat (int_range 6 16))
       hieras_converge_prop)

(* Fixed seed: with the ring quiet, adaptive mode must spend measurably less
   maintenance bandwidth than fixed cadence — and still be converged. *)
let test_adaptive_saves_bandwidth () =
  let run adaptive =
    let eng, p, last_join = build_chord ~adaptive ~n:16 ~seed:42 ~spread:5_000.0 () in
    Engine.run ~until:(last_join +. 300_000.0) eng;
    Alcotest.(check bool)
      (Printf.sprintf "converged (adaptive=%b)" adaptive)
      true (CP.converged p);
    CP.maintenance_ops p
  in
  let fixed = run false and adaptive = run true in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive spends less than fixed (%d < %d)" adaptive fixed)
    true (adaptive * 2 < fixed)

(* --- soak golden ------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_soak_golden () =
  let want = read_file (Filename.concat "golden" "soak_ts64.json") in
  let got = Obs_test_support.Golden.build_soak () in
  Alcotest.(check string)
    "byte-identical (regenerate with: dune exec test/support/gen_golden.exe -- --soak > \
     test/golden/soak_ts64.json)"
    want got

let test_soak_variants_golden () =
  let want = read_file (Filename.concat "golden" "soak_variants_ts64.json") in
  let got = Obs_test_support.Golden.build_soak_variants () in
  Alcotest.(check string)
    "byte-identical (regenerate with: dune exec test/support/gen_golden.exe -- --soak-variants \
     > test/golden/soak_variants_ts64.json)"
    want got

let test_soak_parallel_deterministic () =
  (* the cells of the golden spec computed on a real worker pool must merge
     to the same bytes as the sequential run *)
  let spec = Obs_test_support.Golden.soak_spec in
  let seq = Experiments.Soak.results_json (Experiments.Soak.run spec) in
  let par =
    Parallel.Pool.with_pool ~jobs:3 (fun pool ->
        Experiments.Soak.results_json (Experiments.Soak.run ~pool spec))
  in
  Alcotest.(check string) "pool-independent bytes" seq par

let test_soak_validate () =
  let bad f = match Experiments.Soak.validate f with Ok () -> false | Error _ -> true in
  let d = Experiments.Soak.default_spec in
  Alcotest.(check bool) "default valid" true
    (match Experiments.Soak.validate d with Ok () -> true | Error _ -> false);
  Alcotest.(check bool) "pool" true (bad { d with Experiments.Soak.pool = 1 });
  Alcotest.(check bool) "initial" true (bad { d with Experiments.Soak.initial = 0 });
  Alcotest.(check bool) "horizon" true (bad { d with Experiments.Soak.horizon_ms = 0.0 });
  Alcotest.(check bool) "factors" true (bad { d with Experiments.Soak.factors = [] });
  Alcotest.(check bool) "loss" true (bad { d with Experiments.Soak.loss = 1.0 });
  Alcotest.(check bool) "depth" true (bad { d with Experiments.Soak.depth = 9 });
  Alcotest.(check bool) "landmarks above the router count" true
    (bad { d with Experiments.Soak.landmarks = 89 })

(* The fault schedules draw their victims from the whole pool, so a fault
   can kill an address before churn joins it: every schedule must still
   run each cell to the end. *)
let test_soak_fault_schedules () =
  List.iter
    (fun fault ->
      let spec =
        {
          Experiments.Soak.default_spec with
          Experiments.Soak.pool = 24;
          initial = 8;
          horizon_ms = 20_000.0;
          factors = [ 1.0; 2.0 ];
          fault = Some fault;
          seed = 1;
        }
      in
      let r = Experiments.Soak.run spec in
      Alcotest.(check int)
        (Experiments.Resilience.schedule_name fault ^ ": every cell ran")
        4 (List.length r.Experiments.Soak.cells))
    Experiments.Resilience.[ Crash; Restart; Outage ]

(* A HIERAS cell records the churn telemetry whole: the planned churn
   series, the protocol's membership and lower-ring counts, and the
   engine's traffic. *)
let test_soak_series () =
  let spec = { Obs_test_support.Golden.soak_spec with Experiments.Soak.factors = [ 0.5 ] } in
  let r = Experiments.Soak.run spec in
  let cell = List.find (fun c -> c.Experiments.Soak.algo = "hieras") r.Experiments.Soak.cells in
  let series =
    match Obs.Jsonu.parse cell.Experiments.Soak.series_json with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun name ->
      let points =
        Option.bind (Obs.Jsonu.member "series" series) (Obs.Jsonu.member name)
        |> Fun.flip Option.bind (Obs.Jsonu.member "points")
        |> Fun.flip Option.bind Obs.Jsonu.to_list
      in
      Alcotest.(check bool) (name ^ " recorded") true
        (match points with Some (_ :: _) -> true | _ -> false))
    [ "churn.live"; "churn.joins"; "churn.fails"; "hieras.members"; "hieras.layer2.rings"; "net.sent" ]

let () =
  Alcotest.run "convergence"
    [
      ( "stability",
        [
          Alcotest.test_case "state machine" `Quick test_stability_machine;
          Alcotest.test_case "fingerprint mixer" `Quick test_fingerprint_mixer;
        ] );
      ( "ring-helpers",
        [
          QCheck_alcotest.to_alcotest prop_ring_helpers;
          QCheck_alcotest.to_alcotest prop_int_intervals;
          QCheck_alcotest.to_alcotest prop_fingerprint;
          Alcotest.test_case "wide spaces rejected" `Quick test_wide_space_rejected;
        ] );
      ( "protocol-convergence",
        [
          test_convergence_bounded;
          test_converged_implies_ideal;
          test_adaptive_still_heals;
          test_hieras_convergence;
          Alcotest.test_case "adaptive saves bandwidth" `Slow test_adaptive_saves_bandwidth;
        ] );
      ( "soak",
        [
          Alcotest.test_case "golden soak results byte-identical" `Slow test_soak_golden;
          Alcotest.test_case "golden soak variants byte-identical" `Slow test_soak_variants_golden;
          Alcotest.test_case "parallel run deterministic" `Slow test_soak_parallel_deterministic;
          Alcotest.test_case "spec validation" `Quick test_soak_validate;
          Alcotest.test_case "every fault schedule completes" `Quick test_soak_fault_schedules;
          Alcotest.test_case "hieras cell records the churn series" `Quick test_soak_series;
        ] );
    ]
