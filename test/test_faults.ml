(* Tests for the fault-injection layer and the failure-aware walk:
   schedule compilation (monotonicity, determinism, planned-population
   replay, engine agreement), the failure-aware walk over flat Chord and
   over HIERAS at depths 2 and 3 (never ends at a dead node; collapses to
   the plain walk when nobody is dead; every hop makes clockwise progress;
   an origin that is the live owner takes no hop; traces stay auditable
   under faults), and the golden resilience report regression. *)

module Faults = Workload.Faults
module Lookup = Chord.Lookup
module Hlookup = Hieras.Hlookup
module Routable = Chord.Routable
module LChord = Hieras.Make (Chord.Routable)
module Engine = Simnet.Engine
module Analyze = Obs.Analyze
module Trace = Obs.Trace

(* --- schedule generators ----------------------------------------------------- *)

(* A seed deterministically expands to a small well-formed spec list; the
   qcheck search space is the seed, keeping shrinking meaningful. *)
let specs_of_seed seed =
  let rng = Prng.Rng.create ~seed in
  let n_specs = 1 + Prng.Rng.int rng 4 in
  List.init n_specs (fun _ ->
      let at = float_of_int (Prng.Rng.int rng 200) in
      match Prng.Rng.int rng 4 with
      | 0 -> Faults.Crash { at; frac = float_of_int (Prng.Rng.int rng 101) /. 100.0 }
      | 1 ->
          Faults.Crash_restart
            {
              at;
              frac = float_of_int (Prng.Rng.int rng 101) /. 100.0;
              down_ms = 1.0 +. float_of_int (Prng.Rng.int rng 500);
            }
      | 2 ->
          Faults.Domain_outage
            {
              at;
              domains = 1 + Prng.Rng.int rng 3;
              down_ms = (if Prng.Rng.int rng 2 = 0 then None else Some (50.0 +. at));
            }
      | _ ->
          Faults.Loss_window
            {
              from_ms = at;
              until_ms = at +. 1.0 +. float_of_int (Prng.Rng.int rng 300);
              rate = float_of_int (Prng.Rng.int rng 99) /. 100.0;
            })

(* --- validation --------------------------------------------------------------- *)

let test_validate_rejects () =
  let bad =
    [
      [ Faults.Crash { at = -1.0; frac = 0.5 } ];
      [ Faults.Crash { at = 0.0; frac = 1.5 } ];
      [ Faults.Crash_restart { at = 0.0; frac = 0.5; down_ms = 0.0 } ];
      [ Faults.Domain_outage { at = 0.0; domains = 0; down_ms = None } ];
      [ Faults.Domain_outage { at = 0.0; domains = 1; down_ms = Some 0.0 } ];
      [ Faults.Loss_window { from_ms = 5.0; until_ms = 5.0; rate = 0.1 } ];
      [ Faults.Loss_window { from_ms = 0.0; until_ms = 1.0; rate = 1.0 } ];
    ]
  in
  List.iter
    (fun specs ->
      (match Faults.validate specs with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "ill-formed spec accepted");
      Alcotest.(check bool) "compile raises" true
        (try
           ignore (Faults.compile ~nodes:8 specs (Prng.Rng.create ~seed:1));
           false
         with Invalid_argument _ -> true))
    bad;
  Alcotest.(check bool) "empty schedule is fine" true (Faults.validate [] = Ok ());
  Alcotest.(check int) "empty schedule compiles to nothing" 0
    (List.length (Faults.compile ~nodes:8 [] (Prng.Rng.create ~seed:1)))

(* --- compilation properties --------------------------------------------------- *)

let compile_prop seed =
  let specs = specs_of_seed seed in
  let nodes = 16 + (abs seed mod 48) in
  let events = Faults.compile ~nodes specs (Prng.Rng.create ~seed) in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  (* monotone in time *)
  ignore
    (List.fold_left
       (fun prev (e : Faults.event) ->
         if e.Faults.at < prev then fail "event at %g after %g" e.Faults.at prev;
         e.Faults.at)
       neg_infinity events);
  (* node indices in range; kills before revives per node *)
  let killed = Array.make nodes 0 and revived = Array.make nodes 0 in
  List.iter
    (fun (e : Faults.event) ->
      match e.Faults.action with
      | Faults.Kill n ->
          if n < 0 || n >= nodes then fail "kill of out-of-range node %d" n;
          killed.(n) <- killed.(n) + 1
      | Faults.Revive n ->
          if n < 0 || n >= nodes then fail "revive of out-of-range node %d" n;
          revived.(n) <- revived.(n) + 1;
          if revived.(n) > killed.(n) then fail "node %d revived before killed" n
      | Faults.Set_loss r -> if r < 0.0 || r >= 1.0 then fail "loss rate %g outside [0,1)" r)
    events;
  (* deterministic: same seed, same stream; also under a split-off rng of
     the same state (compile must not depend on ambient randomness) *)
  let again = Faults.compile ~nodes specs (Prng.Rng.create ~seed) in
  if events <> again then fail "compile is not deterministic for seed %d" seed;
  (* planned population at the end agrees with a replay of the engine *)
  let horizon = 10_000.0 in
  let planned = Faults.population ~nodes ~at:horizon events in
  let eng = Engine.create ~latency:(fun _ _ -> 0.0) ~nodes in
  Faults.apply eng ~rng:(Prng.Rng.create ~seed:(seed + 7)) events;
  Engine.run ~until:horizon eng;
  for n = 0 to nodes - 1 do
    if Engine.is_alive eng n <> planned.(n) then
      fail "node %d: engine %b, planned %b" n (Engine.is_alive eng n) planned.(n)
  done;
  if Engine.live_count eng <> Array.fold_left (fun a b -> if b then a + 1 else a) 0 planned then
    fail "live_count disagrees with planned population";
  (* conservation on the engine counters *)
  if Engine.deaths eng - Engine.revivals eng <> nodes - Engine.live_count eng then
    fail "deaths - revivals <> nodes - live";
  (* loss rate is a planned quantity too *)
  let lr = Faults.loss_rate ~at:horizon events in
  if lr < 0.0 || lr >= 1.0 then fail "planned loss rate %g outside [0,1)" lr;
  true

let test_compile_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"compiled schedules are monotone, deterministic, engine-consistent"
       ~count:100
       QCheck.(int_range 0 1_000_000)
       compile_prop)

let test_crash_fraction_exact () =
  (* a single crash of fraction f kills round(f*n) distinct nodes *)
  let nodes = 100 in
  List.iter
    (fun frac ->
      let events =
        Faults.compile ~nodes
          [ Faults.Crash { at = 5.0; frac } ]
          (Prng.Rng.create ~seed:42)
      in
      let victims =
        List.filter_map
          (fun (e : Faults.event) ->
            match e.Faults.action with Faults.Kill n -> Some n | _ -> None)
          events
      in
      let expect = int_of_float ((frac *. float_of_int nodes) +. 0.5) in
      Alcotest.(check int) (Printf.sprintf "frac %g kills" frac) expect (List.length victims);
      Alcotest.(check int)
        (Printf.sprintf "frac %g distinct" frac)
        expect
        (List.length (List.sort_uniq compare victims)))
    [ 0.0; 0.1; 0.25; 0.5; 1.0 ]

let test_domain_outage_correlated () =
  (* group_of = n mod 4: an outage kills whole residue classes and nothing else *)
  let nodes = 32 in
  let group_of n = n mod 4 in
  let events =
    Faults.compile ~group_of ~nodes
      [ Faults.Domain_outage { at = 1.0; domains = 2; down_ms = None } ]
      (Prng.Rng.create ~seed:7)
  in
  let victims =
    List.filter_map
      (fun (e : Faults.event) ->
        match e.Faults.action with Faults.Kill n -> Some n | _ -> None)
      events
  in
  let groups = List.sort_uniq compare (List.map group_of victims) in
  Alcotest.(check int) "two domains hit" 2 (List.length groups);
  Alcotest.(check int) "every member of each domain dies" (2 * (nodes / 4))
    (List.length victims);
  List.iter
    (fun n -> if List.mem (group_of n) groups then
        Alcotest.(check bool) (Printf.sprintf "node %d dead" n) true (List.mem n victims))
    (List.init nodes (fun i -> i))

let test_restart_revives () =
  let nodes = 50 in
  let events =
    Faults.compile ~nodes
      [ Faults.Crash_restart { at = 10.0; frac = 0.3; down_ms = 25.0 } ]
      (Prng.Rng.create ~seed:3)
  in
  let dead_mid = Faults.population ~nodes ~at:20.0 events in
  let alive_after = Faults.population ~nodes ~at:50.0 events in
  let count p a = Array.fold_left (fun acc b -> if p b then acc + 1 else acc) 0 a in
  Alcotest.(check int) "15 down during the outage" 15 (count not dead_mid);
  Alcotest.(check int) "all back after down_ms" nodes (count Fun.id alive_after)

let test_loss_window () =
  let events =
    Faults.compile ~nodes:4
      [ Faults.Loss_window { from_ms = 100.0; until_ms = 200.0; rate = 0.25 } ]
      (Prng.Rng.create ~seed:1)
  in
  Alcotest.(check (float 0.0)) "before" 0.0 (Faults.loss_rate ~at:50.0 events);
  Alcotest.(check (float 0.0)) "inside" 0.25 (Faults.loss_rate ~at:150.0 events);
  Alcotest.(check (float 0.0)) "after" 0.0 (Faults.loss_rate ~at:250.0 events)

(* --- resilient routing -------------------------------------------------------- *)

type scenario = {
  net : Chord.Network.t;
  hnet : Hieras.Hnetwork.t;
  lat : Topology.Latency.t;
  nodes : int;
  rc : Routable.t;
  layered : LChord.t;
}

let scenario_cache : (int, scenario) Hashtbl.t = Hashtbl.create 8

(* four scenarios, 48-105 nodes, at depths 2 and 3 alternately *)
let scenario_of_seed seed =
  let variant = abs seed mod 4 in
  match Hashtbl.find_opt scenario_cache variant with
  | Some s -> s
  | None ->
      let rng = Prng.Rng.create ~seed:(2000 + variant) in
      let nodes = 48 + (19 * variant) in
      let depth = 2 + (variant mod 2) in
      let lat = Topology.Transit_stub.generate ~hosts:nodes rng in
      let net =
        Chord.Network.build ~space:Hashid.Id.sha1_space ~hosts:(Array.init nodes (fun i -> i)) ()
      in
      let lm = Binning.Landmark.choose_spread lat ~count:4 rng in
      let hnet = Hieras.Hnetwork.build ~chord:net ~lat ~landmarks:lm ~depth () in
      let s =
        {
          net;
          hnet;
          lat;
          nodes;
          rc = Routable.make ~net ~lat;
          layered = Hieras.Hnetwork.layered hnet;
        }
      in
      Hashtbl.add scenario_cache variant s;
      s

let all_alive _ = true

(* a live origin drawn from [rng] *)
let live_origin rng s alive =
  let rec pick () =
    let o = Prng.Rng.int rng s.nodes in
    if alive.(o) then o else pick ()
  in
  pick ()

(* seeded crashes of 10-50% of the nodes *)
let crash_population s seed =
  let frac = float_of_int (10 + (abs seed mod 41)) /. 100.0 in
  let events =
    Faults.compile ~nodes:s.nodes
      [ Faults.Crash { at = 1.0; frac } ]
      (Prng.Rng.create ~seed:(seed + 13))
  in
  Faults.population ~nodes:s.nodes ~at:10.0 events

(* At failure fraction 0 the failure-aware walk must be the plain walk:
   identical results (polymorphic equality covers hops, latencies and
   per-layer attribution) and zero recovery activity. *)
let fraction0_prop seed =
  let s = scenario_of_seed seed in
  let rng = Prng.Rng.create ~seed in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  for _ = 1 to 5 do
    let key = Hashid.Id.random Hashid.Id.sha1_space rng in
    let origin = Prng.Rng.int rng s.nodes in
    let plain = Lookup.route s.net s.lat ~origin ~key in
    let a = Routable.route_resilient s.rc ~is_alive:all_alive ~origin ~key in
    (match a.Routing.outcome with
    | Some r when r = plain -> ()
    | Some r ->
        fail "chord: resilient dest %d lat %g <> plain dest %d lat %g" r.Lookup.destination
          r.Lookup.latency plain.Lookup.destination plain.Lookup.latency
    | None -> fail "chord: resilient walk failed with everyone alive");
    if a.Routing.retries + a.Routing.timeouts + a.Routing.fallbacks <> 0 then
      fail "chord: recovery activity with everyone alive";
    if a.Routing.penalty_ms <> 0.0 then fail "chord: penalty with everyone alive";
    (match Routable.live_owner s.rc ~is_alive:all_alive ~key with
    | Some o when o = plain.Lookup.destination -> ()
    | Some o -> fail "live_owner %d <> plain destination %d" o plain.Lookup.destination
    | None -> fail "live_owner None with everyone alive");
    let hplain = Hlookup.route s.hnet ~origin ~key in
    let ha = LChord.route_resilient s.layered ~is_alive:all_alive ~origin ~key in
    (match ha.Routing.outcome with
    | Some r when r = hplain -> ()
    | Some r ->
        fail "hieras: resilient dest %d lat %g <> plain dest %d lat %g" r.Hlookup.destination
          r.Hlookup.latency hplain.Hlookup.destination hplain.Hlookup.latency
    | None -> fail "hieras: resilient walk failed with everyone alive");
    if
      ha.Routing.retries + ha.Routing.timeouts + ha.Routing.fallbacks + ha.Routing.layer_escapes
      <> 0
    then fail "hieras: recovery activity with everyone alive"
  done;
  true

let test_fraction0_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"fraction 0: resilient walk = plain walk, both algorithms" ~count:30
       QCheck.(int_range 0 100_000)
       fraction0_prop)

(* Under a random crash pattern the failure-aware walk must never end a
   successful lookup at a dead node, and Chord successes must land exactly
   on the live owner. *)
let resilient_owner_prop seed =
  let s = scenario_of_seed seed in
  let rng = Prng.Rng.create ~seed in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let alive = crash_population s seed in
  let is_alive i = alive.(i) in
  for _ = 1 to 5 do
    let key = Hashid.Id.random Hashid.Id.sha1_space rng in
    let origin = live_origin rng s alive in
    let owner = Routable.live_owner s.rc ~is_alive ~key in
    (match owner with
    | Some o -> if not alive.(o) then fail "live_owner returned dead node %d" o
    | None -> fail "live_owner None with live nodes present");
    let a = Routable.route_resilient s.rc ~is_alive ~origin ~key in
    (match a.Routing.outcome with
    | Some r ->
        if not alive.(r.Lookup.destination) then
          fail "chord: resilient walk ended at dead node %d" r.Lookup.destination;
        if Some r.Lookup.destination <> owner then
          fail "chord: destination %d <> live owner %s" r.Lookup.destination
            (match owner with Some o -> string_of_int o | None -> "none")
    | None -> ());
    let ha = LChord.route_resilient s.layered ~is_alive ~origin ~key in
    match ha.Routing.outcome with
    | Some r ->
        if not alive.(r.Hlookup.destination) then
          fail "hieras: resilient walk ended at dead node %d" r.Hlookup.destination
    | None -> ()
  done;
  true

let test_resilient_never_dead =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"resilient walks never end at a dead node; chord hits the live owner"
       ~count:30
       QCheck.(int_range 0 100_000)
       resilient_owner_prop)

(* Forward progress under crashes, for flat Chord and for HIERAS at depths
   2 and 3: on every successful failure-aware lookup each hop lands
   clockwise in (from, live owner], each lower-layer hop (layer >= 2) lands
   strictly before the key, and the walk ends at the live owner. A ring
   walk that passes the key and circles its ring breaks the first two. *)
let forward_progress_prop seed =
  let s = scenario_of_seed seed in
  let rng = Prng.Rng.create ~seed in
  let alive = crash_population s seed in
  let is_alive i = alive.(i) in
  let id = Chord.Network.id s.net in
  let check algo key owner (a : Routing.attempt) =
    match a.Routing.outcome with
    | None -> ()
    | Some r ->
        if r.Routing.destination <> owner then
          QCheck.Test.fail_reportf "%s: success at %d, live owner %d" algo r.Routing.destination
            owner;
        List.iter
          (fun (h : Routing.hop) ->
            if not (Hashid.Id.in_oc (id h.to_node) ~lo:(id h.from_node) ~hi:(id owner)) then
              QCheck.Test.fail_reportf "%s: layer-%d hop %d -> %d leaves (from, live owner %d]" algo
                h.layer h.from_node h.to_node owner;
            if h.layer >= 2 && not (Hashid.Id.in_oo (id h.to_node) ~lo:(id h.from_node) ~hi:key)
            then
              QCheck.Test.fail_reportf "%s: layer-%d hop %d -> %d passes the key" algo h.layer
                h.from_node h.to_node)
          r.Routing.hops
  in
  for _ = 1 to 5 do
    let key = Hashid.Id.random Hashid.Id.sha1_space rng in
    let origin = live_origin rng s alive in
    match Routable.live_owner s.rc ~is_alive ~key with
    | None -> ()
    | Some owner ->
        check "chord" key owner (Routable.route_resilient s.rc ~is_alive ~origin ~key);
        check
          (Printf.sprintf "hieras depth %d" (LChord.depth s.layered))
          key owner
          (LChord.route_resilient s.layered ~is_alive ~origin ~key)
  done;
  true

let test_forward_progress =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"failure-aware hops progress clockwise to the live owner" ~count:40
       QCheck.(int_range 0 100_000)
       forward_progress_prop)

(* An origin can be a key's live owner only because the key's owner, its
   predecessor, is dead. The walk must see that at the origin and take no
   hop, flat and at every depth. *)
let test_owner_origin () =
  List.iter
    (fun variant ->
      let s = scenario_of_seed variant in
      for origin = 0 to s.nodes - 1 do
        let pred = Chord.Network.predecessor s.net origin in
        let is_alive i = i <> pred in
        let key = Chord.Network.id s.net pred in
        let zero_hops algo (a : Routing.attempt) =
          match a.Routing.outcome with
          | Some r when r.Routing.destination = origin && r.Routing.hop_count = 0 -> ()
          | Some r ->
              Alcotest.failf "%s: origin %d owns the key alive, walk took %d hops to %d" algo origin
                r.Routing.hop_count r.Routing.destination
          | None -> Alcotest.failf "%s: origin %d owns the key alive, walk stalled" algo origin
        in
        zero_hops "chord" (Routable.route_resilient s.rc ~is_alive ~origin ~key);
        zero_hops
          (Printf.sprintf "hieras depth %d" (LChord.depth s.layered))
          (LChord.route_resilient s.layered ~is_alive ~origin ~key)
      done)
    [ 0; 1 ]

(* Traced failure-aware lookups under faults must still satisfy the stream
   invariants: the analyzer audits hop-chain contiguity through retry and
   fallback events (a Recover event anchored off-chain is a violation),
   spans all close, and End latency = hop latencies + recovery penalties. *)
let resilient_trace_prop seed =
  let s = scenario_of_seed seed in
  let rng = Prng.Rng.create ~seed in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let events =
    Faults.compile ~nodes:s.nodes
      [ Faults.Crash { at = 1.0; frac = 0.3 } ]
      (Prng.Rng.create ~seed:(seed + 29))
  in
  let alive = Faults.population ~nodes:s.nodes ~at:10.0 events in
  let is_alive i = alive.(i) in
  let buf = Buffer.create 4096 in
  let tr = Trace.jsonl (Buffer.add_string buf) in
  let recover = ref 0 in
  for _ = 1 to 6 do
    let key = Hashid.Id.random Hashid.Id.sha1_space rng in
    let origin = live_origin rng s alive in
    let a = Routable.route_resilient ~trace:tr s.rc ~is_alive ~origin ~key in
    recover := !recover + a.Routing.retries + a.Routing.fallbacks;
    let ha = LChord.route_resilient ~trace:tr s.layered ~is_alive ~origin ~key in
    recover := !recover + ha.Routing.retries + ha.Routing.fallbacks + ha.Routing.layer_escapes
  done;
  let an = Analyze.create () in
  String.split_on_char '\n' (Buffer.contents buf) |> List.iter (Analyze.feed_line an);
  let r = Analyze.report an in
  if r.Analyze.violations <> 0 then
    fail "%d violations on a faulted resilient trace" r.Analyze.violations;
  if r.Analyze.spans_open <> 0 then fail "%d open spans" r.Analyze.spans_open;
  (* the analyzer's recover accounting sees exactly the emitted events *)
  let counted =
    List.fold_left
      (fun acc (a : Analyze.algo_report) ->
        acc + a.Analyze.recover.Analyze.retries + a.Analyze.recover.Analyze.fallbacks
        + a.Analyze.recover.Analyze.layer_escapes)
      0 r.Analyze.algos
  in
  if counted <> !recover then
    fail "analyzer counted %d recover events, routers reported %d" counted !recover;
  true

let test_resilient_traces_audit =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"faulted resilient traces audit clean, recover counts agree" ~count:20
       QCheck.(int_range 0 100_000)
       resilient_trace_prop)

let test_policy_validation () =
  let s = scenario_of_seed 0 in
  let key = Hashid.Id.random Hashid.Id.sha1_space (Prng.Rng.create ~seed:5) in
  let dead_origin i = i <> 0 in
  Alcotest.(check bool) "dead origin raises" true
    (try
       ignore (Routable.route_resilient s.rc ~is_alive:dead_origin ~origin:0 ~key);
       false
     with Invalid_argument _ -> true);
  (* attempt_delay: first attempt costs the timeout, later ones add capped backoff *)
  let p = Routing.default_policy in
  Alcotest.(check (float 1e-9)) "attempt 0" p.Routing.rpc_timeout_ms (Routing.attempt_delay p 0);
  Alcotest.(check (float 1e-9)) "attempt 1"
    (p.Routing.backoff_base_ms +. p.Routing.rpc_timeout_ms)
    (Routing.attempt_delay p 1);
  Alcotest.(check bool) "backoff capped at timeout" true
    (Routing.attempt_delay p 40 <= 2.0 *. p.Routing.rpc_timeout_ms +. 1e-9)

(* --- golden resilience report -------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_resilience () =
  let want = read_file (Filename.concat "golden" "resilience_ts64.json") in
  let got = Obs_test_support.Golden.build_resilience () in
  Alcotest.(check string)
    "byte-identical (regenerate with: dune exec test/support/gen_golden.exe -- --resilience > \
     test/golden/resilience_ts64.json)"
    want got

let () =
  Alcotest.run "faults"
    [
      ( "schedules",
        [
          Alcotest.test_case "validation rejects ill-formed specs" `Quick test_validate_rejects;
          test_compile_invariants;
          Alcotest.test_case "crash kills round(frac*n) distinct nodes" `Quick
            test_crash_fraction_exact;
          Alcotest.test_case "domain outages are correlated" `Quick test_domain_outage_correlated;
          Alcotest.test_case "crash-restart revives after downtime" `Quick test_restart_revives;
          Alcotest.test_case "loss windows open and close" `Quick test_loss_window;
        ] );
      ( "resilient-routing",
        [
          test_fraction0_equivalence;
          test_resilient_never_dead;
          test_forward_progress;
          Alcotest.test_case "an origin that is the live owner takes no hop" `Quick
            test_owner_origin;
          test_resilient_traces_audit;
          Alcotest.test_case "policy and origin validation" `Quick test_policy_validation;
        ] );
      ( "golden",
        [ Alcotest.test_case "resilience report is byte-identical" `Quick test_golden_resilience ] );
    ]
