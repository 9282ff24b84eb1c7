(* The unified routing core: every {!Routing.ROUTABLE} implementation —
   the four flat substrates and their [Hieras.Make] layerings — runs the
   same functorized conformance suite (test/support/routing_suite.ml), and
   the HIERAS walk over Chord is pinned: its trace replay reproduces
   test/golden/trace_ts64.jsonl byte for byte, and digests of 1,000 routes
   at each of depths 2-4 match committed constants. *)

module Config = Experiments.Config
module Runner = Experiments.Runner
module Suite = Obs_test_support.Routing_suite
module T = Experiments.Tournament

let cfg = Obs_test_support.Golden.cfg
let space = Hashid.Id.sha1_space
let depth = cfg.Config.depth

(* one 64-node Transit-Stub world shared by all fixtures, built with the
   exact seeds Runner.build_hieras and Tournament.build_contestants use *)
type shared = {
  lat : Topology.Latency.t;
  chord : Chord.Network.t;
  hnet : Hieras.Hnetwork.t;
  hosts : int array;
  landmarks : Binning.Landmark.t;
}

let shared =
  lazy
    (let env = Runner.build_env cfg in
     let lat = Runner.latency_oracle env in
     let chord = Runner.chord_network env in
     let hnet = Runner.build_hieras env cfg in
     let hosts = Array.init (Chord.Network.size chord) (Chord.Network.host chord) in
     let landmarks =
       Binning.Landmark.choose_spread lat ~count:cfg.Config.landmarks
         (Prng.Rng.create ~seed:(cfg.Config.seed + 7919))
     in
     { lat; chord; hnet; hosts; landmarks })

let chord_r =
  lazy
    (let s = Lazy.force shared in
     Chord.Routable.make ~net:s.chord ~lat:s.lat)

let pastry_r =
  lazy
    (let s = Lazy.force shared in
     Pastry.Routable.make
       (Pastry.Network.build ~space ~hosts:s.hosts ~lat:s.lat
          ~rng:(Prng.Rng.create ~seed:(cfg.Config.seed + 7577))))

let can_r =
  lazy
    (let s = Lazy.force shared in
     Can.Routable.make ~net:(Can.Network.build ~space ~hosts:s.hosts ()) ~lat:s.lat)

let tapestry_r =
  lazy
    (let s = Lazy.force shared in
     Tapestry.Routable.make (Tapestry.Network.build ~space ~hosts:s.hosts ~lat:s.lat))

let lchord =
  lazy
    (let s = Lazy.force shared in
     T.LChord.build ~base:(Lazy.force chord_r) ~lat:s.lat ~landmarks:s.landmarks ~depth ())

let lpastry =
  lazy
    (let s = Lazy.force shared in
     T.LPastry.build ~base:(Lazy.force pastry_r) ~lat:s.lat ~landmarks:s.landmarks ~depth ())

let lcan =
  lazy
    (let s = Lazy.force shared in
     T.LCan.build ~base:(Lazy.force can_r) ~lat:s.lat ~landmarks:s.landmarks ~depth ())

let ltapestry =
  lazy
    (let s = Lazy.force shared in
     T.LTapestry.build ~base:(Lazy.force tapestry_r) ~lat:s.lat ~landmarks:s.landmarks ~depth ())

(* --- conformance: one suite per implementation -------------------------------- *)

module SChord = Suite.Make (struct
  include Chord.Routable

  let label = "chord"
  let build () = Lazy.force chord_r
end)

module SPastry = Suite.Make (struct
  include Pastry.Routable

  let label = "pastry"
  let build () = Lazy.force pastry_r
end)

module SCan = Suite.Make (struct
  include Can.Routable

  let label = "can"
  let build () = Lazy.force can_r
end)

module STapestry = Suite.Make (struct
  include Tapestry.Routable

  let label = "tapestry"
  let build () = Lazy.force tapestry_r
end)

module SLChord = Suite.Make (struct
  include T.LChord

  let label = "hieras-chord"
  let build () = Lazy.force lchord
end)

module SLPastry = Suite.Make (struct
  include T.LPastry

  let label = "hieras-pastry"
  let build () = Lazy.force lpastry
end)

module SLCan = Suite.Make (struct
  include T.LCan

  let label = "hieras-can"
  let build () = Lazy.force lcan
end)

module SLTapestry = Suite.Make (struct
  include T.LTapestry

  let label = "hieras-tapestry"
  let build () = Lazy.force ltapestry
end)

(* --- the HIERAS walk over Chord, pinned ------------------------------------------ *)

(* the functor replay of the golden-trace scenario must reproduce the
   committed bytes: same lookup ids, same hop sequences, same JSON *)
let test_functor_golden_trace () =
  let lc = Lazy.force lchord in
  let rc = Lazy.force chord_r in
  let buf = Buffer.create 8192 in
  let tr = Obs.Trace.jsonl (Buffer.add_string buf) in
  Array.iter
    (fun { Workload.Requests.origin; key } ->
      ignore (Chord.Routable.route ~trace:tr rc ~origin ~key);
      ignore (T.LChord.route ~trace:tr lc ~origin ~key))
    (Runner.requests cfg);
  let golden_path = Filename.concat "golden" "trace_ts64.jsonl" in
  let ic = open_in_bin golden_path in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string)
    "functor trace replay is byte-identical to the golden\n\
     (if routing intentionally changed, regenerate with:\n\
     \  dune exec test/support/gen_golden.exe > test/golden/trace_ts64.jsonl)"
    golden (Buffer.contents buf)

(* The HIERAS walk pinned hop by hop: 1,000 requests through [Hlookup.route]
   on a 256-node paper-config network at each depth, digested over every
   hop's (from, to, layer, latency) and each request's finishing layer.
   Latencies enter as exact hex floats, so any change to a hop, its layer
   tag, its oracle query or the early exit changes the digest. *)
let walk_digests =
  [
    (2, "34e13a0fa1e0de9f42e9ac709767326a");
    (3, "2c2bcd0f2ae4a1b254f30ce08faae9c9");
    (4, "1de10486339a6158977621718ccb7bb7");
  ]

let walk_digest ~depth =
  let cfg = Config.with_depth (Config.with_nodes Config.paper_default 256) depth in
  let env = Runner.build_env cfg in
  let hnet = Runner.build_hieras env cfg in
  let reqs = Runner.requests (Config.with_requests cfg 1000) in
  let b = Buffer.create (64 * 1024) in
  Array.iter
    (fun { Workload.Requests.origin; key } ->
      let r = Hieras.Hlookup.route hnet ~origin ~key in
      List.iter
        (fun (h : Hieras.Hlookup.hop) ->
          Printf.bprintf b "%d %d %d %h;" h.from_node h.to_node h.layer h.latency)
        r.Hieras.Hlookup.hops;
      Printf.bprintf b "|%d\n" r.Hieras.Hlookup.finished_at_layer)
    reqs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_walk_digests () =
  List.iter
    (fun (depth, want) ->
      Alcotest.(check string) (Printf.sprintf "depth %d walk digest" depth) want (walk_digest ~depth))
    walk_digests

(* --- the step budget ------------------------------------------------------------ *)

(* A substrate whose steps never reach the owner, node 3: the global step
   stays put and the ring step cycles through 0, 1 and 2. Every step counts
   its calls and raises [Exit] past ten budgets, so a walk that ignores the
   budget fails the test instead of hanging it. *)
module Stuck = struct
  type t = { mutable calls : int }

  let name = "stuck"
  let layered_name = "hieras-stuck"
  let size _ = 4
  let host _ i = i
  let link_latency _ _ _ = 1.0
  let guard _ = 16
  let owner_of_key _ ~key:_ = 3
  let live_owner _ ~is_alive:_ ~key:_ = Some 3

  let tick t =
    t.calls <- t.calls + 1;
    if t.calls > 10 * guard t then raise Exit

  let step t ~cur ~owner:_ ~key:_ =
    tick t;
    cur

  let candidates _ ~cur:_ ~owner:_ ~key:_ = []
  let window _ ~cur:_ = []
  let covers _ ~cur:_ ~upto:_ ~owner:_ ~key:_ = false

  type layer = unit

  let make_layer _ ~rings:_ = ()

  let ring_step t () ~cur ~owner:_ ~key:_ =
    tick t;
    (cur + 1) mod 3

  let ring_candidates _ () ~cur:_ ~owner:_ ~key:_ = []
  let ring_window _ () ~cur:_ = []
  let early_finish _ ~cur:_ ~owner:_ ~key:_ = None
end

module WStuck = Routing.Walk (Stuck)

let test_walk_guard () =
  let key = Hashid.Id.random space (Prng.Rng.create ~seed:1) in
  let diverges loop algo layers =
    match WStuck.route_hops_only { Stuck.calls = 0 } layers ~origin:0 ~key with
    | _ -> Alcotest.failf "%s: the walk returned" loop
    | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" loop msg algo)
          true
          (String.starts_with ~prefix:(algo ^ ":") msg)
  in
  diverges "global loop" "stuck" [||];
  diverges "ring loop" "hieras-stuck" [| () |]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing"
    [
      ("suite-chord", q (SChord.tests ~count:60));
      ("suite-pastry", q (SPastry.tests ~count:60));
      ("suite-can", q (SCan.tests ~count:60));
      ("suite-tapestry", q (STapestry.tests ~count:60));
      ("suite-hieras-chord", q (SLChord.tests ~count:40));
      ("suite-hieras-pastry", q (SLPastry.tests ~count:40));
      ("suite-hieras-can", q (SLCan.tests ~count:40));
      ("suite-hieras-tapestry", q (SLTapestry.tests ~count:40));
      ( "differential",
        [
          Alcotest.test_case "functor trace replay == golden bytes" `Quick
            test_functor_golden_trace;
          Alcotest.test_case "walk digests at depths 2-4" `Quick test_walk_digests;
        ] );
      ("guard", [ Alcotest.test_case "a walk that never arrives fails" `Quick test_walk_guard ]);
    ]
