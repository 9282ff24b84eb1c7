(* Cross-algorithm tournament: every substrate (Chord, Pastry, CAN,
   Tapestry), flat and HIERAS-layered through [Hieras.Make], replays one
   identical request stream over one identical topology — baseline plus the
   crash and stub-domain-outage fault schedules — into a single
   deterministic comparison matrix.

   The replays here are also the resilience experiment's: a fault schedule
   is compiled and applied to a Simnet engine on the calling domain, the
   liveness it leaves at [sample_at] is shared by every contestant, dead
   origins are remapped, and each request is routed through every
   contestant in turn. The stream is Runner.requests, and each replay runs
   on Runner.replay, whose chunk layout is fixed by request count alone —
   results are bit-identical for any --jobs. *)

module Summary = Stats.Summary
module Pool = Parallel.Pool
module Faults = Workload.Faults

module LChord = Hieras.Make (Chord.Routable)
module LPastry = Hieras.Make (Pastry.Routable)
module LCan = Hieras.Make (Can.Routable)
module LTapestry = Hieras.Make (Tapestry.Routable)

type contestant = C : (module Routing.ROUTABLE with type t = 'a) * 'a -> contestant

let space = Hashid.Id.sha1_space

(* the fault timeline: faults land, then lookups sample the network *)
let fault_at = 10.0
let sample_at = 100.0

type baseline = {
  hops : Summary.t;
  latency : Summary.t;
  stretch : float;
  owner_ok : int;
}

type fault_point = {
  succeeded : int;
  retries : int;
  timeouts : int;
  fallbacks : int;
  layer_escapes : int;
  penalty_ms : float;
  ok_latency_ms : float;  (* mean latency of successful lookups *)
}

type entry = {
  algo : string;
  hops_mean : float;
  hops_max : float;
  latency_mean : float;
  latency_max : float;
  stretch : float;  (* mean route latency / direct host latency *)
  owner_ok : int;  (* routes ending at the overlay's owner — must = lookups *)
  crash : fault_point;
  outage : fault_point;
}

type results = {
  config : Config.t;
  lookups : int;
  fault_fraction : float;
  crash_failed : int;
  outage_failed : int;
  entries : entry list;
}

let build_contestants env cfg =
  let lat = Runner.latency_oracle env in
  let chord = Runner.chord_network env in
  let n = Chord.Network.size chord in
  let hosts = Array.init n (Chord.Network.host chord) in
  let lrng = Prng.Rng.create ~seed:(cfg.Config.seed + 7919) in
  let landmarks = Binning.Landmark.choose_spread lat ~count:cfg.Config.landmarks lrng in
  let depth = cfg.Config.depth in
  let rc = Chord.Routable.make ~net:chord ~lat in
  let pastry =
    Pastry.Routable.make
      (Pastry.Network.build ~space ~hosts ~lat
         ~rng:(Prng.Rng.create ~seed:(cfg.Config.seed + 7577)))
  in
  let can = Can.Routable.make ~net:(Can.Network.build ~space ~hosts ()) ~lat in
  let tapestry = Tapestry.Routable.make (Tapestry.Network.build ~space ~hosts ~lat) in
  [
    C ((module Chord.Routable), rc);
    C ((module LChord), LChord.build ~base:rc ~lat ~landmarks ~depth ());
    C ((module Pastry.Routable), pastry);
    C ((module LPastry), LPastry.build ~base:pastry ~lat ~landmarks ~depth ());
    C ((module Can.Routable), can);
    C ((module LCan), LCan.build ~base:can ~lat ~landmarks ~depth ());
    C ((module Tapestry.Routable), tapestry);
    C ((module LTapestry), LTapestry.build ~base:tapestry ~lat ~landmarks ~depth ());
  ]

(* whole stub domains covering ~fraction of the population *)
let outage_domains lat hosts fraction =
  let module Iset = Set.Make (Int) in
  let groups =
    Array.fold_left
      (fun s h -> Iset.add (Topology.Latency.router_of_host lat h) s)
      Iset.empty hosts
    |> Iset.cardinal
  in
  max 1 (int_of_float ((fraction *. float_of_int groups) +. 0.5))

let sample_liveness cfg lat hosts specs ~idx =
  let n = Array.length hosts in
  let srng = Prng.Rng.create ~seed:(cfg.Config.seed + 40009 + idx) in
  let group_of slot = Topology.Latency.router_of_host lat hosts.(slot) in
  let events = Faults.compile ~group_of ~nodes:n specs srng in
  let eng = Simnet.Engine.create ~latency:(fun _ _ -> 0.0) ~nodes:n in
  Faults.apply eng ~rng:(Prng.Rng.split srng) events;
  Simnet.Engine.run ~until:sample_at eng;
  (Array.init n (Simnet.Engine.is_alive eng), n - Simnet.Engine.live_count eng)

(* One replay of the request stream: every request is routed through every
   contestant in turn, [visits.(c) acc r] folding request [r] into
   contestant [c]'s accumulator. *)
let each_request ?pool ?trace requests ~fresh ~merge visits =
  let k = Array.length visits in
  Runner.replay ?pool ?trace requests
    ~fresh:(fun () -> Array.init k (fun _ -> fresh ()))
    ~merge:(Array.map2 merge)
    (fun accs r -> Array.iteri (fun c visit -> visit accs.(c) r) visits)
  |> Array.to_list

(* one contestant's baseline sums over a chunk *)
type route_acc = {
  r_hops : Summary.t;
  r_lat : Summary.t;
  mutable stretch_sum : float;
  mutable stretch_n : int;
  mutable routed_ok : int;
}

let fresh_route () =
  {
    r_hops = Summary.create ();
    r_lat = Summary.create ();
    stretch_sum = 0.0;
    stretch_n = 0;
    routed_ok = 0;
  }

let merge_route a b =
  {
    r_hops = Summary.merge a.r_hops b.r_hops;
    r_lat = Summary.merge a.r_lat b.r_lat;
    stretch_sum = a.stretch_sum +. b.stretch_sum;
    stretch_n = a.stretch_n + b.stretch_n;
    routed_ok = a.routed_ok + b.routed_ok;
  }

let baseline ?pool lat contestants requests =
  let visit (C ((module X), t)) acc { Workload.Requests.origin; key } =
    let r = X.route t ~origin ~key in
    Summary.add acc.r_hops (float_of_int r.Routing.hop_count);
    Summary.add acc.r_lat r.Routing.latency;
    if r.Routing.destination = X.owner_of_key t ~key then acc.routed_ok <- acc.routed_ok + 1;
    let direct =
      Topology.Latency.host_latency lat (X.host t origin) (X.host t r.Routing.destination)
    in
    if direct > 0.0 then begin
      acc.stretch_sum <- acc.stretch_sum +. (r.Routing.latency /. direct);
      acc.stretch_n <- acc.stretch_n + 1
    end
  in
  each_request ?pool requests ~fresh:fresh_route ~merge:merge_route
    (Array.of_list (List.map visit contestants))
  |> List.map (fun a ->
         {
           hops = a.r_hops;
           latency = a.r_lat;
           stretch = (if a.stretch_n = 0 then 0.0 else a.stretch_sum /. float_of_int a.stretch_n);
           owner_ok = a.routed_ok;
         })

(* one contestant's failure-aware sums over a chunk *)
type fault_acc = {
  mutable ok : int;
  mutable f_retries : int;
  mutable f_timeouts : int;
  mutable f_fallbacks : int;
  mutable escapes : int;
  mutable penalty : float;
  ok_lat : Summary.t;
}

let fresh_fault () =
  {
    ok = 0;
    f_retries = 0;
    f_timeouts = 0;
    f_fallbacks = 0;
    escapes = 0;
    penalty = 0.0;
    ok_lat = Summary.create ();
  }

let merge_fault a b =
  {
    ok = a.ok + b.ok;
    f_retries = a.f_retries + b.f_retries;
    f_timeouts = a.f_timeouts + b.f_timeouts;
    f_fallbacks = a.f_fallbacks + b.f_fallbacks;
    escapes = a.escapes + b.escapes;
    penalty = a.penalty +. b.penalty;
    ok_lat = Summary.merge a.ok_lat b.ok_lat;
  }

let replay ?pool ?(trace = Obs.Trace.disabled) contestants ~hosts ~alive requests =
  let slot_of_host = Hashtbl.create (Array.length hosts) in
  Array.iteri (fun slot h -> Hashtbl.replace slot_of_host h slot) hosts;
  let visit (C ((module X), t)) =
    let n = X.size t in
    let alive = Array.init n (fun i -> alive.(Hashtbl.find slot_of_host (X.host t i))) in
    let is_alive i = alive.(i) in
    (* a dead origin cannot issue a lookup: deterministically remap it to
       the first live node by index, so every contestant and every fault
       schedule replays the same stream; with nobody alive, it fails *)
    let rec live_origin o steps =
      if steps >= n then None
      else if alive.(o) then Some o
      else live_origin ((o + 1) mod n) (steps + 1)
    in
    fun acc { Workload.Requests.origin; key } ->
      match live_origin origin 0 with
      | None -> ()
      | Some origin -> (
          let a = X.route_resilient ~trace t ~is_alive ~origin ~key in
          acc.f_retries <- acc.f_retries + a.Routing.retries;
          acc.f_timeouts <- acc.f_timeouts + a.Routing.timeouts;
          acc.f_fallbacks <- acc.f_fallbacks + a.Routing.fallbacks;
          acc.escapes <- acc.escapes + a.Routing.layer_escapes;
          acc.penalty <- acc.penalty +. a.Routing.penalty_ms;
          match (a.Routing.outcome, X.live_owner t ~is_alive ~key) with
          | Some r, Some o when r.Routing.destination = o ->
              acc.ok <- acc.ok + 1;
              Summary.add acc.ok_lat r.Routing.latency
          | _ -> ())
  in
  each_request ?pool ~trace requests ~fresh:fresh_fault ~merge:merge_fault
    (Array.of_list (List.map visit contestants))
  |> List.map (fun a ->
         {
           succeeded = a.ok;
           retries = a.f_retries;
           timeouts = a.f_timeouts;
           fallbacks = a.f_fallbacks;
           layer_escapes = a.escapes;
           penalty_ms = a.penalty;
           ok_latency_ms = (if Summary.count a.ok_lat = 0 then 0.0 else Summary.mean a.ok_lat);
         })

let export_registry reg r =
  let open Obs.Metrics in
  let c name v = set_counter (counter reg name) v in
  let g name v = set (gauge reg name) v in
  c "tournament.lookups" r.lookups;
  c "tournament.crash.failed" r.crash_failed;
  c "tournament.outage.failed" r.outage_failed;
  List.iter
    (fun e ->
      let p suffix = Printf.sprintf "tournament.%s.%s" e.algo suffix in
      g (p "hops_mean") e.hops_mean;
      g (p "latency_mean") e.latency_mean;
      g (p "stretch") e.stretch;
      c (p "owner_ok") e.owner_ok;
      c (p "crash.succeeded") e.crash.succeeded;
      c (p "crash.layer_escapes") e.crash.layer_escapes;
      g (p "crash.penalty_ms") e.crash.penalty_ms;
      c (p "outage.succeeded") e.outage.succeeded;
      c (p "outage.layer_escapes") e.outage.layer_escapes;
      g (p "outage.penalty_ms") e.outage.penalty_ms)
    r.entries

let run ?(pool = Pool.sequential) ?registry ?(timer = Obs.Timer.disabled)
    ?(fault_fraction = 0.3) cfg =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Tournament.run: " ^ e));
  if fault_fraction < 0.0 || fault_fraction > 0.95 then
    invalid_arg "Tournament.run: fault fraction must be in [0, 0.95]";
  let env = Runner.build_env ~pool ~timer cfg in
  let lat = Runner.latency_oracle env in
  let chord = Runner.chord_network env in
  let n = Chord.Network.size chord in
  let hosts = Array.init n (Chord.Network.host chord) in
  let contestants =
    Obs.Timer.span timer "build-contestants" (fun () -> build_contestants env cfg)
  in
  let requests = Runner.requests ~timer cfg in
  let baselines =
    Obs.Timer.span timer "baseline" (fun () -> baseline ~pool lat contestants requests)
  in
  (* one liveness sample per schedule, shared by all contestants *)
  let faulted label ~idx fault =
    let alive, failed = sample_liveness cfg lat hosts [ fault ] ~idx in
    (failed, Obs.Timer.span timer label (fun () -> replay ~pool contestants ~hosts ~alive requests))
  in
  let crash_failed, crash =
    faulted "crash" ~idx:0 (Faults.Crash { at = fault_at; frac = fault_fraction })
  in
  let outage_failed, outage =
    faulted "outage" ~idx:1
      (Faults.Domain_outage
         { at = fault_at; domains = outage_domains lat hosts fault_fraction; down_ms = None })
  in
  let entry_of (C ((module X), _)) ((b : baseline), (crash, outage)) =
    {
      algo = X.name;
      hops_mean = Summary.mean b.hops;
      hops_max = (if Summary.count b.hops = 0 then 0.0 else Summary.max_value b.hops);
      latency_mean = Summary.mean b.latency;
      latency_max = (if Summary.count b.latency = 0 then 0.0 else Summary.max_value b.latency);
      stretch = b.stretch;
      owner_ok = b.owner_ok;
      crash;
      outage;
    }
  in
  let r =
    {
      config = cfg;
      lookups = Array.length requests;
      fault_fraction;
      crash_failed;
      outage_failed;
      entries =
        List.map2 entry_of contestants (List.combine baselines (List.combine crash outage));
    }
  in
  Option.iter (fun reg -> export_registry reg r) registry;
  r

let gated r =
  List.concat_map
    (fun e ->
      let m name = Obs.Gate.metric (Printf.sprintf "tournament.%s.%s" e.algo name) in
      let fault name f =
        Obs.Gate.failure_rate (Printf.sprintf "tournament.%s.%s.failure_rate" e.algo name)
          ~ok:f.succeeded ~total:r.lookups
        @ [ m (name ^ ".penalty_ms") "ms" f.penalty_ms ]
      in
      [ m "hops_mean" "hops" e.hops_mean; m "latency_mean" "ms" e.latency_mean; m "stretch" "ratio" e.stretch ]
      @ fault "crash" e.crash @ fault "outage" e.outage)
    r.entries

(* Deterministic single-line JSON; fixed member and contestant order.
   Golden: test/golden/tournament_ts64.json. *)
let results_json r =
  let n = Obs.Jsonu.number in
  let fault_json f =
    Printf.sprintf
      {|{"succeeded":%d,"retries":%d,"timeouts":%d,"fallbacks":%d,"layer_escapes":%d,"penalty_ms":%s,"ok_latency_ms":%s}|}
      f.succeeded f.retries f.timeouts f.fallbacks f.layer_escapes (n f.penalty_ms)
      (n f.ok_latency_ms)
  in
  let entry_json e =
    Printf.sprintf
      {|{"algo":"%s","hops_mean":%s,"hops_max":%s,"latency_mean":%s,"latency_max":%s,"stretch":%s,"owner_ok":%d,"crash":%s,"outage":%s}|}
      (Obs.Jsonu.escape e.algo) (n e.hops_mean) (n e.hops_max) (n e.latency_mean)
      (n e.latency_max) (n e.stretch) e.owner_ok (fault_json e.crash) (fault_json e.outage)
  in
  let cfg = r.config in
  Printf.sprintf
    {|{"schema":"hieras-tournament","nodes":%d,"requests":%d,"landmarks":%d,"depth":%d,"seed":%d,"fault_fraction":%s,"crash_failed":%d,"outage_failed":%d,"contestants":[%s],"gated":%s}|}
    cfg.Config.nodes r.lookups cfg.Config.landmarks cfg.Config.depth cfg.Config.seed
    (n r.fault_fraction) r.crash_failed r.outage_failed
    (String.concat "," (List.map entry_json r.entries))
    (Obs.Gate.to_json (gated r))

let pct ok total = if total = 0 then 0.0 else 100.0 *. float_of_int ok /. float_of_int total

let section r =
  let tbl =
    Stats.Text_table.create
      [ "algo"; "hops"; "latency ms"; "stretch"; "crash ok"; "outage ok"; "escapes" ]
  in
  List.iter
    (fun e ->
      Stats.Text_table.add_row tbl
        [
          e.algo;
          Printf.sprintf "%.2f" e.hops_mean;
          Printf.sprintf "%.1f" e.latency_mean;
          Printf.sprintf "%.2f" e.stretch;
          Printf.sprintf "%.1f%%" (pct e.crash.succeeded r.lookups);
          Printf.sprintf "%.1f%%" (pct e.outage.succeeded r.lookups);
          string_of_int (e.crash.layer_escapes + e.outage.layer_escapes);
        ])
    r.entries;
  {
    Report.id = "tournament";
    title =
      Printf.sprintf
        "Cross-algorithm tournament (%d nodes, %d lookups, %.0f%% fault fraction)"
        r.config.Config.nodes r.lookups (100.0 *. r.fault_fraction);
    table = tbl;
    notes =
      [
        "every contestant replays the identical request stream over the identical \
         topology; layered rows are the flat substrate under Hieras.Make";
        Printf.sprintf
          "crash kills %d nodes uniformly, outage takes whole stub domains (%d nodes); \
           success = reaching the overlay's live owner"
          r.crash_failed r.outage_failed;
        "stretch = mean route latency over the direct host-to-host latency \
         (identical-host pairs excluded)";
      ];
  }
