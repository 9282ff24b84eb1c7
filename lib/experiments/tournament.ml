(* Cross-algorithm tournament: every substrate (Chord, Pastry, CAN,
   Tapestry), flat and HIERAS-layered through [Hieras.Make], replays one
   identical request stream over one identical topology — baseline plus the
   PR 5 fault schedules — into a single deterministic comparison matrix.

   Determinism under --jobs follows the Resilience discipline: requests are
   pre-generated sequentially from the config seed, fault schedules are
   drawn once on the calling domain (shared by every contestant), and the
   lookup replay is chunked over a layout fixed by request count alone with
   per-chunk accumulators merged in chunk order. *)

module Summary = Stats.Summary
module Pool = Parallel.Pool
module Faults = Workload.Faults

module LChord = Hieras.Make (Chord.Routable)
module LPastry = Hieras.Make (Pastry.Routable)
module LCan = Hieras.Make (Can.Routable)
module LTapestry = Hieras.Make (Tapestry.Routable)

type contestant = C : (module Routing.ROUTABLE with type t = 'a) * 'a -> contestant

let space = Hashid.Id.sha1_space
let chunk_size = 4096

(* the Resilience timeline: faults land, then lookups sample the network *)
let fault_at = 10.0
let sample_at = 100.0

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
         ~rng:(Prng.Rng.create ~seed:(cfg.Config.seed + 7577))
         ())
  in
  let can = Can.Routable.make ~net:(Can.Network.build ~space ~hosts ()) ~lat in
  let tapestry =
    Tapestry.Routable.make
      (Tapestry.Network.build ~space ~hosts ~lat
         ~rng:(Prng.Rng.create ~seed:(cfg.Config.seed + 7591))
         ())
  in
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

(* whole stub domains covering ~fraction of the population, as in
   Resilience.outage_domains *)
let outage_domains lat hosts fraction =
  let module Iset = Set.Make (Int) in
  let groups =
    Array.fold_left
      (fun s h -> Iset.add (Topology.Latency.router_of_host lat h) s)
      Iset.empty hosts
    |> Iset.cardinal
  in
  max 1 (int_of_float ((fraction *. float_of_int groups) +. 0.5))

(* one compiled-and-applied fault schedule, sampled at [sample_at]: the
   liveness every contestant shares (indexed by host slot = chord node) *)
let sample_liveness cfg lat hosts specs ~idx =
  let n = Array.length hosts in
  let srng = Prng.Rng.create ~seed:(cfg.Config.seed + 40009 + idx) in
  let group_of slot = Topology.Latency.router_of_host lat hosts.(slot) in
  let events = Faults.compile ~group_of ~nodes:n specs srng in
  let eng = Simnet.Engine.create ~latency:(fun _ _ -> 0.0) ~nodes:n in
  Faults.apply eng ~rng:(Prng.Rng.split srng) events;
  Simnet.Engine.run ~until:sample_at eng;
  (Array.init n (Simnet.Engine.is_alive eng), n - Simnet.Engine.live_count eng)

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
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 104729) in
  let spec = Workload.Requests.paper_default ~count:cfg.Config.requests in
  let requests =
    Obs.Timer.span timer "gen-requests" (fun () ->
        Workload.Requests.to_array spec ~nodes:n ~space rng)
  in
  let issued = Array.length requests in
  (* one liveness sample per schedule, shared by all contestants; host slots
     are chord node indices, translated per contestant through [X.host] *)
  let slot_of_host = Hashtbl.create n in
  Array.iteri (fun i h -> Hashtbl.replace slot_of_host h i) hosts;
  let crash_alive, crash_failed =
    sample_liveness cfg lat hosts [ Faults.Crash { at = fault_at; frac = fault_fraction } ] ~idx:0
  in
  let outage_alive, outage_failed =
    sample_liveness cfg lat hosts
      [
        Faults.Domain_outage
          { at = fault_at; domains = outage_domains lat hosts fault_fraction; down_ms = None };
      ]
      ~idx:1
  in
  let entry_of (C ((module X), t)) =
    let baseline =
      Obs.Timer.span timer (Printf.sprintf "baseline-%s" X.name) (fun () ->
          let parts =
            Pool.map_chunks pool ~n:issued ~chunk_size (fun ~lo ~hi ->
                let hops = Summary.create () and latm = Summary.create () in
                let stretch_sum = ref 0.0 and stretch_n = ref 0 and owner_ok = ref 0 in
                for i = lo to hi - 1 do
                  let { Workload.Requests.origin; key } = requests.(i) in
                  let r = X.route t ~origin ~key in
                  Summary.add hops (float_of_int r.Routing.hop_count);
                  Summary.add latm r.Routing.latency;
                  if r.Routing.destination = X.owner_of_key t ~key then incr owner_ok;
                  let direct =
                    Topology.Latency.host_latency lat (X.host t origin)
                      (X.host t r.Routing.destination)
                  in
                  if direct > 0.0 then begin
                    stretch_sum := !stretch_sum +. (r.Routing.latency /. direct);
                    incr stretch_n
                  end
                done;
                (hops, latm, !stretch_sum, !stretch_n, !owner_ok))
          in
          List.fold_left
            (fun (h, l, ss, sn, ok) (h', l', ss', sn', ok') ->
              (Summary.merge h h', Summary.merge l l', ss +. ss', sn + sn', ok + ok'))
            (Summary.create (), Summary.create (), 0.0, 0, 0)
            parts)
    in
    let fault_point label (alive, _failed) =
      Obs.Timer.span timer (Printf.sprintf "%s-%s" label X.name) (fun () ->
          let is_alive node = alive.(Hashtbl.find slot_of_host (X.host t node)) in
          (* a dead origin cannot issue a lookup: deterministically remap to
             the first live node by index so every contestant replays the
             same stream *)
          let live_origin o =
            let rec go o steps =
              if steps > n then failwith "Tournament.run: no live node to originate from"
              else if is_alive o then o
              else go ((o + 1) mod n) (steps + 1)
            in
            go o 0
          in
          let parts =
            Pool.map_chunks pool ~n:issued ~chunk_size (fun ~lo ~hi ->
                let ok = ref 0
                and retries = ref 0
                and timeouts = ref 0
                and fallbacks = ref 0
                and escapes = ref 0
                and penalty = ref 0.0
                and ok_lat = Summary.create () in
                for i = lo to hi - 1 do
                  let { Workload.Requests.origin; key } = requests.(i) in
                  let origin = live_origin origin in
                  let a = X.route_resilient t ~is_alive ~origin ~key in
                  retries := !retries + a.Routing.retries;
                  timeouts := !timeouts + a.Routing.timeouts;
                  fallbacks := !fallbacks + a.Routing.fallbacks;
                  escapes := !escapes + a.Routing.layer_escapes;
                  penalty := !penalty +. a.Routing.penalty_ms;
                  match (a.Routing.outcome, X.live_owner t ~is_alive ~key) with
                  | Some r, Some o when r.Routing.destination = o ->
                      incr ok;
                      Summary.add ok_lat r.Routing.latency
                  | _ -> ()
                done;
                (!ok, !retries, !timeouts, !fallbacks, !escapes, !penalty, ok_lat))
          in
          let ok, retries, timeouts, fallbacks, escapes, penalty, ok_lat =
            List.fold_left
              (fun (a, b, c, d, e, f, s) (a', b', c', d', e', f', s') ->
                (a + a', b + b', c + c', d + d', e + e', f +. f', Summary.merge s s'))
              (0, 0, 0, 0, 0, 0.0, Summary.create ())
              parts
          in
          {
            succeeded = ok;
            retries;
            timeouts;
            fallbacks;
            layer_escapes = escapes;
            penalty_ms = penalty;
            ok_latency_ms = (if Summary.count ok_lat = 0 then 0.0 else Summary.mean ok_lat);
          })
    in
    let hops, latm, stretch_sum, stretch_n, owner_ok = baseline in
    {
      algo = X.name;
      hops_mean = Summary.mean hops;
      hops_max = (if Summary.count hops = 0 then 0.0 else Summary.max_value hops);
      latency_mean = Summary.mean latm;
      latency_max = (if Summary.count latm = 0 then 0.0 else Summary.max_value latm);
      stretch = (if stretch_n = 0 then 0.0 else stretch_sum /. float_of_int stretch_n);
      owner_ok;
      crash = fault_point "crash" (crash_alive, crash_failed);
      outage = fault_point "outage" (outage_alive, outage_failed);
    }
  in
  let r =
    {
      config = cfg;
      lookups = issued;
      fault_fraction;
      crash_failed;
      outage_failed;
      entries = List.map entry_of contestants;
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
