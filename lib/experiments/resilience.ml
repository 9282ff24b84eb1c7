(* Lookup success and latency stretch under injected failures. One fraction
   point = one fault schedule compiled and applied to a Simnet engine, run
   to the sample instant, then the standard paired request stream replayed
   through both resilient routers against the engine's liveness. The fault
   draw, the engine replay and the per-fraction accumulation all happen on
   the calling domain; only the lookup replay is chunked across the pool,
   with the fixed chunk layout Runner.measure uses — results are
   bit-identical for any --jobs. *)

module Summary = Stats.Summary
module Pool = Parallel.Pool
module Faults = Workload.Faults
module LChord = Hieras.Make (Chord.Routable)

type schedule = Crash | Outage | Restart

let schedule_name = function Crash -> "crash" | Outage -> "outage" | Restart -> "restart"

let schedule_of_name = function
  | "crash" -> Some Crash
  | "outage" -> Some Outage
  | "restart" -> Some Restart
  | _ -> None

let default_fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ]

(* schedule timeline: faults land at 10 ms, lookups sample the network at
   100 ms; a Restart downtime of 60 s keeps victims down at the sample
   instant (the restart schedule differs from crash in the event stream —
   revivals exist — not in the sampled liveness) *)
let fault_at = 10.0
let sample_at = 100.0
let restart_down_ms = 60_000.0

type point = {
  fraction : float;
  failed : int;
  chord_issued : int;
  chord_succeeded : int;
  chord_stretch : float;
  chord_retries : int;
  chord_timeouts : int;
  chord_fallbacks : int;
  chord_penalty_ms : float;
  hieras_issued : int;
  hieras_succeeded : int;
  hieras_stretch : float;
  hieras_retries : int;
  hieras_timeouts : int;
  hieras_fallbacks : int;
  hieras_layer_escapes : int;
  hieras_penalty_ms : float;
}

type results = {
  config : Config.t;
  kind : schedule;
  chord_baseline_ms : float;
  hieras_baseline_ms : float;
  points : point list;
}

(* per-chunk accumulator; merged left-to-right in chunk order *)
type acc = {
  mutable c_ok : int;
  c_lat : Summary.t;
  mutable c_retries : int;
  mutable c_timeouts : int;
  mutable c_fallbacks : int;
  mutable c_penalty : float;
  mutable h_ok : int;
  h_lat : Summary.t;
  mutable h_retries : int;
  mutable h_timeouts : int;
  mutable h_fallbacks : int;
  mutable h_escapes : int;
  mutable h_penalty : float;
}

let fresh_acc () =
  {
    c_ok = 0;
    c_lat = Summary.create ();
    c_retries = 0;
    c_timeouts = 0;
    c_fallbacks = 0;
    c_penalty = 0.0;
    h_ok = 0;
    h_lat = Summary.create ();
    h_retries = 0;
    h_timeouts = 0;
    h_fallbacks = 0;
    h_escapes = 0;
    h_penalty = 0.0;
  }

let merge_acc a b =
  a.c_ok <- a.c_ok + b.c_ok;
  a.c_retries <- a.c_retries + b.c_retries;
  a.c_timeouts <- a.c_timeouts + b.c_timeouts;
  a.c_fallbacks <- a.c_fallbacks + b.c_fallbacks;
  a.c_penalty <- a.c_penalty +. b.c_penalty;
  a.h_ok <- a.h_ok + b.h_ok;
  a.h_retries <- a.h_retries + b.h_retries;
  a.h_timeouts <- a.h_timeouts + b.h_timeouts;
  a.h_fallbacks <- a.h_fallbacks + b.h_fallbacks;
  a.h_escapes <- a.h_escapes + b.h_escapes;
  a.h_penalty <- a.h_penalty +. b.h_penalty;
  {
    a with
    c_lat = Summary.merge a.c_lat b.c_lat;
    h_lat = Summary.merge a.h_lat b.h_lat;
  }

let specs_of kind fraction =
  if fraction <= 0.0 then []
  else
    match kind with
    | Crash -> [ Faults.Crash { at = fault_at; frac = fraction } ]
    | Restart -> [ Faults.Crash_restart { at = fault_at; frac = fraction; down_ms = restart_down_ms } ]
    | Outage -> [ Faults.Domain_outage { at = fault_at; domains = 1; down_ms = None } ]

(* An outage point needs a domain count proportional to the target
   fraction: pick enough whole stub domains to cover ~fraction of nodes. *)
let outage_domains env fraction =
  let chord = Runner.chord_network env in
  let lat = Runner.latency_oracle env in
  let n = Chord.Network.size chord in
  let module Iset = Set.Make (Int) in
  let groups =
    Array.init n (fun i -> Topology.Latency.router_of_host lat (Chord.Network.host chord i))
    |> Array.fold_left (fun s g -> Iset.add g s) Iset.empty
    |> Iset.cardinal
  in
  max 1 (int_of_float ((fraction *. float_of_int groups) +. 0.5))

let export_registry reg r =
  let open Obs.Metrics in
  let c name v = set_counter (counter reg name) v in
  let g name v = set (gauge reg name) v in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 r.points in
  let sumf f = List.fold_left (fun acc p -> acc +. f p) 0.0 r.points in
  c "resilience.chord.issued" (sum (fun p -> p.chord_issued));
  c "resilience.chord.succeeded" (sum (fun p -> p.chord_succeeded));
  c "resilience.chord.retries" (sum (fun p -> p.chord_retries));
  c "resilience.chord.timeouts" (sum (fun p -> p.chord_timeouts));
  c "resilience.chord.fallbacks" (sum (fun p -> p.chord_fallbacks));
  g "resilience.chord.penalty_ms" (sumf (fun p -> p.chord_penalty_ms));
  c "resilience.hieras.issued" (sum (fun p -> p.hieras_issued));
  c "resilience.hieras.succeeded" (sum (fun p -> p.hieras_succeeded));
  c "resilience.hieras.retries" (sum (fun p -> p.hieras_retries));
  c "resilience.hieras.timeouts" (sum (fun p -> p.hieras_timeouts));
  c "resilience.hieras.fallbacks" (sum (fun p -> p.hieras_fallbacks));
  c "resilience.hieras.layer_escapes" (sum (fun p -> p.hieras_layer_escapes));
  g "resilience.hieras.penalty_ms" (sumf (fun p -> p.hieras_penalty_ms));
  g "resilience.chord.baseline_ms" r.chord_baseline_ms;
  g "resilience.hieras.baseline_ms" r.hieras_baseline_ms;
  List.iter
    (fun p ->
      let pct = int_of_float ((p.fraction *. 100.0) +. 0.5) in
      let rate ok issued = if issued = 0 then 0.0 else float_of_int ok /. float_of_int issued in
      g (Printf.sprintf "resilience.chord.f%03d.success_rate" pct)
        (rate p.chord_succeeded p.chord_issued);
      g (Printf.sprintf "resilience.chord.f%03d.stretch" pct) p.chord_stretch;
      g (Printf.sprintf "resilience.hieras.f%03d.success_rate" pct)
        (rate p.hieras_succeeded p.hieras_issued);
      g (Printf.sprintf "resilience.hieras.f%03d.stretch" pct) p.hieras_stretch)
    r.points

let run ?pool ?registry ?(trace = Obs.Trace.disabled) ?(net = Obs.Netspan.disabled)
    ?(timer = Obs.Timer.disabled) ?(fractions = default_fractions) ?(kind = Crash) cfg =
  List.iter
    (fun f ->
      if f < 0.0 || f > 0.95 then
        invalid_arg "Resilience.run: failure fraction must be in [0, 0.95]")
    fractions;
  let pool =
    if Obs.Trace.enabled trace then Pool.sequential else Option.value pool ~default:Pool.sequential
  in
  let env = Runner.build_env ~pool ~timer cfg in
  let hnet = Runner.build_hieras ~timer env cfg in
  let chord = Runner.chord_network env in
  let lat = Runner.latency_oracle env in
  let rc = Chord.Routable.make ~net:chord ~lat in
  let layered = Hieras.Hnetwork.layered hnet in
  let n = Chord.Network.size chord in
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 104729) in
  let spec = Workload.Requests.paper_default ~count:cfg.Config.requests in
  let requests =
    Obs.Timer.span timer "gen-requests" (fun () ->
        Workload.Requests.to_array spec ~nodes:n ~space:Hashid.Id.sha1_space rng)
  in
  let issued = Array.length requests in
  let chunk_size = 4096 in
  (* all-alive baseline: plain-route mean latency, the stretch denominator *)
  let chord_baseline, hieras_baseline =
    Obs.Timer.span timer "baseline" (fun () ->
        let parts =
          Pool.map_chunks pool ~n:issued ~chunk_size (fun ~lo ~hi ->
              let c = Summary.create () and h = Summary.create () in
              for i = lo to hi - 1 do
                let { Workload.Requests.origin; key } = requests.(i) in
                Summary.add c (Chord.Lookup.route chord lat ~origin ~key).Chord.Lookup.latency;
                Summary.add h (Hieras.Hlookup.route hnet ~origin ~key).Hieras.Hlookup.latency
              done;
              (c, h))
        in
        List.fold_left
          (fun (c, h) (c', h') -> (Summary.merge c c', Summary.merge h h'))
          (Summary.create (), Summary.create ())
          parts)
  in
  let chord_baseline_ms = Summary.mean chord_baseline in
  let hieras_baseline_ms = Summary.mean hieras_baseline in
  let trace = if Obs.Trace.enabled trace then Some trace else None in
  let point_of idx fraction =
    Obs.Timer.span timer (Printf.sprintf "fraction-%02.0f%%" (fraction *. 100.0)) (fun () ->
        (* compile and apply the fault schedule on a real engine, then read
           the surviving population off it at the sample instant *)
        let specs =
          match specs_of kind fraction with
          | [ Faults.Domain_outage o ] ->
              [ Faults.Domain_outage { o with domains = outage_domains env fraction } ]
          | s -> s
        in
        let srng = Prng.Rng.create ~seed:(cfg.Config.seed + 40009 + idx) in
        let group_of node = Topology.Latency.router_of_host lat (Chord.Network.host chord node) in
        let events = Faults.compile ~group_of ~nodes:n specs srng in
        let eng = Simnet.Engine.create ~latency:(fun _ _ -> 0.0) ~nodes:n in
        (* Points run sequentially on the calling domain, so they can share
           one net-trace sink; the resilience engines carry only god-event
           fault schedules (lookups here are analytic replays), so the
           recorded span stream is exactly the fault traffic — usually
           empty. *)
        if Obs.Netspan.enabled net then Simnet.Engine.attach_netspan eng net;
        Faults.apply eng ~rng:(Prng.Rng.split srng) events;
        Simnet.Engine.run ~until:sample_at eng;
        let alive = Array.init n (Simnet.Engine.is_alive eng) in
        let failed = n - Simnet.Engine.live_count eng in
        let is_alive i = alive.(i) in
        (* a dead origin cannot issue a lookup: deterministically remap to
           its first live successor-by-index so every point replays the
           same request stream *)
        let live_origin o =
          let rec go o steps =
            if steps > n then failwith "Resilience.run: no live node to originate from"
            else if alive.(o) then o
            else go ((o + 1) mod n) (steps + 1)
          in
          go o 0
        in
        let parts =
          Pool.map_chunks pool ~n:issued ~chunk_size (fun ~lo ~hi ->
              let a = fresh_acc () in
              for i = lo to hi - 1 do
                let { Workload.Requests.origin; key } = requests.(i) in
                let origin = live_origin origin in
                let owner = Chord.Routable.live_owner rc ~is_alive ~key in
                let ca = Chord.Routable.route_resilient ?trace rc ~is_alive ~origin ~key in
                a.c_retries <- a.c_retries + ca.Routing.retries;
                a.c_timeouts <- a.c_timeouts + ca.Routing.timeouts;
                a.c_fallbacks <- a.c_fallbacks + ca.Routing.fallbacks;
                a.c_penalty <- a.c_penalty +. ca.Routing.penalty_ms;
                (match (ca.Routing.outcome, owner) with
                | Some r, Some o when r.Routing.destination = o ->
                    a.c_ok <- a.c_ok + 1;
                    Summary.add a.c_lat r.Routing.latency
                | _ -> ());
                let ha = LChord.route_resilient ?trace layered ~is_alive ~origin ~key in
                a.h_retries <- a.h_retries + ha.Routing.retries;
                a.h_timeouts <- a.h_timeouts + ha.Routing.timeouts;
                a.h_fallbacks <- a.h_fallbacks + ha.Routing.fallbacks;
                a.h_escapes <- a.h_escapes + ha.Routing.layer_escapes;
                a.h_penalty <- a.h_penalty +. ha.Routing.penalty_ms;
                match (ha.Routing.outcome, owner) with
                | Some r, Some o when r.Routing.destination = o ->
                    a.h_ok <- a.h_ok + 1;
                    Summary.add a.h_lat r.Routing.latency
                | _ -> ()
              done;
              a)
        in
        let a =
          match parts with [] -> fresh_acc () | first :: rest -> List.fold_left merge_acc first rest
        in
        let stretch lat base =
          if Summary.count lat = 0 || base <= 0.0 then 0.0 else Summary.mean lat /. base
        in
        {
          fraction;
          failed;
          chord_issued = issued;
          chord_succeeded = a.c_ok;
          chord_stretch = stretch a.c_lat chord_baseline_ms;
          chord_retries = a.c_retries;
          chord_timeouts = a.c_timeouts;
          chord_fallbacks = a.c_fallbacks;
          chord_penalty_ms = a.c_penalty;
          hieras_issued = issued;
          hieras_succeeded = a.h_ok;
          hieras_stretch = stretch a.h_lat hieras_baseline_ms;
          hieras_retries = a.h_retries;
          hieras_timeouts = a.h_timeouts;
          hieras_fallbacks = a.h_fallbacks;
          hieras_layer_escapes = a.h_escapes;
          hieras_penalty_ms = a.h_penalty;
        })
  in
  let points = List.mapi point_of fractions in
  let r = { config = cfg; kind; chord_baseline_ms; hieras_baseline_ms; points } in
  Option.iter (fun reg -> export_registry reg r) registry;
  r

let success_rate ok issued = if issued = 0 then 0.0 else float_of_int ok /. float_of_int issued

let section r =
  let tbl =
    Stats.Text_table.create
      [
        "failed frac";
        "failed nodes";
        "chord success";
        "chord stretch";
        "hieras success";
        "hieras stretch";
        "retries c/h";
        "fallbacks c/h";
        "escapes";
      ]
  in
  List.iter
    (fun p ->
      Stats.Text_table.add_row tbl
        [
          Printf.sprintf "%.0f%%" (p.fraction *. 100.0);
          string_of_int p.failed;
          Printf.sprintf "%.1f%%" (100.0 *. success_rate p.chord_succeeded p.chord_issued);
          Printf.sprintf "%.2f" p.chord_stretch;
          Printf.sprintf "%.1f%%" (100.0 *. success_rate p.hieras_succeeded p.hieras_issued);
          Printf.sprintf "%.2f" p.hieras_stretch;
          Printf.sprintf "%d/%d" p.chord_retries p.hieras_retries;
          Printf.sprintf "%d/%d" p.chord_fallbacks p.hieras_fallbacks;
          string_of_int p.hieras_layer_escapes;
        ])
    r.points;
  {
    Report.id = "resilience";
    title =
      Printf.sprintf "Lookup success and latency stretch under %s failures (%d nodes, %d lookups)"
        (schedule_name r.kind) r.config.Config.nodes r.config.Config.requests;
    table = tbl;
    notes =
      [
        Printf.sprintf
          "faults injected at %.0f ms, network sampled at %.0f ms; success = reaching the \
           first live node clockwise from the key"
          fault_at sample_at;
        Printf.sprintf
          "stretch = mean successful-lookup latency (timeout and backoff penalties included) \
           over the all-alive baseline (chord %.1f ms, hieras %.1f ms)"
          r.chord_baseline_ms r.hieras_baseline_ms;
        "a HIERAS lower ring escapes to the next layer when locally partitioned, so only \
         global-ring partitions can fail a lookup";
      ];
  }
