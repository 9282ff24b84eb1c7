(* Lookup success and latency stretch under injected failures: per failure
   fraction, one fault schedule sampled and the standard paired request
   stream replayed through flat Chord and HIERAS against the surviving
   population — the tournament's replays over those two contestants, so
   results are bit-identical for any --jobs. *)

module Summary = Stats.Summary
module Faults = Workload.Faults

type schedule = Crash | Outage | Restart

let schedule_name = function Crash -> "crash" | Outage -> "outage" | Restart -> "restart"

let schedule_of_name = function
  | "crash" -> Some Crash
  | "outage" -> Some Outage
  | "restart" -> Some Restart
  | _ -> None

let default_fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ]

(* a Restart downtime of 60 s keeps victims down at the sample instant
   (the restart schedule differs from crash in the event stream — revivals
   exist — not in the sampled liveness) *)
let restart_down_ms = 60_000.0

type point = {
  fraction : float;
  failed : int;
  issued : int;
  chord : Tournament.fault_point;
  hieras : Tournament.fault_point;
  chord_stretch : float;
  hieras_stretch : float;
}

type results = {
  config : Config.t;
  kind : schedule;
  chord_baseline_ms : float;
  hieras_baseline_ms : float;
  points : point list;
}

let specs_of kind lat hosts fraction =
  let at = Tournament.fault_at in
  if fraction <= 0.0 then []
  else
    match kind with
    | Crash -> [ Faults.Crash { at; frac = fraction } ]
    | Restart -> [ Faults.Crash_restart { at; frac = fraction; down_ms = restart_down_ms } ]
    | Outage ->
        [
          Faults.Domain_outage
            { at; domains = Tournament.outage_domains lat hosts fraction; down_ms = None };
        ]

let success_rate ok issued = if issued = 0 then 0.0 else float_of_int ok /. float_of_int issued

let export_registry reg r =
  let open Obs.Metrics in
  let c name v = set_counter (counter reg name) v in
  let g name v = set (gauge reg name) v in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 r.points in
  List.iter
    (fun (algo, (fp : point -> Tournament.fault_point), stretch, baseline_ms) ->
      let m name = Printf.sprintf "resilience.%s.%s" algo name in
      c (m "issued") (sum (fun p -> p.issued));
      c (m "succeeded") (sum (fun p -> (fp p).succeeded));
      c (m "retries") (sum (fun p -> (fp p).retries));
      c (m "timeouts") (sum (fun p -> (fp p).timeouts));
      c (m "fallbacks") (sum (fun p -> (fp p).fallbacks));
      g (m "penalty_ms") (List.fold_left (fun acc p -> acc +. (fp p).penalty_ms) 0.0 r.points);
      g (m "baseline_ms") baseline_ms;
      List.iter
        (fun p ->
          let pct = int_of_float ((p.fraction *. 100.0) +. 0.5) in
          g (m (Printf.sprintf "f%03d.success_rate" pct)) (success_rate (fp p).succeeded p.issued);
          g (m (Printf.sprintf "f%03d.stretch" pct)) (stretch p))
        r.points)
    [
      ("chord", (fun p -> p.chord), (fun p -> p.chord_stretch), r.chord_baseline_ms);
      ("hieras", (fun p -> p.hieras), (fun p -> p.hieras_stretch), r.hieras_baseline_ms);
    ];
  c "resilience.hieras.layer_escapes" (sum (fun p -> p.hieras.layer_escapes))

let run ?pool ?registry ?trace ?(timer = Obs.Timer.disabled) ?(fractions = default_fractions)
    ?(kind = Crash) cfg =
  List.iter
    (fun f ->
      if f < 0.0 || f > 0.95 then
        invalid_arg "Resilience.run: failure fraction must be in [0, 0.95]")
    fractions;
  let env = Runner.build_env ?pool ~timer cfg in
  let hnet = Runner.build_hieras ~timer env cfg in
  let chord = Runner.chord_network env in
  let lat = Runner.latency_oracle env in
  let n = Chord.Network.size chord in
  let hosts = Array.init n (Chord.Network.host chord) in
  let contestants =
    [
      Tournament.C ((module Chord.Routable), Chord.Routable.make ~net:chord ~lat);
      Tournament.C ((module Tournament.LChord), Hieras.Hnetwork.layered hnet);
    ]
  in
  let requests = Runner.requests ~timer cfg in
  (* all-alive baseline: plain-route mean latency, the stretch denominator *)
  let chord_baseline_ms, hieras_baseline_ms =
    match
      Obs.Timer.span timer "baseline" (fun () -> Tournament.baseline ?pool lat contestants requests)
    with
    | [ c; h ] -> (Summary.mean c.Tournament.latency, Summary.mean h.Tournament.latency)
    | _ -> assert false
  in
  let stretch (f : Tournament.fault_point) base =
    if f.succeeded = 0 || base <= 0.0 then 0.0 else f.ok_latency_ms /. base
  in
  let point_of idx fraction =
    Obs.Timer.span timer (Printf.sprintf "fraction-%02.0f%%" (fraction *. 100.0)) (fun () ->
        let alive, failed =
          Tournament.sample_liveness cfg lat hosts (specs_of kind lat hosts fraction) ~idx
        in
        match Tournament.replay ?pool ?trace contestants ~hosts ~alive requests with
        | [ chord; hieras ] ->
            {
              fraction;
              failed;
              issued = Array.length requests;
              chord;
              hieras;
              chord_stretch = stretch chord chord_baseline_ms;
              hieras_stretch = stretch hieras hieras_baseline_ms;
            }
        | _ -> assert false)
  in
  let points = List.mapi point_of fractions in
  let r = { config = cfg; kind; chord_baseline_ms; hieras_baseline_ms; points } in
  Option.iter (fun reg -> export_registry reg r) registry;
  r

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
          Printf.sprintf "%.1f%%" (100.0 *. success_rate p.chord.succeeded p.issued);
          Printf.sprintf "%.2f" p.chord_stretch;
          Printf.sprintf "%.1f%%" (100.0 *. success_rate p.hieras.succeeded p.issued);
          Printf.sprintf "%.2f" p.hieras_stretch;
          Printf.sprintf "%d/%d" p.chord.retries p.hieras.retries;
          Printf.sprintf "%d/%d" p.chord.fallbacks p.hieras.fallbacks;
          string_of_int p.hieras.layer_escapes;
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
          Tournament.fault_at Tournament.sample_at;
        Printf.sprintf
          "stretch = mean successful-lookup latency (timeout and backoff penalties included) \
           over the all-alive baseline (chord %.1f ms, hieras %.1f ms)"
          r.chord_baseline_ms r.hieras_baseline_ms;
        "a HIERAS lower ring escapes to the next layer when locally partitioned, so only \
         global-ring partitions can fail a lookup";
      ];
  }
