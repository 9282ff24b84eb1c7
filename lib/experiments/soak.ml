(* Long-horizon churn soak: the message-level protocols (Chord.Protocol,
   Hieras.Hprotocol) run for the whole horizon under a sustained
   Workload.Churn schedule, optional Workload.Faults injection and message
   loss, while a probe loop samples ring correctness and lookup success and
   the convergence subsystem meters maintenance bandwidth. One cell =
   one (churn-rate factor, algorithm) pair, fully self-contained — its own
   topology, engine, rngs and time-series collector, all derived from the
   spec seed and the factor index — so cells can run on any pool width and
   merge in fixed order: results are bit-identical for any --jobs. *)

module Pool = Parallel.Pool
module Engine = Simnet.Engine
module Id = Hashid.Id
module Kv = Store.Kv
module Churn = Workload.Churn
module Faults = Workload.Faults

type spec = {
  pool : int;
  initial : int;
  horizon_ms : float;
  join_rate : float;
  fail_rate : float;
  leave_rate : float;
  factors : float list;
  loss : float;
  depth : int;
  landmarks : int;
  adaptive : bool;
  fault : Resilience.schedule option;
  fault_frac : float;
  net_sample : float option;
  seed : int;
}

(* the time-series bucket width and the audit + probe-lookup cadence,
   simulated ms; results_json reports both *)
let bucket_ms = 1000.0
let probe_every_ms = 1000.0

let default_spec =
  {
    pool = 48;
    initial = 12;
    horizon_ms = 60_000.0;
    join_rate = 0.25;
    fail_rate = 0.08;
    leave_rate = 0.04;
    factors = [ 0.5; 1.0; 2.0 ];
    loss = 0.01;
    depth = 2;
    landmarks = 4;
    adaptive = false;
    fault = None;
    fault_frac = 0.2;
    net_sample = None;
    seed = 2003;
  }

(* CLI-friendly messages: both drivers print the error and exit 2 *)
let validate spec =
  if spec.pool < 2 then Error (Printf.sprintf "--pool must be >= 2 (got %d)" spec.pool)
  else if spec.initial < 1 || spec.initial > spec.pool then
    Error (Printf.sprintf "--initial must be in 1..pool (got %d)" spec.initial)
  else if spec.horizon_ms <= 0.0 then
    Error (Printf.sprintf "--horizon must be > 0 (got %g)" (spec.horizon_ms /. 1000.0))
  else if spec.join_rate < 0.0 || spec.fail_rate < 0.0 || spec.leave_rate < 0.0 then
    Error "churn rates must be >= 0"
  else if spec.factors = [] then Error "--factors must name at least one churn-rate factor"
  else if List.exists (fun f -> f < 0.0) spec.factors then
    Error "--factors must all be >= 0"
  else if spec.fault_frac < 0.0 || spec.fault_frac > 0.95 then
    Error (Printf.sprintf "--fault-frac must be in [0, 0.95] (got %g)" spec.fault_frac)
  else
    Overlay.validate ~pool:spec.pool ~loss:spec.loss ~depth:spec.depth
      ~landmarks:spec.landmarks

type cell = {
  algo : string;
  factor : float;
  churn_events : int;
  sim_ms : float;
  messages : int;
  messages_per_s : float;
  maint_ops : int;
  maint_ops_per_s : float;
  lookups_issued : int;
  lookups_ok : int;
  ring_checks : int;
  ring_ok : int;
  convergences : int;
  disturbances : int;
  mean_convergence_ms : float;
  converged_at_end : bool;
  final_members : int;
  series_json : string;
  net_trace : string;
}

type results = { spec : spec; cells : cell list }

let cooldown_ms = 30_000.0

(* The global ring is correct when every live node's successor pointer is
   the next live node in identifier order — the ideal ring over the
   population alive at the audit instant. *)
let ring_correct (p : Overlay.proto) =
  match p.sub.Kv.live_members () with
  | [] | [ _ ] -> true
  | members ->
      let node_id = p.sub.Kv.node_id in
      let sorted = List.sort (fun a b -> Id.compare (node_id a) (node_id b)) members in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Overlay.global_succ p arr.(i) <> Some arr.((i + 1) mod n) then ok := false
      done;
      !ok

let fault_specs spec ~at =
  match spec.fault with
  | None -> []
  | Some Resilience.Crash -> [ Faults.Crash { at; frac = spec.fault_frac } ]
  | Some Resilience.Restart ->
      [ Faults.Crash_restart { at; frac = spec.fault_frac; down_ms = 20_000.0 } ]
  | Some Resilience.Outage ->
      [ Faults.Domain_outage { at; domains = 1; down_ms = Some 20_000.0 } ]

(* One soak cell. [fi] is the factor index: every rng in the cell is seeded
   from (spec.seed, fi) only, so the chord and hieras cells of one factor
   see the identical topology, churn trace, probe stream and fault draw. *)
let run_cell spec ~fi factor algo =
  let ts = Obs.Timeseries.create ~bucket_ms () in
  let o =
    Overlay.start ~ts ~adaptive:spec.adaptive ~pool:spec.pool ~initial:spec.initial
      ~loss:spec.loss ~depth:spec.depth ~landmarks:spec.landmarks ~net_sample:spec.net_sample
      ~seed:spec.seed ~fi
      ~tag:("x" ^ Obs.Jsonu.float_repr factor)
      algo
  in
  let p = o.Overlay.proto in
  let eng = p.sub.Kv.engine in
  let live = p.sub.Kv.live_members in
  let settle = o.Overlay.settle_ms in
  Engine.run ~until:settle eng;
  (* churn schedule scaled by the factor, shared by both algos of [fi] *)
  let churn_spec =
    {
      Churn.horizon = spec.horizon_ms;
      join_rate = spec.join_rate *. factor;
      fail_rate = spec.fail_rate *. factor;
      leave_rate = spec.leave_rate *. factor;
    }
  in
  let events =
    Churn.generate ~ts churn_spec ~initial:spec.initial ~pool:spec.pool
      (Prng.Rng.create ~seed:(spec.seed + 40009 + fi))
  in
  List.iter
    (fun e ->
      Engine.schedule eng ~delay:e.Churn.at (fun () ->
          let a = e.Churn.node in
          match e.Churn.kind with
          | Churn.Join ->
              (* the fault schedule draws from the whole pool, so it may
                 have killed an address before its join: a dead engine
                 node cannot send the join *)
              if Engine.is_alive eng a && not (p.sub.Kv.is_member a) then begin
                match live () with b :: _ -> p.join ~addr:a ~bootstrap:b | [] -> ()
              end
          | Churn.Fail | Churn.Leave -> if p.sub.Kv.is_member a then p.fail a))
    events;
  (* optional engine-level fault schedule, landing mid-horizon: the
     protocol is not told — the convergence probe must detect the damage *)
  (match fault_specs spec ~at:(settle +. (spec.horizon_ms /. 2.0)) with
  | [] -> ()
  | specs ->
      let group_of node = Topology.Latency.router_of_host o.Overlay.lat node in
      let frng = Prng.Rng.create ~seed:(spec.seed + 90001 + fi) in
      let fevents = Faults.compile ~group_of ~nodes:spec.pool specs frng in
      Faults.apply eng ~rng:(Prng.Rng.split frng) fevents);
  (* probe loop: ring-correctness audit + one lookup per probe instant *)
  let ts_issued = Obs.Timeseries.counter ts "soak.lookups" in
  let ts_ok = Obs.Timeseries.counter ts "soak.lookups_ok" in
  let ts_ring = Obs.Timeseries.gauge ts "soak.ring_ok" in
  let issued = ref 0 and ok = ref 0 and ring_checks = ref 0 and ring_ok = ref 0 in
  let prng = Prng.Rng.create ~seed:(spec.seed + 70001 + fi) in
  let probes = int_of_float (spec.horizon_ms /. probe_every_ms) in
  for k = 1 to probes do
    Engine.schedule eng ~delay:(float_of_int k *. probe_every_ms) (fun () ->
        let at = Engine.now eng in
        incr ring_checks;
        let correct = ring_correct p in
        if correct then incr ring_ok;
        Obs.Timeseries.set ts_ring ~at (if correct then 1.0 else 0.0);
        match live () with
        | [] -> ()
        | members ->
            let arr = Array.of_list members in
            let origin = arr.(Prng.Rng.int prng (Array.length arr)) in
            let key = Id.random p.sub.Kv.space prng in
            incr issued;
            Obs.Timeseries.add ts_issued ~at 1.0;
            p.sub.Kv.lookup ~origin ~key (fun r ->
                match r with
                | Some owner when List.mem owner (live ()) ->
                    incr ok;
                    Obs.Timeseries.add ts_ok ~at:(Engine.now eng) 1.0
                | _ -> ()))
  done;
  let sim_ms = settle +. spec.horizon_ms +. cooldown_ms in
  Engine.run ~until:sim_ms eng;
  let messages = Engine.sent eng in
  let maint_ops = Overlay.maintenance_ops p in
  let convergences, disturbances, total_conv = Overlay.convergence p in
  let per_s v = float_of_int v /. (sim_ms /. 1000.0) in
  {
    algo = Overlay.algo_name algo;
    factor;
    churn_events = List.length events;
    sim_ms;
    messages;
    messages_per_s = per_s messages;
    maint_ops;
    maint_ops_per_s = per_s maint_ops;
    lookups_issued = !issued;
    lookups_ok = !ok;
    ring_checks = !ring_checks;
    ring_ok = !ring_ok;
    convergences;
    disturbances;
    mean_convergence_ms =
      (if convergences = 0 then 0.0 else total_conv /. float_of_int convergences);
    converged_at_end = Overlay.converged p;
    final_members = List.length (live ());
    series_json = Obs.Timeseries.to_json ts;
    net_trace = Buffer.contents o.Overlay.net_trace;
  }

let export_registry reg r =
  let open Obs.Metrics in
  List.iter
    (fun cl ->
      let prefix = Printf.sprintf "soak.%s.x%s" cl.algo (Obs.Jsonu.float_repr cl.factor) in
      let c name v = set_counter (counter reg (prefix ^ "." ^ name)) v in
      let g name v = set (gauge reg (prefix ^ "." ^ name)) v in
      c "churn_events" cl.churn_events;
      c "messages" cl.messages;
      c "maint_ops" cl.maint_ops;
      c "lookups_issued" cl.lookups_issued;
      c "lookups_ok" cl.lookups_ok;
      c "ring_checks" cl.ring_checks;
      c "ring_ok" cl.ring_ok;
      c "convergences" cl.convergences;
      c "disturbances" cl.disturbances;
      g "messages_per_s" cl.messages_per_s;
      g "maint_ops_per_s" cl.maint_ops_per_s;
      g "mean_convergence_ms" cl.mean_convergence_ms;
      g "lookup_success_rate"
        (if cl.lookups_issued = 0 then 0.0
         else float_of_int cl.lookups_ok /. float_of_int cl.lookups_issued);
      g "ring_ok_rate"
        (if cl.ring_checks = 0 then 0.0
         else float_of_int cl.ring_ok /. float_of_int cl.ring_checks);
      g "converged_at_end" (if cl.converged_at_end then 1.0 else 0.0);
      g "final_members" (float_of_int cl.final_members))
    r.cells

let run ?(pool = Pool.sequential) ?registry spec =
  (match validate spec with Ok () -> () | Error e -> invalid_arg ("Soak.run: " ^ e));
  let r = { spec; cells = Overlay.run_cells pool spec.factors (run_cell spec) } in
  Option.iter (fun reg -> export_registry reg r) registry;
  r

(* ---- rendering --------------------------------------------------------- *)

let cell_json c =
  let n = Obs.Jsonu.number in
  Printf.sprintf
    {|{"algo":"%s","factor":%s,"churn_events":%d,"sim_ms":%s,"messages":%d,"messages_per_s":%s,"maint_ops":%d,"maint_ops_per_s":%s,"lookups_issued":%d,"lookups_ok":%d,"ring_checks":%d,"ring_ok":%d,"convergences":%d,"disturbances":%d,"mean_convergence_ms":%s,"converged_at_end":%b,"final_members":%d,"series":%s}|}
    (Obs.Jsonu.escape c.algo) (n c.factor) c.churn_events (n c.sim_ms) c.messages
    (n c.messages_per_s) c.maint_ops (n c.maint_ops_per_s) c.lookups_issued c.lookups_ok
    c.ring_checks c.ring_ok c.convergences c.disturbances (n c.mean_convergence_ms)
    c.converged_at_end c.final_members c.series_json

let gated r =
  List.concat_map
    (fun c ->
      let name m = Printf.sprintf "soak.%s.x%s.%s" c.algo (Obs.Jsonu.float_repr c.factor) m in
      [
        Obs.Gate.metric (name "messages_per_s") "1/s" c.messages_per_s;
        Obs.Gate.metric (name "maint_ops_per_s") "1/s" c.maint_ops_per_s;
        Obs.Gate.metric (name "mean_convergence_ms") "ms" c.mean_convergence_ms;
      ]
      @ Obs.Gate.failure_rate (name "lookup_failure_rate") ~ok:c.lookups_ok ~total:c.lookups_issued
      @ Obs.Gate.failure_rate (name "ring_bad_rate") ~ok:c.ring_ok ~total:c.ring_checks)
    r.cells

let results_json r =
  let s = r.spec in
  let n = Obs.Jsonu.number in
  Printf.sprintf
    {|{"schema":"hieras-soak","pool":%d,"initial":%d,"horizon_ms":%s,"bucket_ms":%s,"probe_every_ms":%s,"loss":%s,"depth":%d,"landmarks":%d,"adaptive":%b,"fault":%s,"fault_frac":%s,"seed":%d,"cells":[%s],"gated":%s}|}
    s.pool s.initial (n s.horizon_ms) (n bucket_ms) (n probe_every_ms) (n s.loss) s.depth
    s.landmarks s.adaptive
    (match s.fault with
    | None -> "null"
    | Some k -> Printf.sprintf {|"%s"|} (Resilience.schedule_name k))
    (n s.fault_frac) s.seed
    (String.concat "," (List.map cell_json r.cells))
    (Obs.Gate.to_json (gated r))

(* Cells are already in fixed (factor-major) order, so the merged trace is
   byte-identical for any --jobs; cell_json deliberately omits net_trace so
   results_json bytes are unchanged whether or not tracing ran. *)
let net_trace r = String.concat "" (List.map (fun c -> c.net_trace) r.cells)

let rate ok total = if total = 0 then 0.0 else float_of_int ok /. float_of_int total

let section r =
  let tbl =
    Stats.Text_table.create
      [
        "algo";
        "factor";
        "events";
        "msgs/s";
        "maint/s";
        "lookup ok";
        "ring ok";
        "conv ms";
        "stable";
      ]
  in
  List.iter
    (fun c ->
      Stats.Text_table.add_row tbl
        [
          c.algo;
          Printf.sprintf "%g" c.factor;
          string_of_int c.churn_events;
          Printf.sprintf "%.1f" c.messages_per_s;
          Printf.sprintf "%.1f" c.maint_ops_per_s;
          Printf.sprintf "%.1f%%" (100.0 *. rate c.lookups_ok c.lookups_issued);
          Printf.sprintf "%.1f%%" (100.0 *. rate c.ring_ok c.ring_checks);
          Printf.sprintf "%.0f" c.mean_convergence_ms;
          (if c.converged_at_end then "yes" else "no");
        ])
    r.cells;
  {
    Report.id = "soak";
    title =
      Printf.sprintf
        "Churn soak: maintenance bandwidth vs churn rate (%d-node pool, %.0f s horizon%s)"
        r.spec.pool (r.spec.horizon_ms /. 1000.0)
        (match r.spec.fault with
        | None -> ""
        | Some k -> Printf.sprintf ", %s faults" (Resilience.schedule_name k));
    table = tbl;
    notes =
      [
        "msgs/s and maint/s are per simulated second over the whole run (settle + churn \
         window + cooldown)";
        "ring ok = audits where every live node's global successor matches the ideal ring \
         over the live population; lookup ok = probe lookups answered by a live member";
        "conv ms = mean completed converging-phase duration as seen by the stability \
         detector (per layer for HIERAS)";
      ];
  }
