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
module Churn = Workload.Churn
module Faults = Workload.Faults

type algo = Chord_ring | Hieras_rings

let algo_name = function Chord_ring -> "chord" | Hieras_rings -> "hieras"

type spec = {
  pool : int;
  initial : int;
  horizon_ms : float;
  join_rate : float;
  fail_rate : float;
  leave_rate : float;
  factors : float list;
  loss : float;
  bucket_ms : float;
  probe_every_ms : float;
  depth : int;
  landmarks : int;
  adaptive : bool;
  fault : Resilience.schedule option;
  fault_frac : float;
  net_sample : float option;
  seed : int;
}

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
    bucket_ms = 1000.0;
    probe_every_ms = 1000.0;
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
  else if spec.loss < 0.0 || spec.loss >= 1.0 then
    Error (Printf.sprintf "--loss must be in [0, 1) (got %g)" spec.loss)
  else if spec.bucket_ms <= 0.0 then
    Error (Printf.sprintf "--bucket-ms must be > 0 (got %g)" spec.bucket_ms)
  else if spec.probe_every_ms <= 0.0 then
    Error (Printf.sprintf "--probe-every must be > 0 (got %g)" spec.probe_every_ms)
  else if spec.depth < 2 || spec.depth > 4 then
    Error (Printf.sprintf "--depth must be between 2 and 4 (got %d)" spec.depth)
  else if spec.landmarks < 1 then
    Error (Printf.sprintf "--landmarks must be >= 1 (got %d)" spec.landmarks)
  else if spec.fault_frac < 0.0 || spec.fault_frac > 0.95 then
    Error (Printf.sprintf "--fault-frac must be in [0, 0.95] (got %g)" spec.fault_frac)
  else
    match spec.net_sample with
    | Some r when r < 0.0 || r > 1.0 ->
        Error (Printf.sprintf "--net-sample must be in [0, 1] (got %g)" r)
    | _ -> Ok ()

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

let settle_ms spec = (float_of_int spec.initial *. 400.0) +. 15_000.0
let cooldown_ms = 30_000.0

(* Uniform view of the two protocols: only what the soak driver touches. *)
type proto = {
  join : addr:int -> id:Id.t -> bootstrap:int -> unit;
  fail : int -> unit;
  is_member : int -> bool;
  live : unit -> int list;
  node_id : int -> Id.t;
  global_succ : int -> int option;
  lookup : origin:int -> key:Id.t -> (Id.t option -> unit) -> unit;
  maintenance_ops : unit -> int;
  convergence_stats : unit -> int * int * float;
      (* convergences, disturbances, total converging ms *)
  converged : unit -> bool;
}

(* The global ring is correct when every live node's successor pointer is
   the next live node in identifier order — the ideal ring over the
   population alive at the audit instant. *)
let ring_correct p =
  match p.live () with
  | [] | [ _ ] -> true
  | members ->
      let sorted =
        List.sort (fun a b -> Id.compare (p.node_id a) (p.node_id b)) members
      in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let ok = ref true in
      for i = 0 to n - 1 do
        if p.global_succ arr.(i) <> Some arr.((i + 1) mod n) then ok := false
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
let run_cell spec ~fi ~factor ~algo =
  let space = Id.space ~bits:32 in
  let id_of i = Id.of_hash space (Printf.sprintf "peer-%d" i) in
  let lat = Topology.Transit_stub.generate ~hosts:spec.pool (Prng.Rng.create ~seed:spec.seed) in
  let eng =
    Engine.create
      ~latency:(fun a b -> Topology.Latency.host_latency lat a b)
      ~nodes:spec.pool
  in
  if spec.loss > 0.0 then
    Engine.set_loss eng ~rate:spec.loss ~rng:(Prng.Rng.create ~seed:(spec.seed + 13 + fi));
  let ts = Obs.Timeseries.create ~bucket_ms:spec.bucket_ms () in
  Engine.attach_timeseries eng ts;
  (* Net tracing buffers into the cell (one writer per engine — workers
     never share a sink); the ctx tag is the cell's registry prefix sans
     "soak.", so lines stay attributable after the driver concatenates the
     cells in fixed order. *)
  let net_buf = Buffer.create (match spec.net_sample with Some _ -> 4096 | None -> 0) in
  (match spec.net_sample with
  | None -> ()
  | Some r ->
      let ctx = Printf.sprintf "%s.x%s" (algo_name algo) (Obs.Jsonu.float_repr factor) in
      Engine.attach_netspan eng (Obs.Netspan.jsonl ~ctx ~sample:r (Buffer.add_string net_buf)));
  let p =
    match algo with
    | Chord_ring ->
        let cfg =
          { (Chord.Protocol.default_config space) with adaptive = spec.adaptive }
        in
        let c = Chord.Protocol.create ~ts cfg eng in
        Chord.Protocol.spawn c ~addr:0 ~id:(id_of 0);
        {
          join = (fun ~addr ~id ~bootstrap -> Chord.Protocol.join c ~addr ~id ~bootstrap);
          fail = (fun a -> Chord.Protocol.fail_node c a);
          is_member = (fun a -> Chord.Protocol.is_member c a);
          live = (fun () -> Chord.Protocol.live_members c);
          node_id = (fun a -> Chord.Protocol.node_id c a);
          global_succ = (fun a -> Chord.Protocol.successor_addr c a);
          lookup =
            (fun ~origin ~key k ->
              Chord.Protocol.lookup c ~origin ~key (fun r ->
                  k (Option.map (fun o -> o.Chord.Protocol.owner_id) r)));
          maintenance_ops = (fun () -> Chord.Protocol.maintenance_ops c);
          convergence_stats =
            (fun () ->
              let s = Chord.Protocol.stability c in
              ( Simnet.Stability.convergences s,
                Simnet.Stability.disturbances s,
                Simnet.Stability.total_convergence_ms s ));
          converged = (fun () -> Chord.Protocol.converged c);
        }
    | Hieras_rings ->
        let lms =
          Binning.Landmark.choose_spread lat ~count:spec.landmarks
            (Prng.Rng.create ~seed:(spec.seed + 5))
        in
        let cfg =
          {
            (Hieras.Hprotocol.default_config space ~depth:spec.depth) with
            adaptive = spec.adaptive;
          }
        in
        let h = Hieras.Hprotocol.create ~ts cfg eng ~lat ~landmarks:lms in
        Hieras.Hprotocol.spawn h ~addr:0 ~id:(id_of 0);
        {
          join = (fun ~addr ~id ~bootstrap -> Hieras.Hprotocol.join h ~addr ~id ~bootstrap);
          fail = (fun a -> Hieras.Hprotocol.fail_node h a);
          is_member = (fun a -> Hieras.Hprotocol.is_member h a);
          live = (fun () -> Hieras.Hprotocol.live_members h);
          node_id = (fun a -> Hieras.Hprotocol.node_id h a);
          global_succ = (fun a -> Hieras.Hprotocol.successor_addr h a ~layer:1);
          lookup =
            (fun ~origin ~key k ->
              Hieras.Hprotocol.lookup h ~origin ~key (fun r ->
                  k (Option.map (fun o -> o.Hieras.Hprotocol.owner_id) r)));
          maintenance_ops = (fun () -> Hieras.Hprotocol.maintenance_ops h);
          convergence_stats =
            (fun () ->
              let c = ref 0 and d = ref 0 and total = ref 0.0 in
              for layer = 1 to spec.depth do
                let s = Hieras.Hprotocol.stability h ~layer in
                c := !c + Simnet.Stability.convergences s;
                d := !d + Simnet.Stability.disturbances s;
                total := !total +. Simnet.Stability.total_convergence_ms s
              done;
              (!c, !d, !total));
          converged = (fun () -> Hieras.Hprotocol.converged h);
        }
  in
  (* initial population joins sequentially, then settles *)
  for i = 1 to spec.initial - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () ->
        p.join ~addr:i ~id:(id_of i) ~bootstrap:0)
  done;
  let settle = settle_ms spec in
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
          match e.Churn.kind with
          | Churn.Join ->
              if not (p.is_member e.Churn.node) then begin
                match p.live () with
                | b :: _ -> p.join ~addr:e.Churn.node ~id:(id_of e.Churn.node) ~bootstrap:b
                | [] -> ()
              end
          | Churn.Fail | Churn.Leave ->
              if p.is_member e.Churn.node then p.fail e.Churn.node))
    events;
  (* optional engine-level fault schedule, landing mid-horizon: the
     protocol is not told — the convergence probe must detect the damage *)
  (match fault_specs spec ~at:(settle +. (spec.horizon_ms /. 2.0)) with
  | [] -> ()
  | specs ->
      let group_of node = Topology.Latency.router_of_host lat node in
      let frng = Prng.Rng.create ~seed:(spec.seed + 90001 + fi) in
      let fevents = Faults.compile ~group_of ~nodes:spec.pool specs frng in
      Faults.apply eng ~rng:(Prng.Rng.split frng) fevents);
  (* probe loop: ring-correctness audit + one lookup per probe instant *)
  let ts_issued = Obs.Timeseries.counter ts "soak.lookups" in
  let ts_ok = Obs.Timeseries.counter ts "soak.lookups_ok" in
  let ts_ring = Obs.Timeseries.gauge ts "soak.ring_ok" in
  let issued = ref 0 and ok = ref 0 and ring_checks = ref 0 and ring_ok = ref 0 in
  let prng = Prng.Rng.create ~seed:(spec.seed + 70001 + fi) in
  let probes = int_of_float (spec.horizon_ms /. spec.probe_every_ms) in
  for k = 1 to probes do
    Engine.schedule eng ~delay:(float_of_int k *. spec.probe_every_ms) (fun () ->
        let at = Engine.now eng in
        incr ring_checks;
        let correct = ring_correct p in
        if correct then incr ring_ok;
        Obs.Timeseries.set ts_ring ~at (if correct then 1.0 else 0.0);
        match p.live () with
        | [] -> ()
        | members ->
            let arr = Array.of_list members in
            let origin = arr.(Prng.Rng.int prng (Array.length arr)) in
            let key = Id.random space prng in
            incr issued;
            Obs.Timeseries.add ts_issued ~at 1.0;
            p.lookup ~origin ~key (fun r ->
                match r with
                | None -> ()
                | Some owner_id ->
                    if
                      List.exists (fun m -> Id.equal (p.node_id m) owner_id) (p.live ())
                    then begin
                      incr ok;
                      Obs.Timeseries.add ts_ok ~at:(Engine.now eng) 1.0
                    end))
  done;
  let sim_ms = settle +. spec.horizon_ms +. cooldown_ms in
  Engine.run ~until:sim_ms eng;
  let messages = Engine.sent eng in
  let maint_ops = p.maintenance_ops () in
  let convergences, disturbances, total_conv = p.convergence_stats () in
  let per_s v = float_of_int v /. (sim_ms /. 1000.0) in
  {
    algo = algo_name algo;
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
    converged_at_end = p.converged ();
    final_members = List.length (p.live ());
    series_json = Obs.Timeseries.to_json ts;
    net_trace = Buffer.contents net_buf;
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
  let inputs =
    List.concat_map (fun f -> [ (f, Chord_ring); (f, Hieras_rings) ]) spec.factors
    |> Array.of_list
  in
  let parts =
    Pool.map_chunks pool ~n:(Array.length inputs) ~chunk_size:1 (fun ~lo ~hi ->
        let out = ref [] in
        for i = lo to hi - 1 do
          let factor, algo = inputs.(i) in
          out := run_cell spec ~fi:(i / 2) ~factor ~algo :: !out
        done;
        List.rev !out)
  in
  let r = { spec; cells = List.concat parts } in
  (match registry with Some reg -> export_registry reg r | None -> ());
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
    s.pool s.initial (n s.horizon_ms) (n s.bucket_ms) (n s.probe_every_ms) (n s.loss) s.depth
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
