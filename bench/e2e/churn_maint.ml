(* churn-maint: both message protocols under churn. Set-up joins 256
   members of a 1,024-address Transit-Stub pool and waits for
   convergence. The measured phase replays a [Workload.Churn] trace (joins
   1/s, failures 0.6/s, leaves 0.2/s, leaves being silent failures as in
   [Experiments.Soak]) with 1% message loss, plus 400 lookups per
   simulated second. The churn trace and the loss draws are part of the
   fixed environment, like the topology, and the seed draws the lookups'
   clients and keys: a seed-drawn trace moved the tail latency and the
   maintenance work per lookup by 10-20% from seed to seed, more than a
   regression bound can absorb. Both protocols replay the same trace.

   Lookups are issued by [clients] of the initial members, which the
   trace never removes, so no request dies with its caller. A client
   retries a lookup that timed out or was answered by a node that is no
   longer a member, after a backoff that starts at one stabilize round,
   and the request's latency covers every attempt; it fails only when
   [max_attempts] all miss. The protocols' own misses are reported per
   request. The simulated metrics, and the attempted and failed counts,
   cover the requests of the first [window_s] simulated seconds. The
   phase runs, lookups and churn included, until every window request has
   finished and the run's seconds are up, or the trace ends: every message
   draws from the engine's one loss stream, so a window request still
   retrying when the lookups stop would see different losses depending on
   where the run stopped. Stopping only once the window is complete keeps
   its outcomes exact functions of the seed. (Past the window a Chord key
   range occasionally stays unanswerable for minutes; such requests are
   counted in the notes.) *)

module L = Layers

type size = {
  hosts : int;
  members : int;
  clients : int;
  join_rate : float;
  fail_rate : float;
  leave_rate : float;
  rate : float;  (** lookups per simulated second *)
  window_s : float;
  horizon_s : float;  (** churn trace length *)
}

let full =
  {
    hosts = 1_024;
    members = 256;
    clients = 16;
    join_rate = 1.0;
    fail_rate = 0.6;
    leave_rate = 0.2;
    rate = 400.0;
    window_s = 120.0;
    horizon_s = 360.0;
  }

let quick =
  {
    hosts = 64;
    members = 16;
    clients = 4;
    join_rate = 0.5;
    fail_rate = 0.3;
    leave_rate = 0.1;
    rate = 20.0;
    window_s = 6.0;
    horizon_s = 30.0;
  }

let loss = 0.01
let slice_ms = 2_000.0
let max_attempts = 12

(* 0.5 s (one stabilize round), doubling, at most 8 s *)
let backoff_ms n = Float.min 8_000.0 (500.0 *. (2.0 ** float_of_int (n - 1)))

type side = {
  net : Sim.net;
  rng : L.rng_t;
  lat : Meter.Samples.t;  (** window requests, every attempt included *)
  attempt_lat : Meter.Samples.t;  (** window attempts a member answered *)
  mutable hops : int;  (** over the answering attempts of window requests *)
  mutable lower_hops : int;
  mutable answered : int;
  mutable outstanding : int;
  mutable completed : int;
  mutable window_done : int;
  mutable failed : int;
  mutable window_failed : int;
  mutable attempts : int;
  mutable timed_out : int;  (** attempts on which every protocol retry timed out *)
  mutable non_member : int;  (** attempts answered by a node no longer a member *)
  mutable probes : int;
  mutable stable : int;
  mutable ring_ok : int;
  mutable live_sum : int;
}

(* The global ring is correct when every live member's successor is the
   next live member in identifier order ([Experiments.Soak]'s audit). *)
let ring_correct (p : L.proto) =
  match p.L.live () with
  | [] | [ _ ] -> true
  | members ->
      let arr = Array.of_list (List.sort (fun a b -> L.id_compare (p.L.node_id a) (p.L.node_id b)) members) in
      let n = Array.length arr in
      let ok = ref true in
      Array.iteri (fun i a -> if p.L.global_succ a <> Some arr.((i + 1) mod n) then ok := false) arr;
      !ok

let side ctx (net : Sim.net) =
  {
    net;
    rng = L.rng ctx.Run.seed;
    lat = Meter.Samples.create ();
    attempt_lat = Meter.Samples.create ();
    hops = 0;
    lower_hops = 0;
    answered = 0;
    outstanding = 0;
    completed = 0;
    window_done = 0;
    failed = 0;
    window_failed = 0;
    attempts = 0;
    timed_out = 0;
    non_member = 0;
    probes = 0;
    stable = 0;
    ring_ok = 0;
    live_sum = 0;
  }

(* Replay the churn trace on one protocol until [stopped]. *)
let schedule_churn (p : L.proto) trace ~stopped =
  List.iter
    (fun (at, node, kind) ->
      L.engine_schedule p.L.engine ~delay:at (fun () ->
          if not !stopped then
            match kind with
            | L.Join -> (
                if not (p.L.is_member node) then
                  match p.L.live () with b :: _ -> p.L.join ~addr:node ~bootstrap:b | [] -> ())
            | L.Depart -> if p.L.is_member node then p.L.fail node))
    trace

(* One client request [k]: lookups from one client until a member answers. *)
let request ctx sz side ~window ~k =
  let p = side.net.Sim.p and eng = side.net.Sim.eng and sp = ctx.Run.spans in
  let origin = L.rand_int side.rng sz.clients in
  let key = L.random_key L.sim_space side.rng in
  let t0 = L.engine_now eng in
  let rid = Spans.fresh_id sp in
  side.outstanding <- side.outstanding + 1;
  let finish answer =
    let t1 = L.engine_now eng in
    side.outstanding <- side.outstanding - 1;
    side.completed <- side.completed + 1;
    if k < window then side.window_done <- side.window_done + 1;
    Spans.sim sp ~id:rid ~req:k ("request." ^ p.L.name ^ ".lookup") ~t0 ~t1;
    match answer with
    | None ->
        side.failed <- side.failed + 1;
        if k < window then side.window_failed <- side.window_failed + 1
    | Some (o : L.outcome) ->
        if k < window then begin
          Meter.Samples.add side.lat (t1 -. t0);
          side.hops <- side.hops + o.L.hops;
          side.lower_hops <- side.lower_hops + o.L.lower_hops;
          side.answered <- side.answered + 1
        end
  in
  let rec attempt n =
    side.attempts <- side.attempts + 1;
    let a0 = L.engine_now eng in
    Spans.span sp ~req:k (p.L.layer ^ ".lookup") (fun () ->
        p.L.lookup ~origin ~key (fun r ->
            let a1 = L.engine_now eng in
            Spans.sim sp ~parent:rid ~req:k (p.L.layer ^ ".lookup_attempt") ~t0:a0 ~t1:a1;
            match r with
            | Some o when p.L.is_member o.L.owner ->
                if k < window then Meter.Samples.add side.attempt_lat (a1 -. a0);
                finish (Some o)
            | _ ->
                if r = None then side.timed_out <- side.timed_out + 1
                else side.non_member <- side.non_member + 1;
                if n >= max_attempts then finish None
                else
                  L.engine_schedule eng ~delay:(backoff_ms n) (fun () ->
                      (* the client is gone only once the run drains *)
                      if p.L.is_member origin then attempt (n + 1) else finish None)))
  in
  attempt 1

let run ctx out =
  let sz = if ctx.Run.quick then quick else full in
  let window = int_of_float (sz.rate *. sz.window_s) in
  let per_slice = int_of_float (sz.rate *. slice_ms /. 1000.0) in
  let pool =
    Run.repeated_setup out (fun () ->
        Sim.bring_up ctx out ~hosts:sz.hosts ~members:sz.members ~succ_list_len:4 ~rpc_timeout:2_000.0)
  in
  let stopped = ref false in
  (* trace node i is address clients + i: the clients never churn *)
  let trace =
    L.churn_trace ~horizon_ms:(sz.horizon_s *. 1000.0) ~join_rate:sz.join_rate ~fail_rate:sz.fail_rate
      ~leave_rate:sz.leave_rate ~initial:(sz.members - sz.clients) ~pool:(sz.hosts - sz.clients)
      ~seed:Sim.topo_seed
    |> List.map (fun (at, node, kind) -> (at, node + sz.clients, kind))
  in
  let nets = [ pool.Sim.chord; pool.Sim.hieras ] in
  let sides =
    List.map
      (fun (net : Sim.net) ->
        L.engine_set_loss net.Sim.eng ~rate:loss ~seed:(Sim.topo_seed + 13);
        schedule_churn net.Sim.p trace ~stopped;
        side ctx net)
      nets
  in
  let side_of net = List.find (fun s -> s.net == net) sides in
  let sp = ctx.Run.spans in
  let issue j (net : Sim.net) ~until =
    let side = side_of net and eng = net.Sim.eng and p = net.Sim.p in
    let start = until -. slice_ms in
    let at t = start +. t -. L.engine_now eng in
    for i = 0 to per_slice - 1 do
      let k = (j * per_slice) + i in
      L.engine_schedule eng ~delay:(at (float_of_int i *. 1000.0 /. sz.rate)) (fun () ->
          if not !stopped then Spans.span sp ~req:k "bench.issue" (fun () -> request ctx sz side ~window ~k))
    done;
    (* one audit per simulated second *)
    for i = 0 to int_of_float (slice_ms /. 1000.0) - 1 do
      L.engine_schedule eng ~delay:(at (float_of_int i *. 1000.0)) (fun () ->
          side.probes <- side.probes + 1;
          if p.L.converged () then side.stable <- side.stable + 1;
          if ring_correct p then side.ring_ok <- side.ring_ok + 1;
          side.live_sum <- side.live_sum + List.length (p.L.live ()))
    done
  in
  let snapshot () =
    List.map
      (fun s -> (L.counters s.net.Sim.eng, s.net.Sim.p.L.maintenance_ops (), s.net.Sim.p.L.convergence ()))
      sides
  in
  let before = snapshot () in
  let slices_of s = int_of_float (s *. 1000.0 /. slice_ms) in
  let horizon_slices = slices_of sz.horizon_s and window_slices = slices_of sz.window_s in
  let window_complete () = List.for_all (fun s -> s.window_done = window) sides in
  let completed n = (side_of n).completed in
  let w_end = Sim.window_end () in
  let t0 = Meter.now_ns () in
  let recs =
    Sim.slices ctx nets ~slice_ms ~issue ~completed ~stop:(fun j elapsed ->
        let complete = j >= window_slices && window_complete () in
        Sim.note_window_end w_end ~j ~complete;
        j >= horizon_slices || (complete && elapsed >= ctx.Run.seconds))
  in
  let wall = Meter.since_s t0 in
  let n_slices = List.length recs / 2 in
  let sim_s = float_of_int n_slices *. slice_ms /. 1000.0 in
  let after = snapshot () in
  List.iter
    (fun s ->
      if s.window_done < window then
        Run.problem out "%s: %d window requests were still in flight when the churn trace ended" s.net.Sim.p.L.name
          (window - s.window_done))
    sides;
  if Run.traced ctx && n_slices < horizon_slices then
    Sim.attribute ctx nets ~slice_ms ~issue ~completed ~first:n_slices ~count:(min 10 (horizon_slices - n_slices));
  stopped := true;
  (* let every request finish its retries: at most [max_attempts] lookups
     of at most 8 s each plus the backoffs *)
  List.iter
    (fun s ->
      let eng = s.net.Sim.eng in
      let limit = L.engine_now eng +. 250_000.0 in
      while s.outstanding > 0 && L.engine_now eng < limit do
        L.engine_run eng ~until:(L.engine_now eng +. 1_000.0)
      done)
    sides;
  Sim.e2e_metrics out recs w_end;
  Run.metric out "sim_s_per_wall_s" "ratio" (2.0 *. sim_s /. wall);
  let live_mean s = float_of_int s.live_sum /. float_of_int s.probes in
  List.iter2
    (fun s ((c0, m0, (conv0, conv_ms0)), (c1, m1, (conv1, conv_ms1))) ->
      let p = s.net.Sim.p in
      let algo = p.L.name and proto = p.L.layer in
      if s.outstanding > 0 then Run.problem out "%s: %d lookups never completed" algo s.outstanding;
      out.Run.attempted <- out.Run.attempted + window;
      out.Run.failed <- out.Run.failed + s.window_failed;
      Run.note out
        "%s: %d requests, %d failed (%d of the %d in the window); %d lookup attempts, %d timed out, %d answered by a non-member"
        algo s.completed s.failed s.window_failed window s.attempts s.timed_out s.non_member;
      Run.latency_metrics out ~algo (Meter.Samples.to_array s.lat);
      Run.metric out (algo ^ ".hops_mean") "hops" (float_of_int s.hops /. float_of_int s.answered);
      if algo = "hieras" then
        Run.metric out "hieras.lower_hops_share" "ratio" (float_of_int s.lower_hops /. float_of_int s.hops);
      Sim.engine_metrics out ~algo ~c0 ~c1 ~wall ~sim_s ~live_mean:(live_mean s);
      Run.metric out (proto ^ ".maint_ops_per_node_s") "1/s" (float_of_int (m1 - m0) /. (live_mean s *. sim_s));
      let pct p = Meter.percentile (Meter.Samples.sorted s.attempt_lat) p in
      Run.metric out (proto ^ ".lookup_sim_ms_p50") "ms" (pct 0.5);
      Run.metric out (proto ^ ".lookup_sim_ms_p999") "ms" (pct 0.999);
      Run.metric out (proto ^ ".lookup_hops_mean") "hops" (float_of_int s.hops /. float_of_int s.answered);
      if conv1 > conv0 then
        Run.metric out (proto ^ ".converge_ms_mean") "ms" ((conv_ms1 -. conv_ms0) /. float_of_int (conv1 - conv0));
      let share n = float_of_int n /. float_of_int s.probes in
      Run.metric out (proto ^ ".stable_share") "ratio" (share s.stable);
      Run.metric out (proto ^ ".ring_ok_share") "ratio" (share s.ring_ok);
      Run.metric out (proto ^ ".live_mean") "nodes" (live_mean s);
      let per_op n = float_of_int n /. float_of_int s.completed in
      Run.metric out (proto ^ ".lookup_attempts_per_op") "count" (per_op s.attempts);
      Run.metric out (proto ^ ".lookup_timeouts_per_op") "count" (per_op s.timed_out);
      Run.metric out (proto ^ ".stale_answers_per_op") "count" (per_op s.non_member))
    sides (List.combine before after);
  if Run.traced ctx then
    Sim.layer_metrics ctx out pool recs ~slice_ms ~live_mean:(fun algo ->
        live_mean (List.find (fun s -> s.net.Sim.p.L.name = algo) sides));
  List.iter (fun s -> Sim.drain_and_check out s.net ~hosts:sz.hosts) sides
