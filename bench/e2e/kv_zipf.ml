(* kv-zipf: the replicated store ([Store.Kv], r = 3) over each message
   protocol on a healthy 256-node Transit-Stub pool. Set-up joins and
   converges the pool and puts the 2,000-object catalogue. The measured
   phase is an open loop in simulated time, 2,000 ops per simulated
   second, 90% get / 10% put, objects drawn zipf(0.8), no faults and no
   loss; the same op stream runs on both protocols.

   Each op's latency runs from its scheduled issue time to its callback.
   A put fails without an ack; a get fails when it is Unreachable, Absent,
   or returns a version older than the newest put acknowledged before the
   get was issued. The simulated metrics, and the attempted and failed
   counts, cover the ops issued in the first [window_s] simulated seconds;
   the phase runs on until every window op has finished and the run's
   seconds are up, so the window's outcomes never depend on where the run
   stopped. *)

module L = Layers

type size = { hosts : int; objects : int; rate : float; window_s : float; slice_ms : float }

let full = { hosts = 256; objects = 2_000; rate = 2_000.0; window_s = 16.0; slice_ms = 1_000.0 }
let quick = { hosts = 24; objects = 40; rate = 200.0; window_s = 2.0; slice_ms = 1_000.0 }
let replication = 3

(* Longer than any route on this healthy pool (the slowest Chord lookups
   take about 3 s), so no op fails on a timeout that fired while its reply
   was still on the way; the protocols' 2 s default fails about one Chord
   op in 2,000 this way. *)
let rpc_timeout = 5_000.0
let put_share = 0.1
let alpha = 0.8

(* The store's view of one protocol, with its lookup rerouted so every
   lookup leg is observed: which op it belongs to, its hops and its
   simulated duration. *)
type tap = {
  mutable current : int;  (** op whose store call is running, -1 outside one *)
  mutable current_rid : int;  (** that op's request span *)
  mutable calls : int;  (** lookup legs in the measured phase *)
  window : int;
  leg_ms : float array;  (** first lookup leg of each window op *)
  mutable hops : int;
  mutable lower_hops : int;
  mutable legs : int;  (** window ops whose first leg answered *)
  leg_lat : Meter.Samples.t;
}

type side = {
  net : Sim.net;
  tap : tap;
  kv : L.kv;
  acked : L.version option array;  (** newest acknowledged version per object *)
  lat : Meter.Samples.t;  (** window ops *)
  get_lat : Meter.Samples.t;
  put_lat : Meter.Samples.t;
  replica_wait : Meter.Samples.t;  (** put latency minus its lookup leg *)
  mutable outstanding : int;
  mutable puts : int;
  mutable completed : int;
  mutable window_done : int;
  mutable failed : int;
  mutable window_failed : int;
  mutable put_failed : int;
  mutable absent : int;
  mutable unreachable : int;
  mutable stale : int;
}

let tap ~window =
  {
    current = -1;
    current_rid = -1;
    calls = 0;
    window;
    leg_ms = Array.make window nan;
    hops = 0;
    lower_hops = 0;
    legs = 0;
    leg_lat = Meter.Samples.create ();
  }

let recording_substrate ctx (net : Sim.net) tp =
  let p = net.Sim.p and sp = ctx.Run.spans in
  L.recording_substrate (p.L.substrate ()) ~lookup:(fun ~origin ~key k ->
      let op = tp.current and rid = tp.current_rid in
      let t0 = L.engine_now net.Sim.eng in
      tp.calls <- tp.calls + 1;
      Spans.span sp ~req:op (p.L.layer ^ ".lookup") @@ fun () ->
      p.L.lookup ~origin ~key (fun out ->
          let t1 = L.engine_now net.Sim.eng in
          Spans.sim sp ~parent:rid ~req:op (p.L.layer ^ ".lookup_leg") ~t0 ~t1;
          (match out with
          | Some o when op >= 0 && op < tp.window && Float.is_nan tp.leg_ms.(op) ->
              tp.leg_ms.(op) <- t1 -. t0;
              tp.hops <- tp.hops + o.L.hops;
              tp.lower_hops <- tp.lower_hops + o.L.lower_hops;
              tp.legs <- tp.legs + 1;
              Meter.Samples.add tp.leg_lat (t1 -. t0)
          | _ -> ());
          k (Option.map (fun o -> o.L.owner) out)))

let make_side ctx net ~objects ~window =
  let tp = tap ~window in
  let kv = L.kv_create ~replication ~rpc_timeout (recording_substrate ctx net tp) in
  {
    net;
    tap = tp;
    kv;
    acked = Array.make objects None;
    lat = Meter.Samples.create ();
    get_lat = Meter.Samples.create ();
    put_lat = Meter.Samples.create ();
    replica_wait = Meter.Samples.create ();
    outstanding = 0;
    puts = 0;
    completed = 0;
    window_done = 0;
    failed = 0;
    window_failed = 0;
    put_failed = 0;
    absent = 0;
    unreachable = 0;
    stale = 0;
  }

let ack side obj v =
  match side.acked.(obj) with
  | Some a when not (L.version_newer v a) -> ()
  | _ -> side.acked.(obj) <- Some v

let run_until_idle side ~limit_ms =
  let eng = side.net.Sim.eng in
  let limit = L.engine_now eng +. limit_ms in
  while side.outstanding > 0 && L.engine_now eng < limit do
    L.engine_run eng ~until:(L.engine_now eng +. 100.0)
  done

(* Set-up: the pool, both protocols converged, every node tracked, the
   catalogue put from fixed origins and acknowledged. *)
let setup ctx out sz ~window =
  let pool = Sim.bring_up ctx out ~hosts:sz.hosts ~members:sz.hosts ~succ_list_len:(max 4 replication) ~rpc_timeout in
  let keys = L.catalogue ~objects:sz.objects in
  let sides =
    List.map
      (fun net ->
        let side = make_side ctx net ~objects:sz.objects ~window in
        for a = 0 to sz.hosts - 1 do
          L.kv_track side.kv a
        done;
        let r = L.rng Sim.topo_seed in
        Spans.span ctx.Run.spans "store.populate" (fun () ->
            Array.iteri
              (fun obj key ->
                let origin = L.rand_int r sz.hosts in
                side.outstanding <- side.outstanding + 1;
                L.engine_schedule net.Sim.eng ~delay:(float_of_int obj *. 1000.0 /. sz.rate) (fun () ->
                    L.kv_put side.kv ~origin ~key ~value:(Printf.sprintf "obj-%d" obj) (fun r ->
                        side.outstanding <- side.outstanding - 1;
                        match r with Some v -> ack side obj v | None -> ())))
              keys;
            run_until_idle side ~limit_ms:60_000.0);
        let missing = Array.fold_left (fun n a -> if a = None then n + 1 else n) 0 side.acked in
        if missing > 0 then Run.problem out "%s: %d catalogue puts were not acknowledged" net.Sim.p.L.name missing;
        side)
      [ pool.Sim.chord; pool.Sim.hieras ]
  in
  (pool, keys, sides)

type op = { put : bool; obj : int; origin : int }

let issue_op ctx side keys ~k ~(op : op) =
  let eng = side.net.Sim.eng and sp = ctx.Run.spans in
  let t0 = L.engine_now eng in
  let rid = Spans.fresh_id sp in
  let in_window = k < side.tap.window in
  side.outstanding <- side.outstanding + 1;
  let finish ~ok name =
    let t1 = L.engine_now eng in
    side.outstanding <- side.outstanding - 1;
    side.completed <- side.completed + 1;
    if in_window then side.window_done <- side.window_done + 1;
    if not ok then begin
      side.failed <- side.failed + 1;
      if in_window then side.window_failed <- side.window_failed + 1
    end;
    Spans.sim sp ~id:rid ~req:k name ~t0 ~t1;
    if in_window then Meter.Samples.add side.lat (t1 -. t0);
    t1 -. t0
  in
  side.tap.current <- k;
  side.tap.current_rid <- rid;
  let key = keys.(op.obj) in
  (if op.put then begin
     side.puts <- side.puts + 1;
     Spans.span sp ~req:k "store.put" (fun () ->
         L.kv_put side.kv ~origin:op.origin ~key ~value:(Printf.sprintf "v%d" k) (fun r ->
             (match r with Some v -> ack side op.obj v | None -> side.put_failed <- side.put_failed + 1);
             let dt = finish ~ok:(r <> None) "request.put" in
             if in_window && r <> None then begin
               Meter.Samples.add side.put_lat dt;
               let leg = side.tap.leg_ms.(k) in
               if not (Float.is_nan leg) then Meter.Samples.add side.replica_wait (dt -. leg)
             end))
   end
   else
     let need = side.acked.(op.obj) in
     Spans.span sp ~req:k "store.get" (fun () ->
         L.kv_get side.kv ~origin:op.origin ~key (fun g ->
             let ok =
               match (g, need) with
               | L.Found v, Some n when L.version_newer n v ->
                   side.stale <- side.stale + 1;
                   false
               | L.Found _, _ -> true
               | L.Absent, _ ->
                   side.absent <- side.absent + 1;
                   false
               | L.Unreachable, _ ->
                   side.unreachable <- side.unreachable + 1;
                   false
             in
             let dt = finish ~ok "request.get" in
             if in_window && ok then Meter.Samples.add side.get_lat dt)));
  side.tap.current <- -1;
  side.tap.current_rid <- -1

(* The recording substrate must drive the engine exactly as the library's
   own [Kv.chord_substrate]/[Kv.hieras_substrate]: a small pool runs the
   same ops once with each, and every engine counter must agree. *)
let substrate_check out =
  let ctx = { Run.seed = 0; seconds = 0.0; quick = true; spans = Spans.off } in
  let hosts = 16 and objects = 24 in
  let counters ~record =
    let pool = Sim.bring_up ctx out ~hosts ~members:hosts ~succ_list_len:4 ~rpc_timeout in
    let keys = L.catalogue ~objects in
    List.map
      (fun (net : Sim.net) ->
        let sub = if record then recording_substrate ctx net (tap ~window:0) else net.Sim.p.L.substrate () in
        let kv = L.kv_create ~replication ~rpc_timeout sub in
        for a = 0 to hosts - 1 do
          L.kv_track kv a
        done;
        let r = L.rng 11 in
        for i = 0 to 199 do
          let key = keys.(L.rand_int r objects) and origin = L.rand_int r hosts in
          L.engine_schedule net.Sim.eng ~delay:(float_of_int i *. 5.0) (fun () ->
              if i < objects then L.kv_put kv ~origin ~key ~value:"v" ignore else L.kv_get kv ~origin ~key ignore)
        done;
        L.engine_run net.Sim.eng ~until:(L.engine_now net.Sim.eng +. 30_000.0);
        L.counters net.Sim.eng)
      [ pool.Sim.chord; pool.Sim.hieras ]
  in
  if counters ~record:false <> counters ~record:true then
    Run.problem out "the recording substrate changed the engine counters of the library's substrate"

let run ctx out =
  let sz = if ctx.Run.quick then quick else full in
  let window = int_of_float (sz.rate *. sz.window_s) in
  let per_slice = int_of_float (sz.rate *. sz.slice_ms /. 1000.0) in
  let pool, keys, sides = Run.repeated_setup out (fun () -> setup ctx out sz ~window) in
  let side_of net = List.find (fun s -> s.net == net) sides in
  (* the op stream, one slice at a time, shared by both protocols *)
  let r = L.rng ctx.Run.seed in
  let z = L.zipf ~n:sz.objects ~alpha in
  let cur = ref (-1, [||]) in
  let ops_of j =
    if fst !cur <> j then
      cur :=
        ( j,
          Array.init per_slice (fun _ ->
              let put = L.rand_float r 1.0 < put_share in
              let obj = L.zipf_draw r z in
              { put; obj; origin = L.rand_int r sz.hosts }) );
    snd !cur
  in
  let issue j (net : Sim.net) ~until =
    let side = side_of net in
    let start = until -. sz.slice_ms in
    Array.iteri
      (fun i op ->
        let k = (j * per_slice) + i in
        let at = start +. (float_of_int i *. 1000.0 /. sz.rate) in
        L.engine_schedule net.Sim.eng ~delay:(at -. L.engine_now net.Sim.eng) (fun () ->
            Spans.span ctx.Run.spans ~req:k "bench.issue" (fun () -> issue_op ctx side keys ~k ~op)))
      (ops_of j)
  in
  let snapshot () =
    List.map
      (fun s ->
        ( L.counters s.net.Sim.eng,
          s.net.Sim.p.L.maintenance_ops (),
          (L.kv_replicate_msgs s.kv, L.kv_read_repairs s.kv, L.kv_repair_rounds s.kv),
          (s.tap.calls, s.completed, s.puts) ))
      sides
  in
  let before = snapshot () in
  let nets = [ pool.Sim.chord; pool.Sim.hieras ] in
  let completed n = (side_of n).completed in
  let window_complete () = List.for_all (fun s -> s.window_done = window) sides in
  let window_slices = window / per_slice in
  let w_end = Sim.window_end () in
  let t0 = Meter.now_ns () in
  let recs =
    Sim.slices ctx nets ~slice_ms:sz.slice_ms ~issue ~completed ~stop:(fun j elapsed ->
        let complete = j >= window_slices && window_complete () in
        Sim.note_window_end w_end ~j ~complete;
        (* no op outlives its retries by a minute: a guard, reported below *)
        j >= window_slices + 60 || (complete && elapsed >= ctx.Run.seconds))
  in
  let wall = Meter.since_s t0 in
  let n_slices = List.length recs / 2 in
  let sim_s = float_of_int n_slices *. sz.slice_ms /. 1000.0 in
  let after = snapshot () in
  List.iter
    (fun s ->
      if s.window_done < window then
        Run.problem out "%s: %d window ops were still in flight when the measured phase ended" s.net.Sim.p.L.name
          (window - s.window_done))
    sides;
  if Run.traced ctx then Sim.attribute ctx nets ~slice_ms:sz.slice_ms ~issue ~completed ~first:n_slices ~count:8;
  List.iter (fun s -> run_until_idle s ~limit_ms:60_000.0) sides;
  Sim.e2e_metrics out recs w_end;
  List.iter2
    (fun s ((c0, m0, (rep0, rr0, rounds0), (calls0, _, _)), (c1, m1, (rep1, rr1, rounds1), (calls1, ops, puts))) ->
      let algo = s.net.Sim.p.L.name in
      if s.outstanding > 0 then Run.problem out "%s: %d ops never completed" algo s.outstanding;
      out.Run.attempted <- out.Run.attempted + window;
      out.Run.failed <- out.Run.failed + s.window_failed;
      Run.note out "%s: %d ops, %d failed (%d of the %d in the window): %d puts unacknowledged, gets %d absent, %d unreachable, %d stale"
        algo s.completed s.failed s.window_failed window s.put_failed s.absent s.unreachable s.stale;
      Run.latency_metrics out ~algo (Meter.Samples.to_array s.lat);
      Run.metric out (algo ^ ".hops_mean") "hops" (float_of_int s.tap.hops /. float_of_int s.tap.legs);
      if algo = "hieras" then
        Run.metric out "hieras.lower_hops_share" "ratio" (float_of_int s.tap.lower_hops /. float_of_int s.tap.hops);
      let live = float_of_int sz.hosts in
      Sim.engine_metrics out ~algo ~c0 ~c1 ~wall ~sim_s ~live_mean:live;
      let proto = s.net.Sim.p.L.layer in
      Run.metric out (proto ^ ".maint_ops_per_node_s") "1/s" (float_of_int (m1 - m0) /. (live *. sim_s));
      let pct samples p = Meter.percentile (Meter.Samples.sorted samples) p in
      Run.metric out (proto ^ ".lookup_sim_ms_p50") "ms" (pct s.tap.leg_lat 0.5);
      Run.metric out (proto ^ ".lookup_sim_ms_p999") "ms" (pct s.tap.leg_lat 0.999);
      Run.metric out (proto ^ ".lookup_hops_mean") "hops" (float_of_int s.tap.hops /. float_of_int s.tap.legs);
      let st = "store." ^ algo in
      let per n d = float_of_int n /. float_of_int d in
      Run.metric out (st ^ ".lookup_calls_per_op") "count" (per (calls1 - calls0) ops);
      Run.metric out (st ^ ".route_sim_ms_share") "ratio" (Meter.Samples.sum s.tap.leg_lat /. Meter.Samples.sum s.lat);
      Run.metric out (st ^ ".get_sim_ms_p50") "ms" (pct s.get_lat 0.5);
      Run.metric out (st ^ ".put_sim_ms_p50") "ms" (pct s.put_lat 0.5);
      Run.metric out (st ^ ".replica_wait_ms_p50") "ms" (pct s.replica_wait 0.5);
      Run.metric out (st ^ ".replica_wait_ms_p999") "ms" (pct s.replica_wait 0.999);
      Run.metric out (st ^ ".replicate_msgs_per_put") "count" (per (rep1 - rep0) puts);
      Run.metric out (st ^ ".read_repairs_per_get") "count" (per (rr1 - rr0) (ops - puts));
      Run.metric out (st ^ ".repair_rounds") "count" (float_of_int (rounds1 - rounds0)))
    sides (List.combine before after);
  if Run.traced ctx then
    Sim.layer_metrics ctx out pool recs ~slice_ms:sz.slice_ms ~live_mean:(fun _ -> float_of_int sz.hosts);
  List.iter (fun s -> Sim.drain_and_check out s.net ~hosts:sz.hosts) sides;
  substrate_check out
