type t = {
  latency : int -> int -> float;
  alive : bool array;
  heap : Event_heap.t;
  next : Event_heap.cell; (* the earliest event's time, read unboxed by [run] *)
  mutable clock : float;
  mutable loss_rate : float;
  mutable loss_rng : Prng.Rng.t option;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped_dead : int;
  mutable dropped_loss : int;
  mutable deaths : int;
  mutable revivals : int;
  mutable live : int;
  mutable timers_set : int;
  mutable timers_fired : int;
  mutable ns : Obs.Netspan.t;
  (* span of the message currently being delivered (and the root of its
     causal tree); -1 outside a delivery, so sends from timers or driver
     code start fresh trees *)
  mutable cur_span : int;
  mutable cur_root : int;
  mutable ts_sent : Obs.Timeseries.series;
  mutable ts_delivered : Obs.Timeseries.series;
  mutable ts_dropped : Obs.Timeseries.series;
  mutable ts_live : Obs.Timeseries.series;
}

let ts_off =
  (* registering on the disabled collector yields the no-op handle *)
  Obs.Timeseries.counter Obs.Timeseries.disabled ""

let create ~latency ~nodes =
  if nodes < 0 then invalid_arg "Engine.create: negative node count";
  {
    latency;
    alive = Array.make nodes true;
    heap = Event_heap.create ();
    next = { Event_heap.time = 0.0 };
    clock = 0.0;
    loss_rate = 0.0;
    loss_rng = None;
    sent = 0;
    delivered = 0;
    dropped_dead = 0;
    dropped_loss = 0;
    deaths = 0;
    revivals = 0;
    live = nodes;
    timers_set = 0;
    timers_fired = 0;
    ns = Obs.Netspan.disabled;
    cur_span = -1;
    cur_root = -1;
    ts_sent = ts_off;
    ts_delivered = ts_off;
    ts_dropped = ts_off;
    ts_live = ts_off;
  }

let attach_timeseries ?(prefix = "net") t ts =
  t.ts_sent <- Obs.Timeseries.counter ts (prefix ^ ".sent");
  t.ts_delivered <- Obs.Timeseries.counter ts (prefix ^ ".delivered");
  t.ts_dropped <- Obs.Timeseries.counter ts (prefix ^ ".dropped");
  t.ts_live <- Obs.Timeseries.gauge ts (prefix ^ ".live")

let attach_netspan t ns = t.ns <- ns
let netspan t = t.ns

let now t = t.clock
let is_alive t n = t.alive.(n)

(* kill/revive count transitions only: a fault schedule may (and does, when a
   crash-restart window overlaps a correlated outage) kill an already-dead
   node or revive a live one, and those no-ops must not skew the
   deaths/revivals/live accounting. *)
let kill t n =
  if t.alive.(n) then begin
    t.alive.(n) <- false;
    t.deaths <- t.deaths + 1;
    t.live <- t.live - 1;
    Obs.Timeseries.set t.ts_live ~at:t.clock (float_of_int t.live)
  end

let revive t n =
  if not t.alive.(n) then begin
    t.alive.(n) <- true;
    t.revivals <- t.revivals + 1;
    t.live <- t.live + 1;
    Obs.Timeseries.set t.ts_live ~at:t.clock (float_of_int t.live)
  end

let set_loss t ~rate ~rng =
  if rate < 0.0 || rate >= 1.0 then invalid_arg "Engine.set_loss: rate must be in [0, 1)";
  t.loss_rate <- rate;
  t.loss_rng <- (if rate = 0.0 then None else Some rng)

let lost t =
  match t.loss_rng with
  | None -> false
  | Some rng -> t.loss_rate > 0.0 && Prng.Rng.float rng 1.0 < t.loss_rate

(* An event's tag says whom it is for: its kind in the low two bits, its
   node above them. [fire] does the liveness check and the counting from
   the tag, so [send] and [timer] queue the caller's closure as it is. A
   traced delivery does its own accounting and is queued as a god event. *)
let message = 0
let timer_on = 1
let god = 2
let tag_for kind node = (node lsl 2) lor kind

let fire t tag f =
  let kind = tag land 3 in
  if kind = god then f ()
  else if t.alive.(tag asr 2) then begin
    if kind = message then begin
      t.delivered <- t.delivered + 1;
      Obs.Timeseries.add t.ts_delivered ~at:t.clock 1.0
    end
    else t.timers_fired <- t.timers_fired + 1;
    f ()
  end
  else begin
    t.dropped_dead <- t.dropped_dead + 1;
    Obs.Timeseries.add t.ts_dropped ~at:t.clock 1.0
  end

(* Traced variant of [send]: allocate a span, record the message (parent =
   the span being delivered right now, if any), and wrap the delivery so
   sends made while handling it are recorded as its children. The loss
   draw happens at the same point as on the untraced path, so attaching a
   netspan never shifts the RNG stream. *)
let send_traced t ~kind ~src ~dst f =
  let ns = t.ns in
  let span = Obs.Netspan.next_span ns in
  let parent = t.cur_span in
  let root = if parent < 0 then span else t.cur_root in
  let lat = t.latency src dst in
  Obs.Netspan.msg ns ~span ~parent ~root ~kind ~src ~dst ~at:t.clock ~lat;
  if lost t then begin
    t.dropped_loss <- t.dropped_loss + 1;
    Obs.Timeseries.add t.ts_dropped ~at:t.clock 1.0;
    Obs.Netspan.drop ns ~span ~root ~at:t.clock ~why:`Loss
  end
  else
    let deliver () =
      if t.alive.(dst) then begin
        t.delivered <- t.delivered + 1;
        Obs.Timeseries.add t.ts_delivered ~at:t.clock 1.0;
        let ps = t.cur_span and pr = t.cur_root in
        t.cur_span <- span;
        t.cur_root <- root;
        f ();
        t.cur_span <- ps;
        t.cur_root <- pr
      end
      else begin
        t.dropped_dead <- t.dropped_dead + 1;
        Obs.Timeseries.add t.ts_dropped ~at:t.clock 1.0;
        Obs.Netspan.drop ns ~span ~root ~at:t.clock ~why:`Dead
      end
    in
    ignore (Event_heap.push t.heap ~now:t.clock ~delay:lat ~tag:god deliver)

let send t ~kind ~src ~dst f =
  if not t.alive.(src) then invalid_arg "Engine.send: source node is dead";
  t.sent <- t.sent + 1;
  Obs.Timeseries.add t.ts_sent ~at:t.clock 1.0;
  if Obs.Netspan.enabled t.ns then send_traced t ~kind ~src ~dst f
  else if lost t then begin
    t.dropped_loss <- t.dropped_loss + 1;
    Obs.Timeseries.add t.ts_dropped ~at:t.clock 1.0
  end
  else
    ignore
      (Event_heap.push t.heap ~now:t.clock ~delay:(t.latency src dst) ~tag:(tag_for message dst) f)

type handle = Event_heap.handle

let no_timer = Event_heap.none

let timer t ~node ~delay f =
  if delay < 0.0 then invalid_arg "Engine.timer: negative delay";
  t.timers_set <- t.timers_set + 1;
  Event_heap.push_timer t.heap ~now:t.clock ~delay ~tag:(tag_for timer_on node) f

let cancel t h = Event_heap.cancel t.heap h

let settle t cell =
  let h = !cell in
  if h == no_timer then false
  else begin
    cancel t h;
    cell := no_timer;
    true
  end

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  ignore (Event_heap.push t.heap ~now:t.clock ~delay ~tag:god f)

let run ?(max_events = max_int) ?until t =
  (match until with
  | Some limit when limit < t.clock -> invalid_arg "Engine.run: until is earlier than now"
  | _ -> ());
  let h = t.heap in
  let processed = ref 0 in
  let continue = ref true in
  while !continue && !processed < max_events do
    if Event_heap.is_empty h then continue := false
    else begin
      Event_heap.min_time h t.next;
      let time = t.next.time in
      match until with
      | Some limit when time >= limit ->
          (* it belongs to a later run: queue it again under a fresh stamp,
             behind everything already queued at its time, exactly as
             taking it out and pushing it back would *)
          Event_heap.requeue_min h;
          t.clock <- limit;
          continue := false
      | _ ->
          let tag = Event_heap.min_tag h in
          let f = Event_heap.take h in
          (* a boxed clock costs 2 words only when it moves *)
          if time > t.clock then t.clock <- time;
          incr processed;
          fire t tag f
    end
  done

let run_until_quiet ?(max_events = 10_000_000) t =
  run ~max_events t;
  if not (Event_heap.is_empty t.heap) then
    failwith "Engine.run_until_quiet: event budget exhausted (livelock?)"

let sent t = t.sent
let delivered t = t.delivered
let dropped_dead t = t.dropped_dead
let dropped_loss t = t.dropped_loss
let deaths t = t.deaths
let revivals t = t.revivals
let live_count t = t.live
let timers_set t = t.timers_set
let timers_fired t = t.timers_fired

let export_metrics ?(prefix = "simnet") t m =
  let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ "." ^ name)) v in
  c "sent" t.sent;
  c "delivered" t.delivered;
  c "dropped_dead" t.dropped_dead;
  c "dropped_loss" t.dropped_loss;
  c "timers_set" t.timers_set;
  c "timers_fired" t.timers_fired;
  c "deaths" t.deaths;
  c "revivals" t.revivals;
  c "pending_events" (Event_heap.size t.heap);
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".live")) (float_of_int t.live);
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".clock_ms")) t.clock
