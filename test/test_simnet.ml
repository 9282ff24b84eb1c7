(* Tests for the discrete-event simulator: heap ordering, message timing,
   failures, loss and run control. *)

module Heap = Simnet.Event_heap
module Engine = Simnet.Engine
module Netspan = Obs.Netspan

(* --- Event_heap ------------------------------------------------------------ *)

(* queue at an absolute time, from a clock at 0 *)
let push h ~time ~tag f = ignore (Heap.push h ~now:0.0 ~delay:time ~tag f)

(* the earliest event's time, through a cell of our own *)
let min_time h =
  let cell = { Heap.time = nan } in
  Heap.min_time h cell;
  cell.time

(* take every queued event in order, running each *)
let drain h =
  while not (Heap.is_empty h) do
    Heap.take h ()
  done

let test_heap_orders_by_time () =
  let h = Heap.create () in
  let fired = ref [] in
  let ev tag () = fired := tag :: !fired in
  push h ~time:3.0 ~tag:0 (ev "c");
  push h ~time:1.0 ~tag:0 (ev "a");
  push h ~time:2.0 ~tag:0 (ev "b");
  drain h;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !fired)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  let fired = ref [] in
  for i = 0 to 9 do
    push h ~time:5.0 ~tag:0 (fun () -> fired := i :: !fired)
  done;
  drain h;
  Alcotest.(check (list int)) "insertion order on ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !fired)

let test_heap_ties_survive_growth () =
  (* 200 equal-time events exceed the initial 64-slot capacity; the FIFO
     tie-break must survive the array reallocation *)
  let h = Heap.create () in
  let fired = ref [] in
  for i = 0 to 199 do
    push h ~time:1.0 ~tag:0 (fun () -> fired := i :: !fired)
  done;
  drain h;
  Alcotest.(check (list int)) "insertion order across growth"
    (List.init 200 (fun i -> i))
    (List.rev !fired)

let test_heap_ties_among_distinct_times () =
  (* ties at two different times, pushed interleaved: global order is by
     time, and within each time by insertion *)
  let h = Heap.create () in
  let fired = ref [] in
  List.iter
    (fun (t, tag) -> push h ~time:t ~tag:0 (fun () -> fired := tag :: !fired))
    [ (2.0, "b0"); (1.0, "a0"); (2.0, "b1"); (1.0, "a1"); (2.0, "b2"); (1.0, "a2") ];
  drain h;
  Alcotest.(check (list string)) "per-time FIFO"
    [ "a0"; "a1"; "a2"; "b0"; "b1"; "b2" ]
    (List.rev !fired)

let test_heap_ties_across_interleaved_pops () =
  (* popping must not disturb the FIFO order of remaining equal-time events *)
  let h = Heap.create () in
  let fired = ref [] in
  let push i = push h ~time:7.0 ~tag:0 (fun () -> fired := i :: !fired) in
  let pop () = Heap.take h () in
  push 0;
  push 1;
  push 2;
  pop ();
  push 3;
  push 4;
  pop ();
  pop ();
  push 5;
  pop ();
  pop ();
  pop ();
  Alcotest.(check (list int)) "FIFO despite interleaved pops" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !fired)

let test_heap_size () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  push h ~time:1.0 ~tag:0 (fun () -> ());
  push h ~time:2.0 ~tag:0 (fun () -> ());
  Alcotest.(check int) "size 2" 2 (Heap.size h);
  let (_ : unit -> unit) = Heap.take h in
  Alcotest.(check int) "size 1" 1 (Heap.size h)

let test_heap_growth () =
  let h = Heap.create () in
  let n = 1000 in
  let rng = Prng.Rng.create ~seed:1 in
  let times = Array.init n (fun _ -> Prng.Rng.float rng 100.0) in
  Array.iter (fun t -> push h ~time:t ~tag:0 (fun () -> ())) times;
  let popped = ref [] in
  while not (Heap.is_empty h) do
    popped := min_time h :: !popped;
    Heap.take h ()
  done;
  let sorted = List.sort compare (Array.to_list times) in
  Alcotest.(check bool) "pops in sorted order" true (List.rev !popped = sorted)

let test_heap_tags_and_requeue () =
  (* a tag travels with its event; a requeued head goes behind its equals *)
  let h = Heap.create () in
  let fired = ref [] in
  List.iter
    (fun (t, tag) -> push h ~time:t ~tag (fun () -> fired := tag :: !fired))
    [ (4.0, 40); (2.0, 20); (2.0, 21); (3.0, 30) ];
  Alcotest.(check int) "earliest tag" 20 (Heap.min_tag h);
  Heap.requeue_min h;
  Alcotest.(check int) "requeued behind its equal" 21 (Heap.min_tag h);
  Alcotest.(check (float 0.0)) "same time" 2.0 (min_time h);
  drain h;
  Alcotest.(check (list int)) "fire order" [ 21; 20; 30; 40 ] (List.rev !fired);
  Alcotest.check_raises "take from empty" (Invalid_argument "Event_heap.take: empty queue")
    (fun () -> Heap.take h ())

(* The queue against a list kept in (time, stamp) order, with pushes, takes
   and requeues interleaved at random over enough events to grow it *)
let prop_heap_model =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun k -> `Push (float_of_int k)) (int_bound 8));
        (3, return `Take);
        (1, return `Requeue);
      ]
  in
  QCheck.Test.make ~name:"take order = (time, stamp) order, requeue re-stamps" ~count:200
    (QCheck.make (list_size (int_range 0 400) op))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and stamp = ref 0 and ok = ref true in
      let enqueue time id =
        model := List.merge compare !model [ (time, !stamp, id) ];
        incr stamp
      in
      List.iteri
        (fun id op ->
          match (op, !model) with
          | `Push time, _ ->
              push h ~time ~tag:id ignore;
              enqueue time id
          | `Take, (time, _, id) :: rest ->
              if min_time h <> time || Heap.min_tag h <> id then ok := false;
              Heap.take h ();
              model := rest
          | `Requeue, (time, _, id) :: rest ->
              Heap.requeue_min h;
              model := rest;
              enqueue time id
          | (`Take | `Requeue), [] -> ())
        ops;
      !ok && Heap.size h = List.length !model
      && List.for_all
           (fun (time, _, id) ->
             let same = min_time h = time && Heap.min_tag h = id in
             Heap.take h ();
             same)
           !model)

(* --- Engine ------------------------------------------------------------------ *)

let const_latency l _ _ = l

let test_send_delivery_time () =
  let eng = Engine.create ~latency:(fun a b -> float_of_int (abs (a - b)) *. 10.0) ~nodes:3 in
  let arrival = ref (-1.0) in
  Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:2 (fun () -> arrival := Engine.now eng);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "arrives at latency" 20.0 !arrival;
  Alcotest.(check int) "sent" 1 (Engine.sent eng);
  Alcotest.(check int) "delivered" 1 (Engine.delivered eng)

let test_send_from_dead_raises () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:2 in
  Engine.kill eng 0;
  Alcotest.check_raises "dead source" (Invalid_argument "Engine.send: source node is dead")
    (fun () -> Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 (fun () -> ()))

let test_send_after_revive_delivers () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:2 in
  Engine.kill eng 0;
  Engine.revive eng 0;
  let ran = ref false in
  Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 (fun () -> ran := true);
  Engine.run eng;
  Alcotest.(check bool) "revived source can send" true !ran

let test_message_to_dead_dropped () =
  let eng = Engine.create ~latency:(const_latency 5.0) ~nodes:2 in
  let ran = ref false in
  Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 (fun () -> ran := true);
  Engine.kill eng 1;
  Engine.run eng;
  Alcotest.(check bool) "not delivered" false !ran;
  Alcotest.(check int) "dropped_dead" 1 (Engine.dropped_dead eng)

let test_kill_midflight () =
  (* a message sent before the kill but arriving after must be dropped;
     revive after arrival does not resurrect it *)
  let eng = Engine.create ~latency:(const_latency 10.0) ~nodes:2 in
  let ran = ref 0 in
  Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 (fun () -> incr ran);
  Engine.schedule eng ~delay:5.0 (fun () -> Engine.kill eng 1);
  Engine.schedule eng ~delay:15.0 (fun () -> Engine.revive eng 1);
  Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 (fun () -> incr ran);
  Engine.run eng;
  Alcotest.(check int) "both dropped (arrival at t=10, dead 5..15)" 0 !ran

let test_kill_revive_transition_only () =
  (* killing a dead node / reviving a live one are no-ops: no counter
     bumps, no live-count skew — overlapping fault schedules compose *)
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:3 in
  Alcotest.(check int) "all alive" 3 (Engine.live_count eng);
  Engine.revive eng 1;
  Alcotest.(check int) "revive of live is no-op" 0 (Engine.revivals eng);
  Engine.kill eng 1;
  Engine.kill eng 1;
  Engine.kill eng 1;
  Alcotest.(check int) "one death despite three kills" 1 (Engine.deaths eng);
  Alcotest.(check int) "live count once" 2 (Engine.live_count eng);
  Engine.revive eng 1;
  Engine.revive eng 1;
  Alcotest.(check int) "one revival despite two revives" 1 (Engine.revivals eng);
  Alcotest.(check int) "live count restored" 3 (Engine.live_count eng);
  Alcotest.(check bool) "alive again" true (Engine.is_alive eng 1);
  (* conservation: deaths - revivals = nodes - live *)
  Engine.kill eng 0;
  Engine.kill eng 2;
  Alcotest.(check int) "conservation"
    (3 - Engine.live_count eng)
    (Engine.deaths eng - Engine.revivals eng);
  (* double-kill must not double-count messages dropped at a dead node *)
  let eng2 = Engine.create ~latency:(const_latency 5.0) ~nodes:2 in
  Engine.send eng2 ~kind:Netspan.Other ~src:0 ~dst:1 (fun () -> ());
  Engine.kill eng2 1;
  Engine.kill eng2 1;
  Engine.run eng2;
  Alcotest.(check int) "dropped once" 1 (Engine.dropped_dead eng2)

let test_timer_on_dead_node () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  let ran = ref false in
  ignore (Engine.timer eng ~node:0 ~delay:10.0 (fun () -> ran := true));
  Engine.kill eng 0;
  Engine.run eng;
  Alcotest.(check bool) "timer dropped" false !ran

let test_schedule_unconditional () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  let ran = ref false in
  Engine.kill eng 0;
  Engine.schedule eng ~delay:1.0 (fun () -> ran := true);
  Engine.run eng;
  Alcotest.(check bool) "god-event fires" true !ran

let test_run_until () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  let fired = ref [] in
  List.iter
    (fun d -> Engine.schedule eng ~delay:d (fun () -> fired := d :: !fired))
    [ 1.0; 5.0; 9.0 ];
  Engine.run ~until:6.0 eng;
  Alcotest.(check (list (float 1e-9))) "only events before 6" [ 1.0; 5.0 ] (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock at boundary" 6.0 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "rest delivered on resume" [ 1.0; 5.0; 9.0 ]
    (List.rev !fired)

let test_until_before_now_rejected () =
  (* running to 16 ms and then to 10 ms would set the clock back, and a
     1 ms timer armed then would fire at 11 ms, before events already run *)
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  Engine.schedule eng ~delay:20.0 ignore;
  Engine.run ~until:16.0 eng;
  Alcotest.check_raises "until < now"
    (Invalid_argument "Engine.run: until is earlier than now")
    (fun () -> Engine.run ~until:10.0 eng);
  Alcotest.(check (float 0.0)) "clock kept" 16.0 (Engine.now eng);
  Engine.run ~until:16.0 eng;
  Alcotest.(check (float 0.0)) "until = now is allowed" 16.0 (Engine.now eng)

let test_clock_monotonic () =
  let eng = Engine.create ~latency:(const_latency 3.0) ~nodes:2 in
  let times = ref [] in
  let record () = times := Engine.now eng :: !times in
  Engine.schedule eng ~delay:1.0 record;
  Engine.schedule eng ~delay:2.0 (fun () ->
      record ();
      Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 record);
  Engine.run eng;
  let l = List.rev !times in
  Alcotest.(check (list (float 1e-9))) "1, 2, then 2+3" [ 1.0; 2.0; 5.0 ] l

let test_message_loss () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:2 in
  Engine.set_loss eng ~rate:0.5 ~rng:(Prng.Rng.create ~seed:5);
  let delivered = ref 0 in
  for _ = 1 to 1000 do
    Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 (fun () -> incr delivered)
  done;
  Engine.run eng;
  Alcotest.(check int) "accounting adds up" 1000 (!delivered + Engine.dropped_loss eng);
  Alcotest.(check bool) "roughly half lost" true
    (Engine.dropped_loss eng > 400 && Engine.dropped_loss eng < 600)

let test_loss_validation () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  Alcotest.check_raises "rate 1" (Invalid_argument "Engine.set_loss: rate must be in [0, 1)")
    (fun () -> Engine.set_loss eng ~rate:1.0 ~rng:(Prng.Rng.create ~seed:1))

let test_run_until_quiet_guard () =
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  (* a self-perpetuating timer chain *)
  let rec tick () = ignore (Engine.timer eng ~node:0 ~delay:1.0 tick) in
  tick ();
  match Engine.run_until_quiet ~max_events:100 eng with
  | () -> Alcotest.fail "should have detected livelock"
  | exception Failure _ -> ()

let test_cascading_sends () =
  (* a relay chain: 0 -> 1 -> 2 -> 3, accumulating latency *)
  let eng = Engine.create ~latency:(const_latency 2.0) ~nodes:4 in
  let final = ref (-1.0) in
  let rec relay n () =
    if n < 3 then Engine.send eng ~kind:Netspan.Other ~src:n ~dst:(n + 1) (relay (n + 1))
    else final := Engine.now eng
  in
  Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 (relay 1);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "3 hops x 2ms" 6.0 !final

(* --- Event order ------------------------------------------------------------- *)

let test_until_restamps () =
  (* [run ~until] takes the boundary event out and queues it again under a
     fresh stamp, so it now fires behind [b], which was queued after it at
     the same time *)
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  let fired = ref [] in
  Engine.schedule eng ~delay:10.0 (fun () -> fired := "a" :: !fired);
  Engine.schedule eng ~delay:10.0 (fun () -> fired := "b" :: !fired);
  Engine.run ~until:10.0 eng;
  Alcotest.(check (list string)) "nothing at the boundary" [] !fired;
  Engine.run eng;
  Alcotest.(check (list string)) "boundary event re-queued last" [ "b"; "a" ] (List.rev !fired)

(* Reference model of the queue: pending events ordered by (time, push
   stamp). A [run ~until] that meets an event at or past its boundary
   re-queues it under a fresh stamp and leaves the clock at the boundary. *)
type order_op = Push of float | Take_one | Run_until of float

let show_order_op = function
  | Push d -> Printf.sprintf "push +%g" d
  | Take_one -> "take-one"
  | Run_until d -> Printf.sprintf "until +%g" d

let order_ops_gen =
  (* a coarse grid of delays, so that equal times are common *)
  let open QCheck.Gen in
  let delay = map (fun k -> float_of_int k *. 0.5) (int_bound 6) in
  list_size (int_bound 80)
    (frequency
       [ (5, map (fun d -> Push d) delay); (3, return Take_one); (2, map (fun d -> Run_until d) delay) ])

let prop_event_order =
  QCheck.Test.make ~name:"fires in (time, stamp) order; boundary re-queues re-stamp" ~count:500
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_order_op ops)) order_ops_gen)
    (fun ops ->
      let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
      let fired = ref [] in
      (* model: clock, next stamp, queue sorted by (time, stamp) *)
      let clock = ref 0.0 and stamp = ref 0 and queue = ref [] and model_fired = ref [] in
      let enqueue time id =
        queue := List.merge compare !queue [ (time, !stamp, id) ];
        incr stamp
      in
      let rec model_run limit =
        match !queue with
        | [] -> ()
        | (time, _, id) :: rest ->
            queue := rest;
            if Option.fold ~none:false ~some:(fun l -> time >= l) limit then begin
              enqueue time id;
              clock := Option.get limit
            end
            else begin
              clock := Float.max !clock time;
              model_fired := id :: !model_fired;
              model_run limit
            end
      in
      let clocks_agree = ref true in
      List.iteri
        (fun id op ->
          (match op with
          | Push d ->
              Engine.schedule eng ~delay:d (fun () -> fired := id :: !fired);
              enqueue (!clock +. d) id
          | Take_one -> (
              Engine.run ~max_events:1 eng;
              match !queue with
              | [] -> ()
              | (time, _, id) :: rest ->
                  queue := rest;
                  clock := Float.max !clock time;
                  model_fired := id :: !model_fired)
          | Run_until d ->
              let limit = !clock +. d in
              Engine.run ~until:limit eng;
              model_run (Some limit));
          if Engine.now eng <> !clock then clocks_agree := false)
        ops;
      Engine.run eng;
      model_run None;
      !clocks_agree && Engine.now eng = !clock && !fired = !model_fired)

(* --- Cancellation ------------------------------------------------------------- *)

(* A program over the queue: pushes at any delay from the clock, timers on
   the program's fixed delays, [run ~until] boundaries, single takes, and
   cancels of the [i]-th timer armed so far, whether it is still queued,
   re-stamped by a boundary, or already fired (its slot then free or
   holding a later push). Timers wait in lanes: most programs have 1-4
   delays, the rest more than there are lanes, so that some delays find
   none and lanes that empty pass to other delays. *)
type cancel_op = C_push of float | C_timer of int | C_until of float | C_take | C_cancel of int

let show_cancel_op = function
  | C_push d -> Printf.sprintf "push +%g" d
  | C_timer k -> Printf.sprintf "timer #%d" k
  | C_until d -> Printf.sprintf "until +%g" d
  | C_take -> "take"
  | C_cancel i -> Printf.sprintf "cancel %d" i

let cancel_program_arb =
  (* a coarse grid, so that equal times are common *)
  let open QCheck.Gen in
  let step = map (fun k -> float_of_int k *. 0.5) (int_bound 6) in
  QCheck.make
    ~print:(fun (delays, ops) ->
      Printf.sprintf "delays [%s]: %s"
        (String.concat "; " (List.map string_of_float delays))
        (String.concat "; " (List.map show_cancel_op ops)))
    (pair
       (frequency
          [
            (3, list_size (int_range 1 4) step);
            (1, list_size (int_range 12 24) (map (fun k -> float_of_int k *. 0.5) (int_bound 30)));
          ])
       (list_size (int_bound 120)
          (frequency
             [
               (3, map (fun d -> C_push d) step);
               (5, map (fun k -> C_timer k) (int_bound 23));
               (2, map (fun d -> C_until d) step);
               (3, return C_take);
               (3, map (fun i -> C_cancel i) (int_bound 1000));
             ])))

(* The reference: a list in (time, stamp) order. A cancelled timer stays
   in it and fires as a counted no-op; a cancel reaches any timer still in
   the list, re-stamped or not, and nothing else. *)
module Qmodel = struct
  type entry = { time : float; mutable stamp : int; id : int; timer : bool; mutable cancelled : bool }

  type t = {
    mutable clock : float;
    mutable next : int;
    mutable queue : entry list;
    mutable fired : int list; (* ids whose closures ran, latest first *)
    mutable timers_fired : int;
  }

  let create () = { clock = 0.0; next = 0; queue = []; fired = []; timers_fired = 0 }
  let order a b = compare (a.time, a.stamp) (b.time, b.stamp)

  let enqueue m e =
    e.stamp <- m.next;
    m.next <- m.next + 1;
    m.queue <- List.merge order m.queue [ e ]

  let push m ~delay ~id ~timer =
    enqueue m { time = m.clock +. delay; stamp = 0; id; timer; cancelled = false }

  let cancel m id = List.iter (fun e -> if e.id = id then e.cancelled <- true) m.queue

  (* the head, taken: [Some] it, for the caller to check *)
  let take m =
    match m.queue with
    | [] -> None
    | e :: rest ->
        m.queue <- rest;
        m.clock <- Float.max m.clock e.time;
        if e.timer then m.timers_fired <- m.timers_fired + 1;
        if not e.cancelled then m.fired <- e.id :: m.fired;
        Some e

  (* the head meets a [run ~until] boundary: re-stamped *)
  let requeue m limit =
    match m.queue with
    | [] -> ()
    | e :: rest ->
        m.queue <- rest;
        enqueue m e;
        m.clock <- limit

  let rec until m limit =
    match m.queue with
    | [] -> ()
    | e :: _ when e.time < limit ->
        ignore (take m);
        until m limit
    | _ -> requeue m limit
end

(* Runs a program on [Event_heap] itself, as [Engine.run] drives it,
   checking each taken event's time and tag against the model's head and
   the queue's size after every step. *)
let prop_cancel_queue =
  QCheck.Test.make ~name:"cancel: queue = (time, stamp) list, cancelled entries fire as no-ops"
    ~count:500 cancel_program_arb (fun (delays, ops) ->
      let delays = Array.of_list delays in
      let h = Heap.create () and m = Qmodel.create () in
      let clock = ref 0.0 and fired = ref [] and ok = ref true in
      let handles = ref [||] and ids = ref [||] in
      let take_one () =
        if not (Heap.is_empty h) then begin
          (match Qmodel.take m with
          | Some e when min_time h = e.time && Heap.min_tag h = e.id -> ()
          | _ -> ok := false);
          clock := Float.max !clock (min_time h);
          Heap.take h ()
        end
        else if m.queue <> [] then ok := false
      in
      let rec until limit =
        if not (Heap.is_empty h) then
          if min_time h >= limit then begin
            Heap.requeue_min h;
            Qmodel.requeue m limit;
            clock := limit
          end
          else begin
            take_one ();
            until limit
          end
      in
      List.iteri
        (fun id op ->
          let record () = fired := id :: !fired in
          (match op with
          | C_push d ->
              ignore (Heap.push h ~now:!clock ~delay:d ~tag:id record);
              Qmodel.push m ~delay:d ~id ~timer:false
          | C_timer k ->
              let delay = delays.(k mod Array.length delays) in
              handles :=
                Array.append !handles [| Heap.push_timer h ~now:!clock ~delay ~tag:id record |];
              ids := Array.append !ids [| id |];
              Qmodel.push m ~delay ~id ~timer:true
          | C_until d -> until (!clock +. d)
          | C_take -> take_one ()
          | C_cancel i ->
              let n = Array.length !handles in
              if n > 0 then begin
                Heap.cancel h !handles.(i mod n);
                Qmodel.cancel m !ids.(i mod n)
              end);
          if Heap.size h <> List.length m.queue || !clock <> m.clock then ok := false)
        ops;
      while not (Heap.is_empty h) do
        take_one ()
      done;
      !ok && m.queue = [] && !fired = m.fired)

(* The same programs on [Engine]: closures that run, [timers_fired] and
   [pending_events] after every step, and the clock. *)
let prop_cancel_engine =
  QCheck.Test.make ~name:"cancel: engine fires, counts and pends as the model" ~count:500
    cancel_program_arb (fun (delays, ops) ->
      let delays = Array.of_list delays in
      let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
      let m = Qmodel.create () and fired = ref [] and ok = ref true in
      let handles = ref [||] and ids = ref [||] in
      let pending () =
        let reg = Obs.Metrics.create () in
        Engine.export_metrics eng reg;
        Obs.Metrics.counter_value (Obs.Metrics.counter reg "simnet.pending_events")
      in
      List.iteri
        (fun id op ->
          let record () = fired := id :: !fired in
          (match op with
          | C_push d ->
              Engine.schedule eng ~delay:d record;
              Qmodel.push m ~delay:d ~id ~timer:false
          | C_timer k ->
              let delay = delays.(k mod Array.length delays) in
              handles := Array.append !handles [| Engine.timer eng ~node:0 ~delay record |];
              ids := Array.append !ids [| id |];
              Qmodel.push m ~delay ~id ~timer:true
          | C_until d ->
              let limit = Engine.now eng +. d in
              Engine.run ~until:limit eng;
              Qmodel.until m limit
          | C_take ->
              Engine.run ~max_events:1 eng;
              ignore (Qmodel.take m)
          | C_cancel i ->
              let n = Array.length !handles in
              if n > 0 then begin
                Engine.cancel eng !handles.(i mod n);
                Qmodel.cancel m !ids.(i mod n)
              end);
          if
            Engine.now eng <> m.clock
            || Engine.timers_fired eng <> m.timers_fired
            || pending () <> List.length m.queue
            || !fired <> m.fired
          then ok := false)
        ops;
      Engine.run eng;
      Qmodel.until m infinity;
      !ok && !fired = m.fired
      && Engine.timers_fired eng = m.timers_fired
      && Engine.timers_set eng = Array.length !handles)

let test_cancel_stale_and_requeued () =
  (* a handle still cancels its event after a requeue re-stamps it, and
     does nothing once the event is taken, even with a later push in the
     same slot *)
  let h = Heap.create () in
  let ran = ref [] in
  let a = Heap.push h ~now:0.0 ~delay:1.0 ~tag:0 (fun () -> ran := "a" :: !ran) in
  Heap.take h ();
  let b = Heap.push h ~now:1.0 ~delay:1.0 ~tag:0 (fun () -> ran := "b" :: !ran) in
  Heap.cancel h a;
  Heap.requeue_min h;
  Heap.cancel h Heap.none;
  Alcotest.(check int) "b still queued" 1 (Heap.size h);
  Heap.take h ();
  Alcotest.(check (list string)) "a and b ran" [ "b"; "a" ] !ran;
  let c = Heap.push h ~now:2.0 ~delay:1.0 ~tag:0 (fun () -> ran := "c" :: !ran) in
  ignore (Heap.push h ~now:2.0 ~delay:1.0 ~tag:0 ignore);
  Heap.requeue_min h;
  Heap.cancel h c;
  Heap.cancel h b;
  drain h;
  Alcotest.(check (list string)) "c cancelled after its requeue" [ "b"; "a" ] !ran

let test_lane_requeued_then_cancelled () =
  (* a lane head that a boundary re-stamps moves into the heap behind its
     equal, where its lane handle still cancels it, through a second
     re-stamp too; once it has fired, the handle no longer reaches the
     heap slot it left *)
  let h = Heap.create () in
  let ran = ref [] in
  let timer name = Heap.push_timer h ~now:0.0 ~delay:5.0 ~tag:0 (fun () -> ran := name :: !ran) in
  let a = timer "a" in
  let b = timer "b" in
  Heap.requeue_min h;
  Heap.requeue_min h;
  Heap.requeue_min h;
  Heap.cancel h a;
  Alcotest.(check int) "both queued" 2 (Heap.size h);
  drain h;
  Alcotest.(check (list string)) "b ran, a cancelled" [ "b" ] !ran;
  Heap.cancel h b;
  let c = timer "c" in
  Heap.requeue_min h;
  Heap.take h ();
  ignore (Heap.push h ~now:5.0 ~delay:1.0 ~tag:0 (fun () -> ran := "d" :: !ran));
  Heap.cancel h c;
  drain h;
  Alcotest.(check (list string)) "c ran, then d" [ "d"; "c"; "b" ] !ran;
  (* the same through the engine's [run ~until] *)
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:1 in
  let ran = ref false in
  let t = Engine.timer eng ~node:0 ~delay:5.0 (fun () -> ran := true) in
  Engine.run ~until:5.0 eng;
  Engine.cancel eng t;
  Engine.run eng;
  Alcotest.(check bool) "cancelled after its boundary" false !ran;
  Alcotest.(check int) "fired as a no-op" 1 (Engine.timers_fired eng)

(* timers on [delays] (armed in that order, from a clock at 0) with every
   [cancel]-th one cancelled: the survivors' tags in fire order *)
let fire_timers ?(cancel = max_int) delays =
  let h = Heap.create () in
  let fired = ref [] in
  List.iteri
    (fun i d ->
      let t = Heap.push_timer h ~now:0.0 ~delay:d ~tag:i (fun () -> fired := i :: !fired) in
      if i mod cancel = cancel - 1 then Heap.cancel h t)
    delays;
  drain h;
  List.rev !fired

(* the tags of [delays] in (time, stamp) order, [cancel] as above *)
let expected ?(cancel = max_int) delays =
  List.mapi (fun i d -> (d, i)) delays
  |> List.stable_sort compare
  |> List.filter_map (fun (_, i) -> if i mod cancel = cancel - 1 then None else Some i)

let test_more_delays_than_lanes () =
  (* every lane busy: the delays past the last lane wait in the heap, and
     cancel as well there *)
  let delays = List.init (3 * Heap.max_lanes) (fun i -> float_of_int ((7 * i) mod 20)) in
  Alcotest.(check (list int)) "(time, stamp) order" (expected delays) (fire_timers delays);
  Alcotest.(check (list int))
    "every third cancelled" (expected ~cancel:3 delays) (fire_timers ~cancel:3 delays)

let test_one_off_lanes_reused () =
  (* one-off delays, each taken before the next is armed: each one's lane
     empties and passes to the next delay, and a stale handle from an
     earlier delay does not cancel the entry that took its place *)
  let h = Heap.create () in
  let ran = ref 0 in
  let stale = ref Heap.none in
  for i = 1 to 3 * Heap.max_lanes do
    let t = Heap.push_timer h ~now:0.0 ~delay:(float_of_int i) ~tag:i (fun () -> incr ran) in
    Heap.cancel h !stale;
    Alcotest.(check int) "its own tag" i (Heap.min_tag h);
    Heap.take h ();
    stale := t
  done;
  Alcotest.(check int) "none cancelled" (3 * Heap.max_lanes) !ran;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_lane_heap_ties () =
  (* equal times across the heap and the lanes fire in push order *)
  let h = Heap.create () in
  let fired = ref [] in
  let record i () = fired := i :: !fired in
  ignore (Heap.push h ~now:0.0 ~delay:4.0 ~tag:0 (record 0));
  ignore (Heap.push_timer h ~now:0.0 ~delay:4.0 ~tag:1 (record 1));
  ignore (Heap.push_timer h ~now:0.0 ~delay:4.0 ~tag:2 (record 2));
  ignore (Heap.push h ~now:1.0 ~delay:3.0 ~tag:3 (record 3));
  ignore (Heap.push_timer h ~now:2.0 ~delay:2.0 ~tag:4 (record 4));
  ignore (Heap.push h ~now:3.0 ~delay:1.0 ~tag:5 (record 5));
  ignore (Heap.push_timer h ~now:3.0 ~delay:1.0 ~tag:6 (record 6));
  drain h;
  Alcotest.(check (list int)) "push order" [ 0; 1; 2; 3; 4; 5; 6 ] (List.rev !fired);
  (* two lane heads tie at 2.0 when a third lane's head is taken: the one
     pushed first, on the later lane, goes first *)
  let h = Heap.create () in
  fired := [];
  ignore (Heap.push_timer h ~now:0.0 ~delay:1.0 ~tag:0 (record 0));
  ignore (Heap.push_timer h ~now:0.0 ~delay:2.0 ~tag:1 (record 1));
  Heap.take h ();
  ignore (Heap.push_timer h ~now:1.0 ~delay:1.0 ~tag:2 (record 2));
  ignore (Heap.push_timer h ~now:1.0 ~delay:0.5 ~tag:3 (record 3));
  drain h;
  Alcotest.(check (list int)) "lane ties in push order" [ 0; 3; 1; 2 ] (List.rev !fired)

let test_cancel_counts () =
  (* a cancelled timer fires as a counted no-op, on a dead node it is
     dropped as before, and a second cancel or one after the fire does
     nothing *)
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:2 in
  let ran = ref [] in
  let a = Engine.timer eng ~node:0 ~delay:5.0 (fun () -> ran := "a" :: !ran) in
  let b = Engine.timer eng ~node:1 ~delay:5.0 (fun () -> ran := "b" :: !ran) in
  let c = Engine.timer eng ~node:0 ~delay:5.0 (fun () -> ran := "c" :: !ran) in
  Engine.cancel eng a;
  Engine.cancel eng a;
  Engine.cancel eng b;
  Engine.kill eng 1;
  Engine.run eng;
  Engine.cancel eng c;
  Engine.cancel eng Engine.no_timer;
  Alcotest.(check (list string)) "only c ran" [ "c" ] !ran;
  Alcotest.(check int) "set" 3 (Engine.timers_set eng);
  Alcotest.(check int) "fired, a as a no-op" 2 (Engine.timers_fired eng);
  Alcotest.(check int) "b dropped dead" 1 (Engine.dropped_dead eng)

let test_settle_once () =
  (* the reply settles first and cancels the timeout; the timeout's own
     settle then fails, and so does a late second reply *)
  let eng = Engine.create ~latency:(const_latency 1.0) ~nodes:2 in
  let outcome = ref [] in
  let pending = ref Engine.no_timer in
  let reply () = if Engine.settle eng pending then outcome := "reply" :: !outcome in
  let request () =
    Engine.send eng ~kind:Netspan.Other ~src:0 ~dst:1 (fun () ->
        Engine.send eng ~kind:Netspan.Other ~src:1 ~dst:0 reply)
  in
  request ();
  request ();
  pending :=
    Engine.timer eng ~node:0 ~delay:10.0 (fun () ->
        if Engine.settle eng pending then outcome := "timeout" :: !outcome);
  Engine.run eng;
  Alcotest.(check (list string)) "one outcome" [ "reply" ] !outcome;
  Alcotest.(check int) "the timeout still fired" 1 (Engine.timers_fired eng)

let () =
  Alcotest.run "simnet"
    [
      ( "event_heap",
        [
          Alcotest.test_case "time order" `Quick test_heap_orders_by_time;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "ties survive growth" `Quick test_heap_ties_survive_growth;
          Alcotest.test_case "ties among distinct times" `Quick test_heap_ties_among_distinct_times;
          Alcotest.test_case "ties across interleaved pops" `Quick
            test_heap_ties_across_interleaved_pops;
          Alcotest.test_case "size" `Quick test_heap_size;
          Alcotest.test_case "growth + global order" `Quick test_heap_growth;
          Alcotest.test_case "tags and requeue" `Quick test_heap_tags_and_requeue;
          QCheck_alcotest.to_alcotest prop_heap_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery time" `Quick test_send_delivery_time;
          Alcotest.test_case "dead source" `Quick test_send_from_dead_raises;
          Alcotest.test_case "send after revive" `Quick test_send_after_revive_delivers;
          Alcotest.test_case "message to dead" `Quick test_message_to_dead_dropped;
          Alcotest.test_case "kill midflight" `Quick test_kill_midflight;
          Alcotest.test_case "kill/revive transition-only" `Quick
            test_kill_revive_transition_only;
          Alcotest.test_case "timer on dead node" `Quick test_timer_on_dead_node;
          Alcotest.test_case "schedule unconditional" `Quick test_schedule_unconditional;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "until before now" `Quick test_until_before_now_rejected;
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "message loss" `Quick test_message_loss;
          Alcotest.test_case "loss validation" `Quick test_loss_validation;
          Alcotest.test_case "livelock guard" `Quick test_run_until_quiet_guard;
          Alcotest.test_case "cascading sends" `Quick test_cascading_sends;
        ] );
      ( "event_order",
        Alcotest.test_case "run ~until re-stamps the boundary event" `Quick test_until_restamps
        :: List.map QCheck_alcotest.to_alcotest [ prop_event_order ] );
      ( "cancel",
        [
          Alcotest.test_case "stale and requeued handles" `Quick test_cancel_stale_and_requeued;
          Alcotest.test_case "lane head re-stamped, then cancelled" `Quick
            test_lane_requeued_then_cancelled;
          Alcotest.test_case "more delays than lanes" `Quick test_more_delays_than_lanes;
          Alcotest.test_case "one-off delays reuse lanes" `Quick test_one_off_lanes_reused;
          Alcotest.test_case "lane and heap ties" `Quick test_lane_heap_ties;
          Alcotest.test_case "cancelled timers are counted" `Quick test_cancel_counts;
          Alcotest.test_case "settle once" `Quick test_settle_once;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_cancel_queue; prop_cancel_engine ] );
    ]
