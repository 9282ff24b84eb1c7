module Id = Hashid.Id
module Engine = Simnet.Engine
module Netspan = Obs.Netspan

type config = { space : Id.space; succ_list_len : int; rpc_timeout : float; adaptive : bool }

let default_config space = { space; succ_list_len = 4; rpc_timeout = 2000.0; adaptive = false }

(* ms between maintenance rounds before adaptive backoff; the probe keeps
   the stabilize cadence *)
let stabilize_every = 500.0
let fix_fingers_every = 500.0
let check_pred_every = 1000.0

(* finger slots one fix-fingers round refreshes *)
let fingers_per_round = 8

let lookup_retries = 3

(* unchanged probes before a ring counts as converged, and the cap on the
   adaptive interval multiplier *)
let stability_k = 3
let backoff_max = 8.0

(* Keys are the ids as ints ([Id.to_int]), so a space of at most 62 bits
   keeps its order and every interval test is an int compare. *)
type peer = { paddr : int; pid : int }

(* a node's maintenance rounds as the closures its timers fire, built once
   by [start] instead of once a round *)
type ticks = { stabilize : unit -> unit; fix_fingers : unit -> unit; check_pred : unit -> unit }

let no_ticks = { stabilize = ignore; fix_fingers = ignore; check_pred = ignore }

type state = {
  addr : int;
  id : Id.t;
  key : int;
  mutable pred : peer option;
  mutable succs : peer list; (* head = immediate successor; never empty once live *)
  fingers : peer option array;
  mutable next_finger : int;
  mutable anchor : int;
      (* a long-lived re-entry point (the bootstrap peer): a node that loses
         its whole successor list to failures/loss re-joins through it
         instead of staying marooned in a self-ring *)
  mutable stabilize_rounds : int;
  mutable succ_suspect : int;
      (* consecutive stabilize timeouts against the current successor; a
         single lost reply must not expunge a healthy peer *)
  mutable ticks : ticks;
}

(* what the rings of one protocol instance share *)
type shared = {
  cfg : config;
  eng : Engine.t;
  bits : int;
  mask : int; (* 2^bits - 1: finger starts wrap with it *)
  mutable rings : t array; (* every ring, index 0 the global one; set by [create] *)
  mutable scale : float; (* current maintenance-interval multiplier, >= 1 *)
  mutable stabilize_delay : float;
  mutable fix_fingers_delay : float;
  mutable check_pred_delay : float;
      (* the intervals times [scale], recomputed only when it moves: a
         product computed every round is a float boxed every round *)
  mutable probing : bool; (* fingerprint probe loop started *)
  mutable maint_stabilize : int;
  mutable maint_notify : int;
  mutable maint_fix_fingers : int;
  mutable maint_check_pred : int;
  mutable maint_duty : int;
  ts : Obs.Timeseries.t;
  ts_members : Obs.Timeseries.series;
  ts_joins : Obs.Timeseries.series;
  ts_join_done : Obs.Timeseries.series;
  ts_fails : Obs.Timeseries.series;
  ts_maint : Obs.Timeseries.series;
  ts_scale : Obs.Timeseries.series;
  ts_stable : Obs.Timeseries.series;
}

and t = {
  sh : shared;
  nodes : (int, state) Hashtbl.t;
  mutable sorted : state array; (* every node, by address, in [0, count) *)
  mutable count : int;
  stab : Simnet.Stability.t;
  index : int;
}

let create ?(ts = Obs.Timeseries.disabled) ~prefix ~rings cfg eng =
  let bits = Id.bits cfg.space in
  if bits > 62 then
    invalid_arg
      (Printf.sprintf "Ring.create: a %d-bit space is wider than the 62 bits an int key holds" bits);
  let series make name = make ts (prefix ^ "." ^ name) in
  let sh =
    {
      cfg;
      eng;
      bits;
      mask = (1 lsl bits) - 1;
      rings = [||];
      scale = 1.0;
      stabilize_delay = stabilize_every;
      fix_fingers_delay = fix_fingers_every;
      check_pred_delay = check_pred_every;
      probing = false;
      maint_stabilize = 0;
      maint_notify = 0;
      maint_fix_fingers = 0;
      maint_check_pred = 0;
      maint_duty = 0;
      ts;
      ts_members = series Obs.Timeseries.gauge "members";
      ts_joins = series Obs.Timeseries.counter "joins";
      ts_join_done = series Obs.Timeseries.counter "joins_completed";
      ts_fails = series Obs.Timeseries.counter "fails";
      ts_maint = series Obs.Timeseries.counter "maint.ops";
      ts_scale = series Obs.Timeseries.gauge "maint.scale";
      ts_stable = series Obs.Timeseries.gauge "stable";
    }
  in
  sh.rings <-
    Array.init rings (fun index ->
        {
          sh;
          nodes = Hashtbl.create 64;
          sorted = [||];
          count = 0;
          stab = Simnet.Stability.create ~k:stability_k ();
          index;
        });
  sh.rings

(* Circle membership on keys, with Id's conventions: (a, a) is the circle
   minus a, and (a, a] the whole circle. *)
let[@inline] in_oo (x : int) ~lo ~hi =
  if lo < hi then lo < x && x < hi else if lo > hi then lo < x || x < hi else x <> lo

let[@inline] in_oc (x : int) ~lo ~hi =
  if lo < hi then lo < x && x <= hi else if lo > hi then lo < x || x <= hi else true

(* [s] into the address index: the first position whose address is not
   below its own, taking the place of a node of the same address *)
let insert_sorted r s =
  let lo = ref 0 and hi = ref r.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if r.sorted.(mid).addr < s.addr then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i < r.count && r.sorted.(i).addr = s.addr then r.sorted.(i) <- s
  else begin
    if r.count = Array.length r.sorted then begin
      let grown = Array.make (max 16 (2 * r.count)) s in
      Array.blit r.sorted 0 grown 0 r.count;
      r.sorted <- grown
    end;
    Array.blit r.sorted i r.sorted (i + 1) (r.count - i);
    r.sorted.(i) <- s;
    r.count <- r.count + 1
  end

let add r ~addr ~id =
  let s =
    {
      addr;
      id;
      key = Id.to_int r.sh.cfg.space id;
      pred = None;
      succs = [];
      fingers = Array.make r.sh.bits None;
      next_finger = 0;
      anchor = addr;
      stabilize_rounds = 0;
      succ_suspect = 0;
      ticks = no_ticks;
    }
  in
  Hashtbl.replace r.nodes addr s;
  insert_sorted r s;
  s

let find r addr = Hashtbl.find r.nodes addr
let mem r addr = Hashtbl.mem r.nodes addr
let engine r = r.sh.eng
let config r = r.sh.cfg
let stability r = r.stab
let scale r = r.sh.scale

let set_scale sh scale =
  if scale <> sh.scale then begin
    sh.scale <- scale;
    sh.stabilize_delay <- stabilize_every *. scale;
    sh.fix_fingers_delay <- fix_fingers_every *. scale;
    sh.check_pred_delay <- check_pred_every *. scale
  end

(* one maintenance RPC initiated (stabilize ask, notify, finger fix, pred
   check, protocol duty) — the unit the bandwidth-overhead series counts *)
let maint sh field =
  (match field with
  | `Stabilize -> sh.maint_stabilize <- sh.maint_stabilize + 1
  | `Notify -> sh.maint_notify <- sh.maint_notify + 1
  | `Fix -> sh.maint_fix_fingers <- sh.maint_fix_fingers + 1
  | `Check -> sh.maint_check_pred <- sh.maint_check_pred + 1
  | `Duty -> sh.maint_duty <- sh.maint_duty + 1);
  Obs.Timeseries.add sh.ts_maint ~at:(Engine.now sh.eng) 1.0

let count_duty r = maint r.sh `Duty

type counts = { stabilize : int; notify : int; fix_fingers : int; check_pred : int; duty : int }

let counts r =
  let sh = r.sh in
  {
    stabilize = sh.maint_stabilize;
    notify = sh.maint_notify;
    fix_fingers = sh.maint_fix_fingers;
    check_pred = sh.maint_check_pred;
    duty = sh.maint_duty;
  }

let maintenance_ops r =
  let sh = r.sh in
  sh.maint_stabilize + sh.maint_notify + sh.maint_fix_fingers + sh.maint_check_pred + sh.maint_duty

let self_peer s = { paddr = s.addr; pid = s.key }
let current_successor s = match s.succs with [] -> self_peer s | p :: _ -> p

(* --- introspection ------------------------------------------------------ *)

let successor_addr r addr = match (find r addr).succs with [] -> None | p :: _ -> Some p.paddr
let predecessor_addr r addr = Option.map (fun p -> p.paddr) (find r addr).pred
let successor_list_addrs r addr = List.map (fun p -> p.paddr) (find r addr).succs
let finger_addrs r addr = Array.map (Option.map (fun p -> p.paddr)) (find r addr).fingers

let ring_from r start =
  let guard = 2 * (Hashtbl.length r.nodes + 1) in
  let rec go addr acc n =
    if n > guard then List.rev acc
    else
      match successor_addr r addr with
      | None -> List.rev acc
      | Some s when s = start -> List.rev acc
      | Some s -> go s (s :: acc) (n + 1)
  in
  go start [ start ] 0

let live_members r =
  let acc = ref [] in
  for i = r.count - 1 downto 0 do
    let a = r.sorted.(i).addr in
    if Engine.is_alive r.sh.eng a then acc := a :: !acc
  done;
  !acc

(* --- convergence probe --------------------------------------------------- *)

(* Deterministic digest of the ring's routing state: live membership plus
   every live node's predecessor, successor list and finger table, visited
   in address order along the index. Any change a maintenance round can
   make (a learned successor, an expunged peer, a filled finger, a death)
   moves it. It allocates nothing. *)
let fingerprint r =
  let open Simnet.Stability in
  let acc = ref fp_init in
  for i = 0 to r.count - 1 do
    let s = r.sorted.(i) in
    if Engine.is_alive r.sh.eng s.addr then begin
      let a = fp_add !acc s.addr in
      let a = fp_add a (match s.pred with None -> -1 | Some p -> p.paddr) in
      let a = List.fold_left (fun acc p -> fp_add acc p.paddr) a s.succs in
      let a = fp_add a (-2) in
      acc :=
        Array.fold_left
          (fun acc f -> fp_add acc (match f with None -> -1 | Some p -> p.paddr))
          a s.fingers
    end
  done;
  !acc

(* Fixed-cadence convergence probe (a god-event loop, so it outlives any
   single node and sends no messages): observe every ring's fingerprint,
   then drive the adaptive backoff — double the maintenance-interval
   multiplier while every ring is stable, snap it back to 1 the moment any
   of them changes. The probe cadence itself is never scaled: it bounds
   detection latency. *)
let rec probe rings =
  let sh = rings.(0).sh in
  let at = Engine.now sh.eng in
  Array.iter (fun r -> Simnet.Stability.observe r.stab ~at ~fingerprint:(fingerprint r)) rings;
  let all_stable = Array.for_all (fun r -> Simnet.Stability.is_stable r.stab) rings in
  if sh.cfg.adaptive then
    set_scale sh (if all_stable then Float.min backoff_max (sh.scale *. 2.0) else 1.0);
  Obs.Timeseries.set sh.ts_scale ~at sh.scale;
  Obs.Timeseries.set sh.ts_stable ~at (if all_stable then 1.0 else 0.0);
  Engine.schedule sh.eng ~delay:stabilize_every (fun () -> probe rings)

(* Lifecycle events are rare relative to messages, so counting live members
   on each one is cheap enough for the membership gauge — when anyone is
   collecting it. *)
let census sh r ~at extra =
  if Obs.Timeseries.enabled sh.ts then begin
    let count = ref 0 in
    for i = 0 to r.count - 1 do
      if Engine.is_alive sh.eng r.sorted.(i).addr then incr count
    done;
    Obs.Timeseries.set sh.ts_members ~at (float_of_int !count);
    match extra with Some f -> f at | None -> ()
  end

let lifecycle ?census:extra rings event =
  let sh = rings.(0).sh in
  let at = Engine.now sh.eng in
  Array.iter (fun r -> Simnet.Stability.perturb r.stab ~at) rings;
  set_scale sh 1.0;
  if not sh.probing then begin
    sh.probing <- true;
    Engine.schedule sh.eng ~delay:stabilize_every (fun () -> probe rings)
  end;
  (match event with
  | `Spawn -> ()
  | `Join -> Obs.Timeseries.add sh.ts_joins ~at 1.0
  | `Fail -> Obs.Timeseries.add sh.ts_fails ~at 1.0);
  census sh rings.(0) ~at extra

let joined ?census:extra rings =
  let sh = rings.(0).sh in
  let at = Engine.now sh.eng in
  Obs.Timeseries.add sh.ts_join_done ~at 1.0;
  if Option.is_some extra then census sh rings.(0) ~at extra

(* --- message plumbing ------------------------------------------------- *)

(* Request/response with timeout. [service] runs at [dst] against its node
   state and its response travels back in a second message. A timer at the
   requester fires [timeout] if the response has not arrived; the response
   cancels it. [kind] labels the request span for the netspan tracer; the
   response leg is always a [Reply] (and a causal child of the request). *)
let ask r ~kind ~src ~dst ~(service : state -> 'a) ~(ok : 'a -> unit) ~(timeout : unit -> unit) =
  let pending = ref Engine.no_timer in
  Engine.send r.sh.eng ~kind ~src ~dst (fun () ->
      match Hashtbl.find r.nodes dst with
      | exception Not_found -> ()
      | s ->
          let response = service s in
          Engine.send r.sh.eng ~kind:Netspan.Reply ~src:dst ~dst:src (fun () ->
              if Engine.settle r.sh.eng pending then ok response));
  pending :=
    Engine.timer r.sh.eng ~node:src ~delay:r.sh.cfg.rpc_timeout (fun () ->
        if Engine.settle r.sh.eng pending then timeout ())

(* Split-ring healing: parallel rings (formed under heavy loss or
   simultaneous joins) never merge through stabilize alone, because no
   notify crosses rings. Periodically each node asks its anchor's ring for
   its own successor and adopts the answer when it is closer than the
   current one; since every join anchors at the same long-lived peer, that
   ring is authoritative and stray rings drain into it. *)
let anchor_crosscheck_period = 8

(* Remove a peer everywhere it appears in local state (it timed out). *)
let expunge s bad =
  s.succs <- List.filter (fun p -> p.paddr <> bad) s.succs;
  (match s.pred with Some p when p.paddr = bad -> s.pred <- None | _ -> ());
  Array.iteri
    (fun i f -> match f with Some p when p.paddr = bad -> s.fingers.(i) <- None | _ -> ())
    s.fingers

(* "no candidate yet", so that the scan below needs no option *)
let no_peer = { paddr = -1; pid = -1 }

let[@inline] same_peer p q = p == q || (p.paddr = q.paddr && p.pid = q.pid)

(* [p] when it is a hop strictly inside (self, key) closer to the key than
   [best], else [best] *)
let closer s ~key best p =
  if
    p.paddr <> s.addr
    && in_oo p.pid ~lo:s.key ~hi:key
    && (best == no_peer || in_oo p.pid ~lo:best.pid ~hi:key)
  then p
  else best

let rec closer_in s ~key best = function
  | [] -> best
  | p :: rest -> closer_in s ~key (closer s ~key best p) rest

(* Best known next hop strictly inside (self, key): scan the fingers, then
   the successor list, keeping the candidate closest to the key; fall back
   to the immediate successor. This runs on every forwarded hop, so it
   allocates nothing. *)
let closest_preceding s ~key =
  let best = ref no_peer and last = ref no_peer in
  for i = 0 to Array.length s.fingers - 1 do
    match s.fingers.(i) with
    | Some p when not (same_peer p !last) ->
        best := closer s ~key !best p;
        last := p
    | Some _ | None ->
        (* a repeat of the finger just weighed cannot change the choice;
           every finger below the gap to the successor is the successor,
           so most fingers are repeats *)
        ()
  done;
  let best = closer_in s ~key !best s.succs in
  if best == no_peer then current_successor s else best

(* --- the walk: recursive forwarding with direct reply ------------------ *)

type outcome = { owner_addr : int; owner_id : Id.t; hops : int; lower_hops : int }

(* One attempt to resolve [key] for [src], first forwarded to [via] unless
   that is -1. It walks [ring] from ring [top] down to ring [floor]. After
   it [retries] attempts are left; a negative count times none out. A
   fix-fingers query names its finger [slot] in [fingers], [src]'s table,
   and its answer or failure writes that slot; any other query has slot -1
   and calls [ok] or [failed]. *)
type query = {
  mutable ring : t;
  kind : Netspan.kind;
  src : int;
  via : int;
  key : int;
  top : int;
  floor : int;
  retries : int;
  slot : int;
  fingers : peer option array;
  ok : peer -> int -> int -> unit;
  failed : unit -> unit;
  mutable hops : int;
  mutable lower_hops : int;
  mutable timeout : Engine.handle;
}

(* the first send names the initiating site; later ones forward or reply *)
let kind_after q later = if q.hops = 0 then q.kind else later

(* the reply and the timeout each settle the query; the first acts *)
let settled q =
  q.retries < 0
  || (q.timeout != Engine.no_timer
     && (Engine.cancel q.ring.sh.eng q.timeout; q.timeout <- Engine.no_timer; true))

(* A finger that is already this peer is not boxed again. *)
let found q p =
  if q.slot < 0 then q.ok p q.hops q.lower_hops
  else
    match q.fingers.(q.slot) with
    | Some f when same_peer f p -> ()
    | _ -> q.fingers.(q.slot) <- Some p

let not_found q = if q.slot < 0 then q.failed () else q.fingers.(q.slot) <- None

let answer q s p =
  Engine.send q.ring.sh.eng ~kind:(kind_after q Netspan.Reply) ~src:s.addr ~dst:q.src (fun () ->
      if settled q then found q p)

(* At [s]: forward to the closest preceding peer until the key lies in
   (s, successor] on the current ring. There, answer with that successor on
   the floor ring; above it, answer early with s's global successor when
   that owns the key, else descend one ring at s. *)
let rec route q s =
  let succ = current_successor s in
  if in_oc q.key ~lo:s.key ~hi:succ.pid || succ.paddr = s.addr then begin
    if q.ring.index = q.floor then answer q s succ
    else
      let g = current_successor (Hashtbl.find q.ring.sh.rings.(0).nodes s.addr) in
      if g.paddr <> s.addr && in_oc q.key ~lo:s.key ~hi:g.pid then answer q s g
      else begin
        q.ring <- q.ring.sh.rings.(q.ring.index - 1);
        route q (Hashtbl.find q.ring.nodes s.addr)
      end
  end
  else forward q ~from:s.addr (closest_preceding s ~key:q.key).paddr

and forward q ~from dst =
  if q.ring.index > 0 then q.lower_hops <- q.lower_hops + 1;
  Engine.send q.ring.sh.eng ~kind:(kind_after q Netspan.Forward) ~src:from ~dst (fun () ->
      match Hashtbl.find q.ring.nodes dst with
      | exception Not_found -> ()
      | s ->
          q.hops <- q.hops + 1;
          route q s)

(* Start the walk, then arm [src]'s timeout: it re-issues the query from
   the top ring or gives up. *)
let rec attempt q =
  let r = q.ring in
  (if q.via >= 0 then forward q ~from:q.src q.via
   else match Hashtbl.find r.nodes q.src with exception Not_found -> () | s -> route q s);
  if q.retries >= 0 then
    q.timeout <-
      Engine.timer r.sh.eng ~node:q.src ~delay:r.sh.cfg.rpc_timeout (fun () ->
          if settled q then
            if q.retries = 0 then not_found q
            else
              let ring = q.ring.sh.rings.(q.top) in
              attempt { q with ring; retries = q.retries - 1; hops = 0; lower_hops = 0 })

let issue ring ~kind ~src ~via ~key ~floor ~retries ~slot ~fingers ~ok ~failed =
  let top = ring.index and timeout = Engine.no_timer in
  attempt
    {
      ring;
      kind;
      src;
      via;
      key;
      top;
      floor;
      retries;
      slot;
      fingers;
      ok;
      failed;
      hops = 0;
      lower_hops = 0;
      timeout;
    }

(* a query that answers to [ok] or [failed] *)
let call ring ~kind ~src ~via ~key ~floor ~retries ~ok ~failed =
  issue ring ~kind ~src ~via ~key ~floor ~retries ~slot:(-1) ~fingers:[||] ~ok ~failed

let key_of r id = Id.to_int r.sh.cfg.space id

let lookup rings ~origin ~key k =
  let top = rings.(Array.length rings - 1) in
  let space = top.sh.cfg.space in
  call top ~kind:Netspan.Lookup ~src:origin ~via:(-1) ~key:(key_of top key) ~floor:0
    ~retries:lookup_retries
    ~ok:(fun p hops lower_hops ->
      k (Some { owner_addr = p.paddr; owner_id = Id.of_int space p.pid; hops; lower_hops }))
    ~failed:(fun () -> k None)

let find_successor r ~kind ~src ~key ~retries ~ok ~failed =
  call r ~kind ~src ~via:(-1) ~key:(key_of r key) ~floor:r.index ~retries ~ok ~failed

let find_successor_via r ~kind ~src ~via ~key ~retries ~ok ~failed =
  call r ~kind ~src ~via ~key:(key_of r key) ~floor:r.index ~retries ~ok ~failed

(* --- periodic maintenance --------------------------------------------- *)

(* an entry of [l] before its suffix [cell] has address [addr] *)
let rec earlier l cell addr =
  l != cell && (match l with p :: l -> p.paddr = addr || earlier l cell addr | [] -> false)

(* An entry that shares its address with an earlier one is dropped whether
   that one was kept or not: a dropped twin was us or dead, and so is this
   one. So no set of kept addresses is needed. *)
let rec keep_succs eng s l cell n =
  match cell with
  | [] -> []
  | _ when n <= 0 -> []
  | p :: rest ->
      if p.paddr = s.addr || earlier l cell p.paddr || not (Engine.is_alive eng p.paddr) then
        keep_succs eng s l rest n
      else p :: keep_succs eng s l rest (n - 1)

(* Successor-list hygiene: drop ourselves, dedup by address (keeping the
   first = closest occurrence), cap at the configured length. Entries that
   are already gone are dropped at adoption (a quick liveness ping in a
   real deployment): a dead entry adopted from a neighbour's stale list
   would poison closest_preceding from the tail, where no stabilize
   timeout ever examines it — lists heal head-first only, and in a small
   ring that can wedge routing permanently. *)
let truncate_succs r s l = keep_succs r.sh.eng s l l r.sh.cfg.succ_list_len

let rec stabilize r s =
  let sh = r.sh in
  let succ = current_successor s in
  if succ.paddr = s.addr then begin
    (* self-ring: adopt our predecessor as successor once one shows up;
       failing that, re-enter the ring through the anchor *)
    (match s.pred with
    | Some p when p.paddr <> s.addr -> s.succs <- [ p ]
    | _ ->
        if s.anchor <> s.addr && Engine.is_alive sh.eng s.anchor then begin
          maint sh `Stabilize;
          call r ~kind:Netspan.Stabilize ~src:s.addr ~via:s.anchor ~key:s.key ~floor:r.index
            ~retries:(-1) ~failed:ignore ~ok:(fun p _ _ ->
              if (current_successor s).paddr = s.addr && p.paddr <> s.addr then s.succs <- [ p ])
        end);
    schedule_stabilize r s
  end
  else begin
    maint sh `Stabilize;
    ask r ~kind:Netspan.Stabilize ~src:s.addr ~dst:succ.paddr
      ~service:(fun ss -> (ss.pred, self_peer ss :: ss.succs))
      ~ok:(fun (spred, slist) ->
        s.succ_suspect <- 0;
        (match spred with
        | Some x when x.paddr <> s.addr && in_oo x.pid ~lo:s.key ~hi:succ.pid ->
            (* a closer successor exists between us and our successor *)
            s.succs <- truncate_succs r s (x :: slist)
        | _ ->
            (* refresh our successor list from the successor's *)
            s.succs <- truncate_succs r s slist);
        s.stabilize_rounds <- s.stabilize_rounds + 1;
        if
          s.stabilize_rounds mod anchor_crosscheck_period = 0
          && s.anchor <> s.addr
          && Engine.is_alive sh.eng s.anchor
        then begin
          maint sh `Stabilize;
          call r ~kind:Netspan.Stabilize ~src:s.addr ~via:s.anchor ~key:s.key ~floor:r.index
            ~retries:(-1) ~failed:ignore ~ok:(fun p _ _ ->
              let cur = current_successor s in
              if
                p.paddr <> s.addr
                && (cur.paddr = s.addr || in_oo p.pid ~lo:s.key ~hi:cur.pid)
              then s.succs <- truncate_succs r s (p :: s.succs))
        end;
        let new_succ = current_successor s in
        (* notify: we believe we are their predecessor *)
        maint sh `Notify;
        Engine.send sh.eng ~kind:Netspan.Notify ~src:s.addr ~dst:new_succ.paddr (fun () ->
            match Hashtbl.find r.nodes new_succ.paddr with
            | exception Not_found -> ()
            | ss -> (
                let candidate = self_peer s in
                match ss.pred with
                | None -> ss.pred <- Some candidate
                | Some p when in_oo candidate.pid ~lo:p.pid ~hi:ss.key ->
                    ss.pred <- Some candidate
                | Some _ -> ()));
        schedule_stabilize r s)
      ~timeout:(fun () ->
        (* only declare the successor dead after two consecutive silent
           rounds — one lost reply is routine under message loss *)
        s.succ_suspect <- s.succ_suspect + 1;
        if s.succ_suspect >= 2 && (current_successor s).paddr = succ.paddr then begin
          s.succ_suspect <- 0;
          expunge s succ.paddr;
          if s.succs = [] then s.succs <- [ self_peer s ]
        end;
        schedule_stabilize r s)
  end

and schedule_stabilize r s =
  ignore (Engine.timer r.sh.eng ~node:s.addr ~delay:r.sh.stabilize_delay s.ticks.stabilize)

let no_ok _ _ _ = ()

(* Each query answers into its finger slot. An unresolvable finger is
   cleared rather than kept as a possibly-dead entry steering
   closest_preceding into a black hole: with the slot empty, routing falls
   back to lower fingers and the successor list until a later round
   re-resolves it. *)
let fix_fingers r s =
  let bits = r.sh.bits in
  for _ = 1 to min fingers_per_round bits do
    let i = s.next_finger in
    s.next_finger <- (s.next_finger + 1) mod bits;
    maint r.sh `Fix;
    issue r ~kind:Netspan.Fix_fingers ~src:s.addr ~via:(-1)
      ~key:((s.key + (1 lsl i)) land r.sh.mask)
      ~floor:r.index ~retries:0 ~slot:i ~fingers:s.fingers ~ok:no_ok ~failed:ignore
  done;
  ignore (Engine.timer r.sh.eng ~node:s.addr ~delay:r.sh.fix_fingers_delay s.ticks.fix_fingers)

let check_predecessor r s =
  (match s.pred with
  | None -> ()
  | Some p ->
      if p.paddr <> s.addr then begin
        maint r.sh `Check;
        ask r ~kind:Netspan.Check_pred ~src:s.addr ~dst:p.paddr
          ~service:(fun _ -> ())
          ~ok:(fun () -> ())
          ~timeout:(fun () ->
            match s.pred with
            | Some q when q.paddr = p.paddr -> s.pred <- None
            | _ -> ())
      end);
  ignore (Engine.timer r.sh.eng ~node:s.addr ~delay:r.sh.check_pred_delay s.ticks.check_pred)

let start r s =
  s.ticks <-
    {
      stabilize = (fun () -> stabilize r s);
      fix_fingers = (fun () -> fix_fingers r s);
      check_pred = (fun () -> check_predecessor r s);
    };
  schedule_stabilize r s;
  ignore (Engine.timer r.sh.eng ~node:s.addr ~delay:fix_fingers_every s.ticks.fix_fingers);
  ignore (Engine.timer r.sh.eng ~node:s.addr ~delay:check_pred_every s.ticks.check_pred)

let join r s ~bootstrap ~joined =
  let rec attempt n =
    (* route the join query through the bootstrap node *)
    call r ~kind:Netspan.Join ~src:s.addr ~via:bootstrap ~key:s.key ~floor:r.index ~retries:0
      ~ok:(fun p _ _ ->
        s.succs <- [ p ];
        joined ())
      ~failed:(fun () ->
        (* a node that never joins is lost forever: keep retrying, with a
           longer pause once the initial retry budget is spent *)
        let backoff = if n > 0 then 0.0 else 4.0 *. r.sh.cfg.rpc_timeout in
        ignore (Engine.timer r.sh.eng ~node:s.addr ~delay:backoff (fun () -> attempt (max 0 (n - 1)))))
  in
  attempt lookup_retries
