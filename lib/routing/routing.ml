module Id = Hashid.Id

type hop = { from_node : int; to_node : int; latency : float; layer : int }

type result = {
  origin : int;
  key : Hashid.Id.t;
  destination : int;
  hops : hop list;
  hop_count : int;
  latency : float;
  hops_per_layer : int array;
  latency_per_layer : float array;
  finished_at_layer : int;
}

type policy = {
  rpc_timeout_ms : float;
  max_retries : int;
  backoff_base_ms : float;
  backoff_mult : float;
}

let default_policy =
  { rpc_timeout_ms = 500.0; max_retries = 2; backoff_base_ms = 50.0; backoff_mult = 2.0 }

let attempt_delay p k =
  if k = 0 then p.rpc_timeout_ms
  else
    let backoff = p.backoff_base_ms *. (p.backoff_mult ** float_of_int (k - 1)) in
    Float.min backoff p.rpc_timeout_ms +. p.rpc_timeout_ms

type attempt = {
  outcome : result option;
  retries : int;
  timeouts : int;
  fallbacks : int;
  layer_escapes : int;
  penalty_ms : float;
}

let num_dist sp a key =
  let d = Id.distance_cw sp a key in
  Float.min d (1.0 -. d)

module type ROUTABLE = sig
  type t

  val name : string
  val size : t -> int
  val host : t -> int -> int
  val owner_of_key : t -> key:Hashid.Id.t -> int
  val live_owner : t -> is_alive:(int -> bool) -> key:Hashid.Id.t -> int option
  val route : ?trace:Obs.Trace.t -> t -> origin:int -> key:Hashid.Id.t -> result
  val route_hops_only : t -> origin:int -> key:Hashid.Id.t -> int * int

  val route_resilient :
    ?trace:Obs.Trace.t ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    attempt
end

module type BASE = sig
  type t

  val name : string
  val layered_name : string
  val size : t -> int
  val host : t -> int -> int
  val link_latency : t -> int -> int -> float
  val guard : t -> int
  val owner_of_key : t -> key:Hashid.Id.t -> int
  val live_owner : t -> is_alive:(int -> bool) -> key:Hashid.Id.t -> int option
  val step : t -> cur:int -> owner:int -> key:Hashid.Id.t -> int
  val candidates : t -> cur:int -> owner:int -> key:Hashid.Id.t -> int list
  val window : t -> cur:int -> int list
  val covers : t -> cur:int -> upto:int -> owner:int -> key:Hashid.Id.t -> bool

  type layer

  val make_layer : t -> rings:int array list -> layer
  val ring_step : t -> layer -> cur:int -> owner:int -> key:Hashid.Id.t -> int
  val ring_candidates : t -> layer -> cur:int -> owner:int -> key:Hashid.Id.t -> int list
  val ring_window : t -> layer -> cur:int -> int list
  val early_finish : t -> cur:int -> owner:int -> key:Hashid.Id.t -> int option
end

module type S = sig
  include BASE

  val route : ?trace:Obs.Trace.t -> t -> origin:int -> key:Hashid.Id.t -> result
  val route_hops_only : t -> origin:int -> key:Hashid.Id.t -> int * int

  val route_resilient :
    ?trace:Obs.Trace.t ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    attempt
end

(* a fault-free walk past its step budget, [BASE.guard] *)
let diverged algo ~layer =
  failwith (Printf.sprintf "%s: walk exceeded its step budget in layer %d" algo layer)

module Walk (B : BASE) = struct
  let algo layers = if Array.length layers = 0 then B.name else B.layered_name

  (* What a full route records beyond the per-layer hop tally. [total]
     accumulates in event order — link latencies and, on a failure-aware
     walk, probe delays. *)
  type record = {
    trace : Obs.Trace.t;
    traced : bool;
    lid : int;
    lat : float array;
    total : float array;
    mutable count : int;
    mutable path : hop list;  (* newest first *)
  }

  let start trace layers ~origin ~key =
    let traced = Obs.Trace.enabled trace in
    let lid =
      if traced then Obs.Trace.start trace ~algo:(algo layers) ~origin ~key:(Id.to_hex key) else 0
    in
    let lat = Array.make (Array.length layers + 1) 0.0 in
    { trace; traced; lid; lat; total = [| 0.0 |]; count = 0; path = [] }

  let note t per full ~layer from_node to_node =
    per.(layer - 1) <- per.(layer - 1) + 1;
    match full with
    | None -> ()
    | Some r ->
        let l = B.link_latency t from_node to_node in
        if r.traced then
          Obs.Trace.hop r.trace ~lookup:r.lid ~seq:r.count ~layer ~from_node ~to_node ~latency_ms:l;
        r.path <- { from_node; to_node; latency = l; layer } :: r.path;
        r.count <- r.count + 1;
        r.total.(0) <- r.total.(0) +. l;
        r.lat.(layer - 1) <- r.lat.(layer - 1) +. l

  let finish r ~origin ~key ~destination ~hops_per_layer ~finished_at_layer =
    let latency = r.total.(0) in
    if r.traced then
      Obs.Trace.finish r.trace ~lookup:r.lid ~destination ~hops:r.count ~latency_ms:latency
        ~finished_at_layer;
    {
      origin;
      key;
      destination;
      hops = List.rev r.path;
      hop_count = r.count;
      latency;
      hops_per_layer;
      latency_per_layer = r.lat;
      finished_at_layer;
    }

  let tally per depth =
    let n = ref 0 in
    for k = 0 to depth - 1 do
      n := !n + per.(k)
    done;
    !n

  (* ---- the fault-free walk ---------------------------------------------- *)

  (* Each loop takes at most [guard] steps: a step that never reaches the
     owner, or a ring loop that cycles, would otherwise spin forever. *)
  let rec global t layers per full ~key ~owner ~guard cur steps =
    if cur <> owner then begin
      if steps >= guard then diverged (algo layers) ~layer:1;
      let next = B.step t ~cur ~owner ~key in
      note t per full ~layer:1 cur next;
      global t layers per full ~key ~owner ~guard next (steps + 1)
    end

  (* one layer's ring loop; returns where it stops *)
  let rec ring t layers per full lr ~layer ~key ~owner ~guard cur steps =
    let next = B.ring_step t lr ~cur ~owner ~key in
    if next = cur then cur
    else begin
      if steps >= guard then diverged (algo layers) ~layer;
      note t per full ~layer cur next;
      ring t layers per full lr ~layer ~key ~owner ~guard next (steps + 1)
    end

  (* layers [layer .. 2], each followed by the owner check and the early
     exit, then the global loop; returns the layer that finished *)
  let rec descend t layers per full ~key ~owner ~guard ~layer cur =
    if layer = 1 then begin
      global t layers per full ~key ~owner ~guard cur 0;
      1
    end
    else
      let stop = ring t layers per full layers.(layer - 2) ~layer ~key ~owner ~guard cur 0 in
      if stop = owner then layer
      else
        match B.early_finish t ~cur:stop ~owner ~key with
        | Some next ->
            note t per full ~layer:1 stop next;
            layer
        | None -> descend t layers per full ~key ~owner ~guard ~layer:(layer - 1) stop

  let walk t layers per full ~origin ~key ~owner =
    let depth = Array.length layers + 1 in
    if origin = owner then depth
    else descend t layers per full ~key ~owner ~guard:(B.guard t) ~layer:depth origin

  let route ?(trace = Obs.Trace.disabled) t layers ~origin ~key =
    let owner = B.owner_of_key t ~key in
    let r = start trace layers ~origin ~key in
    let per = Array.make (Array.length layers + 1) 0 in
    let finished_at_layer = walk t layers per (Some r) ~origin ~key ~owner in
    finish r ~origin ~key ~destination:owner ~hops_per_layer:per ~finished_at_layer

  let route_hops ?into t layers ~origin ~key =
    let depth = Array.length layers + 1 in
    let per =
      match into with
      | Some a ->
          if Array.length a < depth then
            invalid_arg "Routing.Walk.route_hops: scratch buffer shorter than depth";
          Array.fill a 0 depth 0;
          a
      | None -> Array.make depth 0
    in
    let owner = B.owner_of_key t ~key in
    let finished_at = walk t layers per None ~origin ~key ~owner in
    (tally per depth, per, owner, finished_at)

  let route_hops_only t layers ~origin ~key =
    let depth = Array.length layers + 1 in
    let per = Array.make depth 0 in
    let owner = B.owner_of_key t ~key in
    ignore (walk t layers per None ~origin ~key ~owner);
    (tally per depth, owner)

  (* ---- the failure-aware walk ------------------------------------------- *)

  type faults = {
    is_alive : int -> bool;
    mutable retried : int;
    mutable timed_out : int;
    mutable fell_back : int;
    mutable escaped : int;
    mutable penalty : float;
  }

  let recover r kind ~layer ~at_node ~dead_node ~delay_ms =
    if r.traced then
      Obs.Trace.recover r.trace ~lookup:r.lid ~kind ~layer ~at_node ~dead_node ~delay_ms

  let fallback r f ~layer at dead =
    f.fell_back <- f.fell_back + 1;
    recover r Obs.Trace.Fallback ~layer ~at_node:at ~dead_node:dead ~delay_ms:0.0

  (* exhaust the full timeout + backoff schedule on a dead contact, then
     fall back *)
  let probe r f ~layer at dead =
    f.timed_out <- f.timed_out + 1;
    for k = 0 to default_policy.max_retries do
      let d = attempt_delay default_policy k in
      f.retried <- f.retried + 1;
      f.penalty <- f.penalty +. d;
      r.total.(0) <- r.total.(0) +. d;
      recover r Obs.Trace.Retry ~layer ~at_node:at ~dead_node:dead ~delay_ms:d
    done;
    fallback r f ~layer at dead

  let escape r f ~layer at =
    f.escaped <- f.escaped + 1;
    recover r Obs.Trace.Layer_escape ~layer ~at_node:at ~dead_node:at ~delay_ms:0.0

  (* the first live candidate, probing each dead one before it *)
  let rec first_live r f ~layer at = function
    | [] -> None
    | c :: rest ->
        if f.is_alive c then Some c
        else begin
          probe r f ~layer at c;
          first_live r f ~layer at rest
        end

  (* The heartbeat rule: the first live window entry stands in for the
     successor. Dead entries are known dead without a probe. *)
  let rec stand_in f = function
    | [] -> None
    | w :: rest -> if f.is_alive w then Some w else stand_in f rest

  (* forward to the stand-in [s]: each dead window entry before it is a
     fallback, charged nothing *)
  let rec forward t per r f ~layer at s = function
    | w :: rest when w <> s ->
        fallback r f ~layer at w;
        forward t per r f ~layer at s rest
    | _ -> note t per (Some r) ~layer at s

  (* the next hop when no covering stand-in ends the loop: the first live
     candidate, else the stand-in; [None] when neither exists *)
  let next_hop t per r f ~layer cur s win candidates =
    match first_live r f ~layer cur candidates with
    | Some next ->
        note t per (Some r) ~layer cur next;
        Some next
    | None -> (
        match s with
        | Some s ->
            forward t per r f ~layer cur s win;
            Some s
        | None -> None)

  let rec global_live t per r f ~key ~owner ~target ~guard cur steps =
    if cur = target then true
    else if steps >= guard then false
    else
      let win = B.window t ~cur in
      let s = stand_in f win in
      let next =
        match s with
        | Some s when B.covers t ~cur ~upto:s ~owner ~key ->
            forward t per r f ~layer:1 cur s win;
            Some s
        | _ -> next_hop t per r f ~layer:1 cur s win (B.candidates t ~cur ~owner ~key)
      in
      match next with
      | Some next -> global_live t per r f ~key ~owner ~target ~guard next (steps + 1)
      | None -> false (* locally partitioned: nothing live to forward to *)

  (* one layer's ring loop under failures; a ring with no live route (or
     past the step budget) is left early, a layer escape *)
  let rec ring_live t per r f lr ~layer ~key ~owner ~guard cur steps =
    let win = B.ring_window t lr ~cur in
    let s = stand_in f win in
    let covered = match s with Some s -> B.covers t ~cur ~upto:s ~owner ~key | None -> false in
    if covered || B.ring_step t lr ~cur ~owner ~key = cur then cur
    else
      let next =
        if steps >= guard then None
        else next_hop t per r f ~layer cur s win (B.ring_candidates t lr ~cur ~owner ~key)
      in
      match next with
      | Some next -> ring_live t per r f lr ~layer ~key ~owner ~guard next (steps + 1)
      | None ->
          escape r f ~layer cur;
          cur

  (* the early exit from a ring stop: to the covering stand-in, else to the
     substrate's own exit if it is alive; returns the new position *)
  let early_live t per r f ~key ~owner stop =
    let win = B.window t ~cur:stop in
    match stand_in f win with
    | Some s when B.covers t ~cur:stop ~upto:s ~owner ~key ->
        forward t per r f ~layer:1 stop s win;
        s
    | _ -> (
        match B.early_finish t ~cur:stop ~owner ~key with
        | Some next when f.is_alive next ->
            note t per (Some r) ~layer:1 stop next;
            next
        | Some next ->
            probe r f ~layer:1 stop next;
            stop
        | None -> stop)

  let rec descend_live t layers per r f ~key ~owner ~target ~guard ~layer cur =
    if layer = 1 then
      if global_live t per r f ~key ~owner ~target ~guard cur 0 then Some 1 else None
    else
      let stop = ring_live t per r f layers.(layer - 2) ~layer ~key ~owner ~guard cur 0 in
      if stop = target then Some layer
      else
        let next = early_live t per r f ~key ~owner stop in
        if next = target then Some layer
        else descend_live t layers per r f ~key ~owner ~target ~guard ~layer:(layer - 1) next

  let route_resilient ?(trace = Obs.Trace.disabled) t layers ~is_alive ~origin ~key =
    if not (is_alive origin) then invalid_arg (algo layers ^ ".route_resilient: origin is dead");
    let depth = Array.length layers + 1 in
    let r = start trace layers ~origin ~key in
    let per = Array.make depth 0 in
    let f = { is_alive; retried = 0; timed_out = 0; fell_back = 0; escaped = 0; penalty = 0.0 } in
    let finished =
      match B.live_owner t ~is_alive ~key with
      | None -> None
      | Some target when target = origin -> Some depth
      | Some target ->
          (* the liveness-blind primitives decide by the flat owner *)
          let owner = B.owner_of_key t ~key in
          descend_live t layers per r f ~key ~owner ~target ~guard:(B.guard t) ~layer:depth
            origin
    in
    let pos = match r.path with h :: _ -> h.to_node | [] -> origin in
    let res =
      finish r ~origin ~key ~destination:pos ~hops_per_layer:per
        ~finished_at_layer:(Option.value finished ~default:1)
    in
    {
      outcome = Option.map (fun _ -> res) finished;
      retries = f.retried;
      timeouts = f.timed_out;
      fallbacks = f.fell_back;
      layer_escapes = f.escaped;
      penalty_ms = f.penalty;
    }
end

module Extend (B : BASE) = struct
  include B
  module W = Walk (B)

  let route ?trace t ~origin ~key = W.route ?trace t [||] ~origin ~key
  let route_hops_only t ~origin ~key = W.route_hops_only t [||] ~origin ~key

  let route_resilient ?trace t ~is_alive ~origin ~key =
    W.route_resilient ?trace t [||] ~is_alive ~origin ~key
end

module Circle = struct
  type circle = { members : int array; (* sorted by identifier, ascending *) ids : Id.t array }

  type t = {
    space : Id.space;
    circles : circle array;
    circle_of : int array; (* node -> its circle *)
    pos : int array; (* node -> its position on that circle *)
  }

  let make ~space ~id_of ~size ~rings =
    let circle_of = Array.make size 0 and pos = Array.make size 0 in
    let circles =
      Array.of_list rings
      |> Array.mapi (fun c members ->
             if Array.length members = 0 then invalid_arg "Routing.Circle.make: empty ring";
             let members = Array.copy members in
             Array.sort (fun a b -> Id.compare (id_of a) (id_of b)) members;
             Array.iteri
               (fun p node ->
                 circle_of.(node) <- c;
                 pos.(node) <- p)
               members;
             { members; ids = Array.map id_of members })
    in
    { space; circles; circle_of; pos }

  let same t a b = t.circle_of.(a) = t.circle_of.(b)

  (* position of the first member whose id is >= key, wrapping to 0 *)
  let succ_pos c ~key =
    let m = Array.length c.ids in
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Id.compare c.ids.(mid) key < 0 then lo := mid + 1 else hi := mid
    done;
    if !lo = m then 0 else !lo

  let root t ~cur ~key =
    let c = t.circles.(t.circle_of.(cur)) in
    let m = Array.length c.members in
    if m = 1 then c.members.(0)
    else begin
      let up = succ_pos c ~key in
      let down = (up + m - 1) mod m in
      let du = num_dist t.space c.ids.(up) key in
      let dd = num_dist t.space c.ids.(down) key in
      if du < dd then c.members.(up)
      else if dd < du then c.members.(down)
      else if Id.compare c.ids.(up) c.ids.(down) < 0 then c.members.(up)
      else c.members.(down)
    end

  let toward t ~cur ~key =
    let c = t.circles.(t.circle_of.(cur)) in
    let m = Array.length c.members in
    let p = t.pos.(cur) in
    let d_cw = Id.distance_cw t.space c.ids.(p) key in
    if d_cw = 0.0 then cur
    else if d_cw <= 0.5 then c.members.((p + 1) mod m)
    else c.members.((p + m - 1) mod m)
end
