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
  succ_window : int;
}

let default_policy =
  { rpc_timeout_ms = 500.0; max_retries = 2; backoff_base_ms = 50.0; backoff_mult = 2.0; succ_window = 8 }

let check_policy p =
  if
    p.rpc_timeout_ms <= 0.0 || p.max_retries < 0 || p.backoff_base_ms < 0.0
    || p.backoff_mult < 1.0 || p.succ_window < 1
  then invalid_arg "Routing: ill-formed resilience policy"

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
    ?policy:policy ->
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
  val step : t -> cur:int -> key:Hashid.Id.t -> int
  val candidates : t -> cur:int -> key:Hashid.Id.t -> int list

  type layer

  val make_layer : t -> rings:int array list -> layer
  val ring_step : t -> layer -> cur:int -> key:Hashid.Id.t -> int
  val ring_candidates : t -> layer -> cur:int -> key:Hashid.Id.t -> int list
  val early_finish : t -> cur:int -> key:Hashid.Id.t -> int option
end

module type S = sig
  include BASE

  val route : ?trace:Obs.Trace.t -> t -> origin:int -> key:Hashid.Id.t -> result
  val route_hops_only : t -> origin:int -> key:Hashid.Id.t -> int * int

  val route_resilient :
    ?trace:Obs.Trace.t ->
    ?policy:policy ->
    t ->
    is_alive:(int -> bool) ->
    origin:int ->
    key:Hashid.Id.t ->
    attempt
end

module Extend (B : BASE) = struct
  include B

  let route ?(trace = Obs.Trace.disabled) t ~origin ~key =
    let owner = B.owner_of_key t ~key in
    let traced = Obs.Trace.enabled trace in
    let lid =
      if traced then Obs.Trace.start trace ~algo:B.name ~origin ~key:(Id.to_hex key) else 0
    in
    let hops = ref [] in
    let total = ref 0.0 in
    let count = ref 0 in
    let record from_node to_node =
      let l = B.link_latency t from_node to_node in
      if traced then
        Obs.Trace.hop trace ~lookup:lid ~seq:!count ~layer:1 ~from_node ~to_node ~latency_ms:l;
      hops := { from_node; to_node; latency = l; layer = 1 } :: !hops;
      total := !total +. l;
      incr count
    in
    let current = ref origin in
    let guard = B.guard t in
    while !current <> owner do
      if !count >= guard then failwith (B.name ^ ": routing did not terminate");
      let next = B.step t ~cur:!current ~key in
      record !current next;
      current := next
    done;
    if traced then
      Obs.Trace.finish trace ~lookup:lid ~destination:owner ~hops:!count ~latency_ms:!total
        ~finished_at_layer:1;
    {
      origin;
      key;
      destination = owner;
      hops = List.rev !hops;
      hop_count = !count;
      latency = !total;
      hops_per_layer = [| !count |];
      latency_per_layer = [| !total |];
      finished_at_layer = 1;
    }

  let route_hops_only t ~origin ~key =
    let owner = B.owner_of_key t ~key in
    let current = ref origin in
    let count = ref 0 in
    let guard = B.guard t in
    while !current <> owner do
      if !count >= guard then failwith (B.name ^ ": routing did not terminate");
      current := B.step t ~cur:!current ~key;
      incr count
    done;
    (!count, owner)

  let route_resilient ?(trace = Obs.Trace.disabled) ?(policy = default_policy) t ~is_alive ~origin
      ~key =
    check_policy policy;
    if not (is_alive origin) then invalid_arg (B.name ^ ".route_resilient: origin is dead");
    let traced = Obs.Trace.enabled trace in
    let lid =
      if traced then Obs.Trace.start trace ~algo:B.name ~origin ~key:(Id.to_hex key) else 0
    in
    let hops = ref [] in
    let total = ref 0.0 in
    let count = ref 0 in
    let pos = ref origin in
    let retries = ref 0 in
    let timeouts = ref 0 in
    let fallbacks = ref 0 in
    let penalty = ref 0.0 in
    let record from_node to_node =
      let l = B.link_latency t from_node to_node in
      if traced then
        Obs.Trace.hop trace ~lookup:lid ~seq:!count ~layer:1 ~from_node ~to_node ~latency_ms:l;
      hops := { from_node; to_node; latency = l; layer = 1 } :: !hops;
      total := !total +. l;
      incr count;
      pos := to_node
    in
    (* exhaust the full timeout + backoff schedule on a dead preferred contact,
       then record the fallback to the next candidate *)
    let probe at dead =
      timeouts := !timeouts + 1;
      for k = 0 to policy.max_retries do
        let d = attempt_delay policy k in
        retries := !retries + 1;
        penalty := !penalty +. d;
        total := !total +. d;
        if traced then
          Obs.Trace.recover trace ~lookup:lid ~kind:Obs.Trace.Retry ~layer:1 ~at_node:at
            ~dead_node:dead ~delay_ms:d
      done;
      fallbacks := !fallbacks + 1;
      if traced then
        Obs.Trace.recover trace ~lookup:lid ~kind:Obs.Trace.Fallback ~layer:1 ~at_node:at
          ~dead_node:dead ~delay_ms:0.0
    in
    let dest_opt =
      match B.live_owner t ~is_alive ~key with
      | None -> None
      | Some target ->
          let guard = B.guard t in
          let rec loop cur steps =
            if cur = target then Some cur
            else if steps > guard then None
            else
              let rec first_live = function
                | [] -> None
                | c :: rest ->
                    if is_alive c then Some c
                    else begin
                      probe cur c;
                      first_live rest
                    end
              in
              match first_live (B.candidates t ~cur ~key) with
              | None -> None (* locally partitioned: nothing live to forward to *)
              | Some next ->
                  record cur next;
                  loop next (steps + 1)
          in
          loop origin 1
    in
    if traced then
      Obs.Trace.finish trace ~lookup:lid
        ~destination:(Option.value ~default:!pos dest_opt)
        ~hops:!count ~latency_ms:!total ~finished_at_layer:1;
    let outcome =
      Option.map
        (fun destination ->
          {
            origin;
            key;
            destination;
            hops = List.rev !hops;
            hop_count = !count;
            latency = !total;
            hops_per_layer = [| !count |];
            latency_per_layer = [| !total |];
            finished_at_layer = 1;
          })
        dest_opt
    in
    {
      outcome;
      retries = !retries;
      timeouts = !timeouts;
      fallbacks = !fallbacks;
      layer_escapes = 0;
      penalty_ms = !penalty;
    }
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
