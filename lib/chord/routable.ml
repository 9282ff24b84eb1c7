module Id = Hashid.Id

module Base = struct
  type t = { net : Network.t; lat : Topology.Latency.t }

  let name = "chord"
  let layered_name = "hieras"
  let size t = Network.size t.net
  let host t i = Network.host t.net i

  let link_latency t a b =
    Topology.Latency.host_latency t.lat (Network.host t.net a) (Network.host t.net b)

  let guard t = 4 * (Id.bits (Network.space t.net) + Network.size t.net)
  let owner_of_key t ~key = Network.successor_of_key t.net key
  let live_owner t ~is_alive ~key = Lookup.live_owner t.net ~is_alive ~key

  (* one greedy step of [Lookup.walk]: the successor when it owns the key,
     otherwise the closest preceding finger (successor fallback) *)
  let step t ~cur ~key =
    let net = t.net in
    let succ = Network.successor net cur in
    if Id.in_oc key ~lo:(Network.id net cur) ~hi:(Network.id net succ) then succ
    else
      let f = Network.closest_preceding_finger net cur ~key in
      if f >= 0 && f <> cur then f else succ

  (* the successor-list chain from [cur], stopping if it wraps — the same
     heartbeat window [Lookup.route_resilient] walks past dead successors *)
  let succ_chain net cur =
    let llen = Network.succ_list_len net in
    let rec entries i =
      if i >= llen then []
      else
        let s = Network.succ_list_nth net cur i in
        if s = cur then [] else s :: entries (i + 1)
    in
    entries 0

  let candidates t ~cur ~key =
    let net = t.net in
    let succ = Network.successor net cur in
    if Id.in_oc key ~lo:(Network.id net cur) ~hi:(Network.id net succ) then
      (* final-hop regime: the chain's first live entry is the live owner *)
      succ_chain net cur
    else
      let pc = Network.preceding_candidates net cur ~key in
      pc @ List.filter (fun s -> not (List.mem s pc)) (succ_chain net cur)

  (* A HIERAS ring over a Chord member subset is Chord again. One layer
     packs all its rings (DESIGN.md §12): ring successor and predecessor as
     flat node-indexed arrays, and every ring-restricted finger table in one
     shared arena — node [i]'s segments are
     [f_exp/f_node.(f_off.(i) .. f_off.(i+1) - 1)]. The arenas index the
     global network, so its prefix-accelerated scan applies unchanged. *)
  type layer = {
    ring_succ : int array;
    ring_pred : int array;
    f_off : int array; (* n+1 *)
    f_exp : Bytes.t;
    f_node : int array;
  }

  (* Chord node indices are id-ordered, so members ascending by node index
     are ascending by identifier, as [Finger_table.pack] requires. *)
  let make_layer t ~rings =
    let net = t.net in
    let n = Network.size net in
    let ring_succ = Array.make n 0 and ring_pred = Array.make n 0 in
    let ring_of = Array.make n 0 in
    let rings =
      Array.of_list rings
      |> Array.mapi (fun r members ->
             let m = Array.length members in
             Array.iteri
               (fun pos node ->
                 ring_of.(node) <- r;
                 ring_succ.(node) <- members.((pos + 1) mod m);
                 ring_pred.(node) <- members.((pos + m - 1) mod m))
               members;
             let ids = Array.map (Network.id net) members in
             (ids, Array.map Id.prefix_int ids, members))
    in
    let f_off, f_exp, f_node =
      Finger_table.pack_arena (Network.space net) ~size:n ~capacity:(n * 8)
        ~owner_id:(Network.id net)
        ~members:(fun i -> rings.(ring_of.(i)))
    in
    { ring_succ; ring_pred; f_off; f_exp; f_node }

  let closest_preceding t layer cur ~key =
    Network.closest_preceding_in_arena t.net ~nodes:layer.f_node ~lo:layer.f_off.(cur)
      ~hi:layer.f_off.(cur + 1) ~self:cur ~key

  (* the walk stops at the ring member that most closely precedes the key:
     no member lies strictly between it and the key *)
  let ring_step t layer ~cur ~key =
    let succ = layer.ring_succ.(cur) in
    if Id.in_oc key ~lo:(Network.id t.net cur) ~hi:(Network.id t.net succ) then cur
    else
      let f = closest_preceding t layer cur ~key in
      if f >= 0 && f <> cur then f else succ

  let preceding_candidates t layer cur ~key =
    Finger_table.preceding_candidates_arena ~nodes:layer.f_node ~lo:layer.f_off.(cur)
      ~hi:layer.f_off.(cur + 1) ~id_of:(Network.id t.net) ~self:(Network.id t.net cur) ~key

  let ring_candidates t layer ~cur ~key =
    let pc = preceding_candidates t layer cur ~key in
    (* ring-successor chain up to the network's successor-list window — the
       per-ring analogue of [Hlookup]'s resilient chain walk *)
    let rec chain node k =
      if k = 0 then []
      else
        let s = layer.ring_succ.(node) in
        if s = cur then [] else s :: chain s (k - 1)
    in
    pc @ List.filter (fun s -> not (List.mem s pc)) (chain cur (Network.succ_list_len t.net))

  let early_finish t ~cur ~key =
    let succ = Network.successor t.net cur in
    if Id.in_oc key ~lo:(Network.id t.net cur) ~hi:(Network.id t.net succ) then Some succ
    else None
end

include Routing.Extend (Base)

let make ~net ~lat = { Base.net; lat }
let network (t : t) = t.Base.net
let layer_successor (layer : layer) node = layer.Base.ring_succ.(node)
let layer_predecessor (layer : layer) node = layer.Base.ring_pred.(node)
let layer_closest_preceding t layer node ~key = Base.closest_preceding t layer node ~key
let layer_preceding_candidates t layer node ~key = Base.preceding_candidates t layer node ~key
let layer_segments (layer : layer) = Array.length layer.Base.f_node

let layer_finger_table (t : t) (layer : layer) node =
  let lo = layer.Base.f_off.(node) and hi = layer.f_off.(node + 1) in
  Finger_table.of_segments ~owner:node
    ~bits:(Id.bits (Network.space t.Base.net))
    ~exps:(Array.init (hi - lo) (fun k -> Char.code (Bytes.get layer.f_exp (lo + k))))
    ~nodes:(Array.sub layer.f_node lo (hi - lo))

let layer_bytes_resident (layer : layer) =
  let word = Sys.word_size / 8 in
  let arr len = (len + 1) * word in
  let n = Array.length layer.Base.ring_succ in
  arr n (* ring_succ *) + arr n (* ring_pred *)
  + arr (n + 1) (* f_off *)
  + (word + ((Bytes.length layer.f_exp / word) + 1) * word)
  + arr (Array.length layer.f_node)

(* The derived entry points would reproduce [Lookup]'s hop sequences, but the
   native implementations are the tested golden surface (and carry PR 5's
   exact fallback accounting) — delegate rather than re-derive. *)

let lift_flat (r : Lookup.result) : Routing.result =
  {
    origin = r.Lookup.origin;
    key = r.key;
    destination = r.destination;
    hops =
      List.map
        (fun (h : Lookup.hop) ->
          { Routing.from_node = h.from_node; to_node = h.to_node; latency = h.latency; layer = 1 })
        r.hops;
    hop_count = r.hop_count;
    latency = r.latency;
    hops_per_layer = [| r.hop_count |];
    latency_per_layer = [| r.latency |];
    finished_at_layer = 1;
  }

let lower_policy (p : Routing.policy) : Lookup.policy =
  {
    rpc_timeout_ms = p.Routing.rpc_timeout_ms;
    max_retries = p.max_retries;
    backoff_base_ms = p.backoff_base_ms;
    backoff_mult = p.backoff_mult;
    succ_window = p.succ_window;
  }

let route ?trace (t : t) ~origin ~key = lift_flat (Lookup.route ?trace t.Base.net t.Base.lat ~origin ~key)
let route_hops_only (t : t) ~origin ~key = Lookup.route_hops_only t.Base.net ~origin ~key

let route_resilient ?trace ?(policy = Routing.default_policy) (t : t) ~is_alive ~origin ~key =
  let a =
    Lookup.route_resilient ?trace ~policy:(lower_policy policy) t.Base.net t.Base.lat ~is_alive
      ~origin ~key
  in
  {
    Routing.outcome = Option.map lift_flat a.Lookup.outcome;
    retries = a.retries;
    timeouts = a.timeouts;
    fallbacks = a.fallbacks;
    layer_escapes = 0;
    penalty_ms = a.penalty_ms;
  }
