module Id = Hashid.Id

module Base = struct
  type t = { net : Network.t; lat : Topology.Latency.t option }

  let name = "chord"
  let layered_name = "hieras"
  let size t = Network.size t.net
  let host t i = Network.host t.net i

  let link_latency t a b =
    match t.lat with
    | Some lat -> Topology.Latency.host_latency lat (Network.host t.net a) (Network.host t.net b)
    | None -> invalid_arg "Chord.Routable: a hop-count view has no latency oracle"

  let guard t = 4 * (Id.bits (Network.space t.net) + Network.size t.net)
  let owner_of_key t ~key = Network.successor_of_key t.net key

  (* the first live node clockwise from the key: dead nodes' key ranges are
     absorbed by their first live successor *)
  let live_owner t ~is_alive ~key =
    let net = t.net in
    let n = Network.size net in
    let rec go node steps =
      if steps >= n then None
      else if is_alive node then Some node
      else go (Network.successor net node) (steps + 1)
    in
    go (Network.successor_of_key net key) 0

  (* the successor when it owns the key, otherwise the closest preceding
     finger (successor fallback); every hop is decided by the owner's index
     (Network's owner rule) *)
  let step t ~cur ~owner ~key:_ =
    let net = t.net in
    let succ = Network.successor net cur in
    if owner = succ then succ
    else
      let f = Network.closest_preceding_in net (Network.fingers net) cur ~owner in
      if f >= 0 then f else succ

  let candidates t ~cur ~owner ~key:_ =
    Network.preceding_candidates_in t.net (Network.fingers t.net) cur ~owner

  (* [len] successors of [cur] along [next], stopping if they wrap back to
     [cur] *)
  let chain next cur len =
    let rec go node k =
      if k = 0 then []
      else
        let s = next node in
        if s = cur then [] else s :: go s (k - 1)
    in
    go cur len

  (* the successor list *)
  let window t ~cur = chain (Network.successor t.net) cur (Network.succ_list_len t.net)

  let covers t ~cur ~upto ~owner ~key:_ = Network.key_on_arc t.net cur ~upto ~owner

  (* A HIERAS ring over a Chord member subset is Chord again. One layer
     packs all its rings (DESIGN.md §12): ring successor and predecessor as
     flat node-indexed arrays, and every ring-restricted finger table in one
     shared arena. The arena indexes the global network, so the network's
     owner-rule scans apply unchanged. *)
  type layer = { ring_succ : int array; ring_pred : int array; fingers : Finger_table.arena }

  (* Chord node indices are id-ordered, so members ascending by node index
     are ascending by identifier, as [Finger_table.pack_arena] requires. *)
  let make_layer t ~rings =
    let net = t.net in
    let n = Network.size net in
    let ring_succ = Array.make n 0 and ring_pred = Array.make n 0 in
    let ring_of = Array.make n 0 in
    let sets =
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
             { Finger_table.ids; pre = Array.map Id.prefix_int ids; nodes = members })
    in
    let fingers = Finger_table.pack_arena (Network.space net) ~sets ~set_of:(Array.get ring_of) in
    { ring_succ; ring_pred; fingers }

  (* the walk stops at the ring member that most closely precedes the key:
     no member lies strictly between it and the key *)
  let ring_step t layer ~cur ~owner ~key:_ =
    let succ = layer.ring_succ.(cur) in
    if Network.key_on_arc t.net cur ~upto:succ ~owner then cur
    else
      let f = Network.closest_preceding_in t.net layer.fingers cur ~owner in
      if f >= 0 then f else succ

  let ring_candidates t layer ~cur ~owner ~key:_ =
    Network.preceding_candidates_in t.net layer.fingers cur ~owner

  (* the ring-successor chain, as long as the successor list *)
  let ring_window t layer ~cur = chain (Array.get layer.ring_succ) cur (Network.succ_list_len t.net)

  let early_finish t ~cur ~owner ~key:_ =
    let succ = Network.successor t.net cur in
    if owner = succ then Some succ else None
end

include Routing.Extend (Base)

let make ~net ~lat = { Base.net; lat = Some lat }
let of_network net = { Base.net; lat = None }
let network (t : t) = t.Base.net
let layer_successor (layer : layer) node = layer.Base.ring_succ.(node)
let layer_predecessor (layer : layer) node = layer.Base.ring_pred.(node)
let layer_closest_preceding t (layer : layer) node ~key =
  Network.closest_preceding_in t.Base.net layer.fingers node ~owner:(owner_of_key t ~key)

let layer_preceding_candidates t (layer : layer) node ~key =
  Network.preceding_candidates_in t.Base.net layer.fingers node ~owner:(owner_of_key t ~key)

let layer_segments (layer : layer) = Array.length layer.Base.fingers.nodes

let layer_finger_table (t : t) (layer : layer) node =
  Finger_table.of_arena layer.Base.fingers ~bits:(Id.bits (Network.space t.Base.net)) node

let layer_bytes_resident (layer : layer) =
  let word = Sys.word_size / 8 in
  let arr len = (len + 1) * word in
  let n = Array.length layer.Base.ring_succ in
  arr n (* ring_succ *) + arr n (* ring_pred *) + Finger_table.arena_bytes layer.fingers
