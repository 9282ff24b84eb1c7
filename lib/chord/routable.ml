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
     finger (successor fallback) *)
  let step t ~cur ~key =
    let net = t.net in
    let succ = Network.successor net cur in
    if Id.in_oc key ~lo:(Network.id net cur) ~hi:(Network.id net succ) then succ
    else
      let f = Network.closest_preceding_finger net cur ~key in
      if f >= 0 && f <> cur then f else succ

  let candidates t ~cur ~key = Network.preceding_candidates t.net cur ~key

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

  let covers t ~cur ~upto ~key =
    Id.in_oc key ~lo:(Network.id t.net cur) ~hi:(Network.id t.net upto)

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

  let ring_candidates t layer ~cur ~key = preceding_candidates t layer cur ~key

  (* the ring-successor chain, as long as the successor list *)
  let ring_window t layer ~cur = chain (Array.get layer.ring_succ) cur (Network.succ_list_len t.net)

  let early_finish t ~cur ~key =
    let succ = Network.successor t.net cur in
    if Id.in_oc key ~lo:(Network.id t.net cur) ~hi:(Network.id t.net succ) then Some succ
    else None
end

include Routing.Extend (Base)

let make ~net ~lat = { Base.net; lat = Some lat }
let of_network net = { Base.net; lat = None }
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
