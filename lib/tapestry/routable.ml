module Id = Hashid.Id

module Base = struct
  type t = Network.t

  let name = "tapestry"
  let layered_name = "hieras-tapestry"
  let size = Network.size
  let host = Network.host
  let link_latency = Network.link_latency
  let guard t = Id.digit_count4 (Network.space t) + 8
  let owner_of_key t ~key = Network.root_of_key t key

  (* Surrogate roots are a pure function of the id set: there is no
     secondary owner a lookup can be redirected to when the root dies, so a
     dead root means no live owner — Tapestry pays for its statelessness
     under failures (the tournament's resilience column shows it). *)
  let live_owner t ~is_alive ~key =
    let root = Network.root_of_key t key in
    if is_alive root then Some root else None

  (* the key's root path is its owner's *)
  let step t ~cur ~owner ~key:_ = Network.next_on_path t ~owner ~cur
  let candidates t ~cur ~owner ~key:_ = Network.path_candidates t ~owner ~cur

  (* no heartbeat window: every dead contact is found by probing *)
  let window _ ~cur:_ = []
  let covers _ ~cur:_ ~upto:_ ~owner:_ ~key:_ = false

  (* A HIERAS ring over a Tapestry subset: members on the identifier circle,
     with prefix-group shortcuts — in-ring nodes matching one more digit of
     the key and numerically closer, proximity-closest first — and circle
     neighbors as the guaranteed-progress fallback. *)
  type layer = Routing.Circle.t

  let make_layer t ~rings =
    Routing.Circle.make ~space:(Network.space t) ~id_of:(Network.id t) ~size:(Network.size t) ~rings

  let ring_candidates t layer ~cur ~owner:_ ~key =
    let sp = Network.space t in
    let r = Network.shared_digits t cur key in
    let my = Routing.num_dist sp (Network.id t cur) key in
    let cands =
      Network.key_group t ~key ~len:(r + 1)
      |> Array.to_list
      |> List.filter (fun c ->
             c <> cur
             && Routing.Circle.same layer cur c
             && Routing.num_dist sp (Network.id t c) key < my)
      |> List.map (fun c -> (Network.link_latency t cur c, c))
      |> List.sort (fun (da, ca) (db, cb) ->
             if da <> db then Float.compare da db else Int.compare ca cb)
      |> List.map snd
    in
    let tw = Routing.Circle.toward layer ~cur ~key in
    if tw = cur || List.mem tw cands then cands else cands @ [ tw ]

  (* the walk stops at the member numerically closest to the key *)
  let ring_step t layer ~cur ~owner ~key =
    if Routing.Circle.root layer ~cur ~key = cur then cur
    else
      match ring_candidates t layer ~cur ~owner ~key with
      | next :: _ -> next
      | [] -> cur (* unreachable: [toward] makes progress off the root *)

  let ring_window _ _ ~cur:_ = []

  let early_finish _t ~cur:_ ~owner:_ ~key:_ = None
end

include Routing.Extend (Base)

let make net = net
let network (t : t) = t
