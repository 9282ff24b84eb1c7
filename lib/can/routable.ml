module Base = struct
  type t = { net : Network.t; lat : Topology.Latency.t }

  let name = "can"
  let layered_name = "hieras-can"
  let size t = Network.size t.net
  let host t i = Network.host t.net i

  let link_latency t a b =
    Topology.Latency.host_latency t.lat (Network.host t.net a) (Network.host t.net b)

  let guard t = 4 * (Network.size t.net + 4)
  let owner_of_key t ~key = Network.owner_of_key t.net key

  let live_owner t ~is_alive ~key =
    (* ownership migrates to the live node whose zone is torus-closest to
       the key's point (lowest index on ties); with everyone alive that is
       the zone containing the point — the flat owner *)
    let point = Network.key_point t.net key in
    let n = Network.size t.net in
    let best = ref (-1) and best_d = ref infinity in
    for i = 0 to n - 1 do
      if is_alive i then begin
        let d = Zone.torus_distance (Network.zone t.net i) point in
        if d < !best_d then begin
          best := i;
          best_d := d
        end
      end
    done;
    if !best >= 0 then Some !best else None

  let step t ~cur ~owner:_ ~key = Network.greedy t.net ~point:(Network.key_point t.net key) ~cur

  (* strictly-improving neighbors, closest zone first (neighbor-list order on
     ties, so the head is exactly [Network.greedy]'s first-minimal pick) *)
  let improving net ~point ~cur =
    let my = Zone.torus_distance (Network.zone net cur) point in
    Network.neighbors net cur
    |> List.filter_map (fun v ->
           let d = Zone.torus_distance (Network.zone net v) point in
           if d < my then Some (d, v) else None)
    |> List.stable_sort (fun (da, _) (db, _) -> Float.compare da db)
    |> List.map snd

  let candidates t ~cur ~owner:_ ~key = improving t.net ~point:(Network.key_point t.net key) ~cur

  (* no heartbeat window: every dead contact is found by probing *)
  let window _ ~cur:_ = []
  let covers _ ~cur:_ ~upto:_ ~owner:_ ~key:_ = false

  (* A HIERAS ring over a CAN subset is CAN again: re-split the torus among
     the members' join points (their zones nest — fewer members, larger
     zones). A layer holds its ring CANs plus, per node, its ring and its
     index in that ring's CAN. *)
  type ring = {
    r_net : Network.t; (* node i here is r_members.(i) globally *)
    r_members : int array;
  }

  type layer = { rings : ring array; ring_of : int array; local : int array }

  let make_layer t ~rings =
    let n = Network.size t.net in
    let ring_of = Array.make n 0 and local = Array.make n 0 in
    let rings =
      Array.of_list rings
      |> Array.mapi (fun r members ->
             Array.iteri
               (fun p node ->
                 ring_of.(node) <- r;
                 local.(node) <- p)
               members;
             {
               r_net =
                 Network.of_points
                   ~hosts:(Array.map (Network.host t.net) members)
                   ~points:(Array.map (Network.point t.net) members);
               r_members = members;
             })
    in
    { rings; ring_of; local }

  (* the walk stops in the ring zone that contains the key's point *)
  let ring_step t layer ~cur ~owner:_ ~key =
    let rg = layer.rings.(layer.ring_of.(cur)) in
    let point = Network.key_point t.net key in
    let local = layer.local.(cur) in
    if Zone.contains (Network.zone rg.r_net local) point then cur
    else rg.r_members.(Network.greedy rg.r_net ~point ~cur:local)

  let ring_candidates t layer ~cur ~owner:_ ~key =
    let rg = layer.rings.(layer.ring_of.(cur)) in
    let point = Network.key_point t.net key in
    improving rg.r_net ~point ~cur:layer.local.(cur) |> List.map (fun v -> rg.r_members.(v))

  let ring_window _ _ ~cur:_ = []

  (* the generic owner check after each ring walk IS the CAN early exit:
     the layer-k zone owner's global zone may already contain the point *)
  let early_finish _t ~cur:_ ~owner:_ ~key:_ = None
end

include Routing.Extend (Base)

let make ~net ~lat = { Base.net; lat }
let network (t : t) = t.Base.net
