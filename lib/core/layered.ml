(* HIERAS layering as a functor over any substrate. The layer structure —
   landmark binning, refinement chains, one ring per order string per
   layer — is built here once and handed to the substrate as one [R.layer]
   per layer; the routes are [Routing.Walk] over those layers. Over
   [Chord.Routable] the layers are the packed arenas [Hnetwork] exposes;
   over [Can.Routable] this is the paper's HIERAS-over-CAN sketch. *)

module Make (R : Routing.BASE) = struct
  type t = {
    base : R.t;
    depth : int;
    orders : string array array; (* orders.(k).(node), k = layer - 2 *)
    rings : (string, int array) Hashtbl.t array; (* rings.(k) : order -> members *)
    ring_of : int array array array; (* ring_of.(k).(node) : the node's ring members *)
    layers : R.layer array; (* layers.(k) *)
  }

  let name = R.layered_name

  let build ~base ~lat ~landmarks ~depth ?measure () =
    if depth < 2 then invalid_arg "Hieras.Make: depth must be >= 2";
    let n = R.size base in
    let measure =
      match measure with
      | Some f -> f
      | None -> fun ~host -> Binning.Landmark.measure lat landmarks ~host
    in
    let chain = Binning.Scheme.refinement_chain ~depth in
    (* one measurement vector per node, quantised once per layer *)
    let vectors = Array.init n (fun i -> measure ~host:(R.host base i)) in
    let orders =
      Array.init (depth - 1) (fun k ->
          Array.init n (fun i -> Binning.Scheme.order chain.(k) vectors.(i)))
    in
    let rings =
      Array.map
        (fun os ->
          let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
          (* prepending from n-1 downto 0 keeps members ascending by node index *)
          for i = n - 1 downto 0 do
            match Hashtbl.find_opt groups os.(i) with
            | Some l -> l := i :: !l
            | None -> Hashtbl.replace groups os.(i) (ref [ i ])
          done;
          Hashtbl.to_seq groups |> Seq.map (fun (o, l) -> (o, Array.of_list !l)) |> Hashtbl.of_seq)
        orders
    in
    let ring_of = Array.mapi (fun k os -> Array.map (Hashtbl.find rings.(k)) os) orders in
    let layers =
      Array.map (fun r -> R.make_layer base ~rings:(Hashtbl.fold (fun _ m acc -> m :: acc) r [])) rings
    in
    { base; depth; orders; rings; ring_of; layers }

  let base t = t.base
  let depth t = t.depth
  let size t = R.size t.base
  let host t i = R.host t.base i

  let check_layer t layer =
    if layer < 2 || layer > t.depth then invalid_arg "Hieras.Make: layer out of range"

  let order_of_node t ~layer node =
    check_layer t layer;
    t.orders.(layer - 2).(node)

  let ring_count t ~layer =
    check_layer t layer;
    Hashtbl.length t.rings.(layer - 2)

  let ring_orders t ~layer =
    check_layer t layer;
    Hashtbl.fold (fun o _ acc -> o :: acc) t.rings.(layer - 2) [] |> List.sort String.compare

  let ring_members t ~layer ~order =
    check_layer t layer;
    match Hashtbl.find_opt t.rings.(layer - 2) order with
    | None -> [||]
    | Some members -> Array.copy members

  let ring_size_of_node t ~layer node =
    check_layer t layer;
    Array.length t.ring_of.(layer - 2).(node)

  let layer_state t ~layer =
    check_layer t layer;
    t.layers.(layer - 2)

  let owner_of_key t ~key = R.owner_of_key t.base ~key
  let live_owner t ~is_alive ~key = R.live_owner t.base ~is_alive ~key

  module W = Routing.Walk (R)

  let route ?trace t ~origin ~key = W.route ?trace t.base t.layers ~origin ~key
  let route_hops ?into t ~origin ~key = W.route_hops ?into t.base t.layers ~origin ~key
  let route_hops_only t ~origin ~key = W.route_hops_only t.base t.layers ~origin ~key

  let route_resilient ?trace t ~is_alive ~origin ~key =
    W.route_resilient ?trace t.base t.layers ~is_alive ~origin ~key
end
