type t = {
  model : Topology.Model.kind;
  nodes : int;
  landmarks : int;
  depth : int;
  requests : int;
  seed : int;
}

let succ_list_len = 8

let paper_default =
  {
    model = Topology.Model.Transit_stub;
    nodes = 10_000;
    landmarks = 4;
    depth = 2;
    requests = 100_000;
    seed = 2003;
  }

let with_model t model = { t with model }
let with_nodes t nodes = { t with nodes }
let with_landmarks t landmarks = { t with landmarks }
let with_depth t depth = { t with depth }
let with_requests t requests = { t with requests }
let with_seed t seed = { t with seed }

let scaled t f =
  if f <= 0.0 then invalid_arg "Config.scaled: factor must be positive";
  {
    t with
    nodes = max 64 (int_of_float (float_of_int t.nodes *. f));
    requests = max 100 (int_of_float (float_of_int t.requests *. f));
  }

let network_sizes t =
  let min_n = Topology.Model.min_hosts t.model in
  let scale = float_of_int t.nodes /. 10_000.0 in
  List.init 10 (fun i -> (i + 1) * 1000)
  |> List.filter (fun n -> n >= min_n)
  |> List.map (fun n -> max 64 (int_of_float (float_of_int n *. scale)))

let table1_nodes t = max (Topology.Model.min_hosts t.model) (min t.nodes 1000)

let validate t =
  if t.nodes < 2 then Error (Printf.sprintf "--nodes must be >= 2 (got %d)" t.nodes)
  else if t.landmarks < 1 then Error (Printf.sprintf "--landmarks must be >= 1 (got %d)" t.landmarks)
  else if t.depth < 2 || t.depth > 4 then
    Error (Printf.sprintf "--depth must be between 2 and 4 (got %d)" t.depth)
  else if t.requests < 1 then Error (Printf.sprintf "--requests must be >= 1 (got %d)" t.requests)
  else Ok ()

type network = { kind : Topology.Model.kind; hosts : int; own_landmarks : bool }

let check_networks t networks =
  let fewest_routers best n =
    let r = Topology.Model.routers n.kind ~hosts:n.hosts in
    match best with Some (r', _) when r' <= r -> best | _ -> Some (r, n)
  in
  match List.find_opt (fun n -> n.hosts < Topology.Model.min_hosts n.kind) networks with
  | Some n ->
      let name = Topology.Model.name n.kind in
      Error
        (Printf.sprintf
           "the %s model needs at least %d hosts, but these settings build a %d-host %s network \
            (raise --nodes)"
           name (Topology.Model.min_hosts n.kind) n.hosts name)
  | None -> (
      match
        List.fold_left fewest_routers None (List.filter (fun n -> not n.own_landmarks) networks)
      with
      | Some (routers, n) when t.landmarks > routers ->
          Error
            (Printf.sprintf
               "--landmarks must not exceed the %d routers of the %d-host %s network these \
                settings build (got %d)"
               routers n.hosts (Topology.Model.name n.kind) t.landmarks)
      | _ -> Ok ())

let pp fmt t =
  Format.fprintf fmt "%s n=%d lm=%d depth=%d req=%d seed=%d" (Topology.Model.name t.model) t.nodes
    t.landmarks t.depth t.requests t.seed
