type hop = Routing.hop = { from_node : int; to_node : int; latency : float; layer : int }

type result = Routing.result = {
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

let route ?trace net lat ~origin ~key = Routable.route ?trace (Routable.make ~net ~lat) ~origin ~key
let route_hops_only net ~origin ~key =
  Routable.route_hops_only (Routable.of_network net) ~origin ~key
