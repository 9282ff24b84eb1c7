module M = Layered.Make (Chord.Routable)

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

let route ?trace hnet ~origin ~key = M.route ?trace (Hnetwork.layered hnet) ~origin ~key
let route_hops_only ?into hnet ~origin ~key =
  M.route_hops ?into (Hnetwork.layered hnet) ~origin ~key
