let min_hosts = 3000
let min_degree = 2
let regions = 4

(* probability a new link prefers a same-region peer *)
let local_bias = 0.75

(* Link delays in ms: a floor plus a Pareto tail, capped; intra-region
   links are cheap, inter-region links expensive. *)
let intra_delay_floor = 1.5
let intra_delay_scale = 4.0
let intra_delay_cap = 18.0
let inter_delay_floor = 90.0
let inter_delay_scale = 40.0
let inter_delay_cap = 300.0
let delay_shape = 1.4
let host_access_delay = 1.0

let link_delay rng ~same_region =
  if same_region then
    Float.min intra_delay_cap
      (intra_delay_floor +. Prng.Dist.pareto rng ~shape:delay_shape ~scale:intra_delay_scale)
  else
    Float.min inter_delay_cap
      (inter_delay_floor +. Prng.Dist.pareto rng ~shape:delay_shape ~scale:inter_delay_scale)

let router_count ~hosts = max 200 (min 1500 (int_of_float (0.125 *. float_of_int hosts)))

let generate ?backend ?pool ~hosts rng =
  if hosts < min_hosts then
    invalid_arg
      (Printf.sprintf "Inet.generate: the Inet model needs at least %d hosts (got %d)" min_hosts
         hosts);
  let nr = router_count ~hosts in
  let region = Array.init nr (fun _ -> Prng.Rng.int rng regions) in
  let core = min_degree + 1 in
  let b = Graph.builder nr in
  (* endpoint multiset: picking a uniform element = degree-proportional
     router (the classic O(1) preferential-attachment trick). Real AS graphs
     peer mostly regionally, so with probability [local_bias] a newcomer
     keeps resampling until it finds a same-region target — that regional
     structure is exactly what distributed binning quantises. *)
  let ep = Array.make ((2 * nr * min_degree) + (core * core)) 0 in
  let ep_len = ref 0 in
  let add_endpoint v =
    ep.(!ep_len) <- v;
    incr ep_len
  in
  for u = 0 to core - 1 do
    for v = u + 1 to core - 1 do
      Graph.add_edge b u v (link_delay rng ~same_region:(region.(u) = region.(v)));
      add_endpoint u;
      add_endpoint v
    done
  done;
  for v = core to nr - 1 do
    let wired = ref 0 in
    let attempts = ref 0 in
    while !wired < min_degree && !attempts < 400 do
      incr attempts;
      let want_local = Prng.Rng.float rng 1.0 < local_bias in
      let target =
        if want_local then begin
          (* bounded resampling for a same-region, degree-proportional peer *)
          let rec pick k =
            let c = ep.(Prng.Rng.int rng !ep_len) in
            if region.(c) = region.(v) || k = 0 then c else pick (k - 1)
          in
          pick 25
        end
        else ep.(Prng.Rng.int rng !ep_len)
      in
      if target <> v && not (Graph.has_edge b v target) then begin
        Graph.add_edge b v target (link_delay rng ~same_region:(region.(v) = region.(target)));
        add_endpoint v;
        add_endpoint target;
        incr wired
      end
    done
  done;
  let graph = Graph.freeze b in
  let host_router = Array.init hosts (fun _ -> Prng.Rng.int rng nr) in
  let host_access = Array.make hosts host_access_delay in
  Latency.create ?backend ?pool ~router_graph:graph ~host_router ~host_access ()

let degree_histogram g =
  let tbl = Hashtbl.create 64 in
  for v = 0 to Graph.vertex_count g - 1 do
    let d = Graph.degree g v in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
