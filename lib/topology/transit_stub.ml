(* A small, dense backbone: GT-ITM transit domains are few and their
   routers richly connected, so a path crosses at most a couple of 100 ms
   transit links. This is what gives the paper its three clearly separated
   latency scales (same stub ~10 ms, same transit region ~50 ms, cross
   region >140 ms) — the structure distributed binning quantises. *)
let transit_domains = 2
let transit_per_domain = 2
let transit_routers = transit_domains * transit_per_domain

(* ms: the paper's delays, intra- and inter-transit alike 100 *)
let transit_delay = 100.0
let transit_stub_delay = 20.0
let intra_stub_delay = 5.0
let host_access_delay = 1.0

(* extra random intra-stub edges as a fraction of the domain's
   spanning-tree edge count (adds path diversity) *)
let redundancy = 0.35

(* stub domains per transit router, and routers per stub domain *)
let stub_shape ~hosts =
  if hosts <= 1500 then (3, 7)
  else if hosts <= 4000 then (6, 9)
  else if hosts <= 6500 then (9, 11)
  else (12, 13)

let routers_per_stub ~hosts = snd (stub_shape ~hosts)

let router_count ~hosts =
  let stubs_per_transit, routers_per_stub = stub_shape ~hosts in
  transit_routers + (transit_routers * stubs_per_transit * routers_per_stub)

(* Connected random graph over the vertex slice [base, base+n): a uniform
   random recursive tree plus [redundancy * (n-1)] extra random edges. *)
let connect_domain builder rng ~base ~n =
  for i = 1 to n - 1 do
    let parent = Prng.Rng.int rng i in
    Graph.add_edge builder (base + i) (base + parent) intra_stub_delay
  done;
  let extras = int_of_float (redundancy *. float_of_int (n - 1)) in
  let attempts = ref 0 in
  let added = ref 0 in
  while !added < extras && !attempts < 20 * (extras + 1) && n >= 3 do
    incr attempts;
    let u = Prng.Rng.int rng n and v = Prng.Rng.int rng n in
    if u <> v && not (Graph.has_edge builder (base + u) (base + v)) then begin
      Graph.add_edge builder (base + u) (base + v) intra_stub_delay;
      incr added
    end
  done

let generate ?backend ?pool ~hosts rng =
  if hosts < 1 then invalid_arg "Transit_stub.generate: need at least one host";
  let stubs_per_transit, routers_per_stub = stub_shape ~hosts in
  let stub_total = transit_routers * stubs_per_transit in
  let b = Graph.builder (router_count ~hosts) in
  (* transit domains are cliques: routers [d * tpd, (d+1) * tpd) *)
  for d = 0 to transit_domains - 1 do
    let base = d * transit_per_domain in
    for i = 0 to transit_per_domain - 1 do
      for j = i + 1 to transit_per_domain - 1 do
        Graph.add_edge b (base + i) (base + j) transit_delay
      done
    done
  done;
  (* two links join the two domains, each between a random router of
     either side *)
  let random_transit_router d = (d * transit_per_domain) + Prng.Rng.int rng transit_per_domain in
  for d = 0 to 1 do
    Graph.add_edge b (random_transit_router d) (random_transit_router (1 - d)) transit_delay
  done;
  (* stub domains: stub s (0-based global) attaches to transit router s / stubs_per_transit *)
  for s = 0 to stub_total - 1 do
    let base = transit_routers + (s * routers_per_stub) in
    connect_domain b rng ~base ~n:routers_per_stub;
    let transit_router = s / stubs_per_transit in
    let gateway = base + Prng.Rng.int rng routers_per_stub in
    Graph.add_edge b gateway transit_router transit_stub_delay
  done;
  let graph = Graph.freeze b in
  (* hosts on uniformly random stub routers *)
  let host_router =
    Array.init hosts (fun _ -> transit_routers + Prng.Rng.int rng (stub_total * routers_per_stub))
  in
  let host_access = Array.make hosts host_access_delay in
  Latency.create ?backend ?pool ~router_graph:graph ~host_router ~host_access ()
