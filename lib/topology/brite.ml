type params = {
  routers_per_host : float;
  m : int;
  plane_size : float;
  plane_speed : float;
  delay_floor : float;
  waxman_scale : float;
  host_access_delay : float;
}

let default_params =
  {
    routers_per_host = 0.125;
    m = 4;
    plane_size = 1000.0;
    plane_speed = 6.0;
    delay_floor = 1.0;
    waxman_scale = 0.08;
    host_access_delay = 1.0;
  }

let router_count p ~hosts = max 100 (min 1500 (int_of_float (p.routers_per_host *. float_of_int hosts)))

let generate ?(params = default_params) ?backend ?pool ~hosts rng =
  let p = params in
  if hosts < 1 then invalid_arg "Brite.generate: need at least one host";
  let nr = router_count p ~hosts in
  let xs = Array.init nr (fun _ -> Prng.Rng.float rng p.plane_size) in
  let ys = Array.init nr (fun _ -> Prng.Rng.float rng p.plane_size) in
  let dist u v =
    let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
    sqrt ((dx *. dx) +. (dy *. dy))
  in
  let delay u v = p.delay_floor +. (dist u v /. p.plane_speed) in
  let lambda = p.waxman_scale *. p.plane_size in
  let core = p.m + 1 in
  let b = Graph.builder nr in
  let ep = Array.make ((2 * nr * p.m) + (core * core)) 0 in
  let ep_len = ref 0 in
  let add_endpoint v =
    ep.(!ep_len) <- v;
    incr ep_len
  in
  for u = 0 to core - 1 do
    for v = u + 1 to core - 1 do
      Graph.add_edge b u v (delay u v);
      add_endpoint u;
      add_endpoint v
    done
  done;
  (* BRITE's incremental growth combines preferential connectivity with
     Waxman locality: a candidate drawn degree-proportionally is accepted
     with probability exp(-d / lambda), so new routers mostly wire to nearby
     well-connected ones. Without the locality factor, geometric neighbours
     would be topologically distant and no latency clustering would exist. *)
  for v = core to nr - 1 do
    let wired = ref 0 in
    let attempts = ref 0 in
    while !wired < p.m && !attempts < 600 do
      incr attempts;
      let target = ep.(Prng.Rng.int rng !ep_len) in
      let accept =
        (* force acceptance after many rejections to guarantee progress *)
        !attempts > 400
        || Prng.Rng.float rng 1.0 < exp (-.dist v target /. lambda)
      in
      if accept && target <> v && not (Graph.has_edge b v target) then begin
        Graph.add_edge b v target (delay v target);
        add_endpoint v;
        add_endpoint target;
        incr wired
      end
    done
  done;
  let graph = Graph.freeze b in
  let host_router = Array.init hosts (fun _ -> Prng.Rng.int rng nr) in
  let host_access = Array.make hosts p.host_access_delay in
  Latency.create ?backend ?pool ~router_graph:graph ~host_router ~host_access ()
