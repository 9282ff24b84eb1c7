let m = 4
let plane_size = 1000.0
let plane_speed = 6.0
let delay_floor = 1.0

(* locality of attachment: a degree-proportional candidate at distance [d]
   is accepted with probability [exp (-d / (waxman_scale * plane_size))] —
   BRITE's Waxman factor *)
let waxman_scale = 0.08
let host_access_delay = 1.0

let router_count ~hosts = max 100 (min 1500 (int_of_float (0.125 *. float_of_int hosts)))

let generate ?backend ?pool ~hosts rng =
  if hosts < 1 then invalid_arg "Brite.generate: need at least one host";
  let nr = router_count ~hosts in
  let xs = Array.init nr (fun _ -> Prng.Rng.float rng plane_size) in
  let ys = Array.init nr (fun _ -> Prng.Rng.float rng plane_size) in
  let dist u v =
    let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
    sqrt ((dx *. dx) +. (dy *. dy))
  in
  let delay u v = delay_floor +. (dist u v /. plane_speed) in
  let lambda = waxman_scale *. plane_size in
  let core = m + 1 in
  let b = Graph.builder nr in
  let ep = Array.make ((2 * nr * m) + (core * core)) 0 in
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
    while !wired < m && !attempts < 600 do
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
  let host_access = Array.make hosts host_access_delay in
  Latency.create ?backend ?pool ~router_graph:graph ~host_router ~host_access ()
