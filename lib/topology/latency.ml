(* Three storage backends behind one oracle type:

   - Eager: the full router distance matrix, stored as a single flat
     row-major float array (index [src * nr + dst]) — one unboxed
     allocation instead of nr boxed rows, no per-row pointer chase.
   - Lazy: per-row once-cells filled by single-source Dijkstra on first
     touch. A row is a pure function of the frozen graph, so when two
     domains race on the same cold row both compute bit-identical arrays;
     last writer wins and every reader sees a correct row. The cells are
     [Atomic.t] so the publication itself is well-defined under domains.
   - Auto: resolved to one of the above at creation time. *)

type backend = Eager | Lazy | Auto

let backend_name = function Eager -> "eager" | Lazy -> "lazy" | Auto -> "auto"

type storage =
  | Flat of float array (* nr * nr, row-major *)
  | Rows of float array option Atomic.t array

type t = {
  graph : Graph.t;
  nr : int;
  storage : storage;
  host_router : int array;
  host_access : float array;
  hits : int array;
      (* single cell in its own allocation, so the hot-path write does not
         invalidate the cache line holding the record's read-only fields.
         Plain (non-atomic) increments: exact for sequential queries, lost
         updates possible — and harmless, it is a diagnostic — when several
         domains query concurrently. *)
}

let auto_router_threshold = 1024

let resolve backend ~nr ~host_router =
  match backend with
  | Eager | Lazy -> backend
  | Auto ->
      if nr > auto_router_threshold then Lazy
      else begin
        (* hosts covering few routers means most eager rows are dead weight:
           lookups only ever read rows of routers that host DHT nodes *)
        let seen = Array.make (max nr 1) false in
        let covered = ref 0 in
        Array.iter
          (fun r ->
            if not seen.(r) then begin
              seen.(r) <- true;
              incr covered
            end)
          host_router;
        if 2 * !covered < nr then Lazy else Eager
      end

let create ?(backend = Eager) ?pool ~router_graph ~host_router ~host_access () =
  if Array.length host_router <> Array.length host_access then
    invalid_arg "Latency.create: host arrays differ in length";
  let nr = Graph.vertex_count router_graph in
  Array.iter
    (fun r -> if r < 0 || r >= nr then invalid_arg "Latency.create: router index out of range")
    host_router;
  if not (Graph.is_connected router_graph) then
    invalid_arg "Latency.create: router graph must be connected";
  let storage =
    match resolve backend ~nr ~host_router with
    | Lazy -> Rows (Array.init nr (fun _ -> Atomic.make None))
    | Eager | Auto -> Flat (Dijkstra.distance_matrix_flat ?pool router_graph)
  in
  { graph = router_graph; nr; storage; host_router; host_access; hits = [| 0 |] }

let hosts t = Array.length t.host_router
let routers t = t.nr
let router_graph t = t.graph
let router_of_host t h = t.host_router.(h)
let access_delay t h = t.host_access.(h)
let effective_backend t = match t.storage with Flat _ -> Eager | Rows _ -> Lazy

(* [a] and [b] are valid router indices here (checked at creation for host
   attachments, at the public entry point for direct router queries). *)
let router_distance t a b =
  t.hits.(0) <- t.hits.(0) + 1;
  match t.storage with
  | Flat d -> d.((a * t.nr) + b)
  | Rows rows -> (
      match Atomic.get rows.(a) with
      | Some r -> r.(b)
      | None ->
          let r = Dijkstra.distances t.graph ~src:a in
          Atomic.set rows.(a) (Some r);
          r.(b))

let host_latency t a b =
  if a = b then 0.0
  else
    t.host_access.(a)
    +. router_distance t t.host_router.(a) t.host_router.(b)
    +. t.host_access.(b)

let host_to_router t h r =
  if r < 0 || r >= t.nr then invalid_arg "Latency.host_to_router: router index out of range";
  t.host_access.(h) +. router_distance t t.host_router.(h) r

let router_latency t a b =
  if a < 0 || a >= t.nr || b < 0 || b >= t.nr then
    invalid_arg "Latency.router_latency: router index out of range";
  router_distance t a b

type stats = {
  backend : string;
  routers : int;
  rows_computed : int;
  row_hits : int;
  resident_bytes : int;
}

(* header word + unboxed payload *)
let float_array_bytes len = 8 * (len + 1)

let stats t =
  let rows_computed, resident_bytes =
    match t.storage with
    | Flat d -> (t.nr, float_array_bytes (Array.length d))
    | Rows rows ->
        let computed = ref 0 in
        (* pointer array + one 2-word Atomic block per cell *)
        let bytes = ref (8 * (Array.length rows + 1)) in
        Array.iter
          (fun cell ->
            bytes := !bytes + 16;
            match Atomic.get cell with
            | Some r ->
                incr computed;
                (* Some box (2 words) + the row itself *)
                bytes := !bytes + 16 + float_array_bytes (Array.length r)
            | None -> ())
          rows;
        (!computed, !bytes)
  in
  {
    backend = backend_name (effective_backend t);
    routers = t.nr;
    rows_computed;
    row_hits = t.hits.(0);
    resident_bytes;
  }

let export_metrics ?(prefix = "oracle") t m =
  let st = stats t in
  let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ "." ^ name)) v in
  c "rows_computed" st.rows_computed;
  c "row_hits" st.row_hits;
  c "resident_bytes" st.resident_bytes;
  let g name v = Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ "." ^ name)) v in
  g "routers" (float_of_int st.routers);
  g "hosts" (float_of_int (hosts t));
  g "lazy" (match effective_backend t with Lazy -> 1.0 | Eager | Auto -> 0.0)

let mean_host_latency t ?(samples = 20_000) rng =
  let n = hosts t in
  if n < 2 then 0.0
  else begin
    let acc = ref 0.0 in
    for _ = 1 to samples do
      let a = Prng.Rng.int rng n in
      let b = (a + 1 + Prng.Rng.int rng (n - 1)) mod n in
      acc := !acc +. host_latency t a b
    done;
    !acc /. float_of_int samples
  end
