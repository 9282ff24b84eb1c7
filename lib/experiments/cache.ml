(* The web-cache storage scenario: the replicated store (Store.Kv) plus a
   per-node cache tier (Store.Cache) under a zipf object workload
   (Workload.Webcache), swept over replication factor × zipf skew × fault
   schedule for both message protocols. One cell = one (replication,
   alpha, algorithm) triple, fully self-contained — its own topology,
   engine, store, caches and rngs, all derived from the spec seed and the
   cell's (r, alpha) index — so cells run on any pool width and merge in
   fixed order: results are bit-identical for any --jobs.

   Each cell's timeline: the full pool joins and settles, the catalogue is
   put through the store (every object from a random live origin), the
   fault schedule lands, the overlay and the repair scan heal, and then
   the zipf request stream replays through the per-node caches — a miss
   routes a get across the overlay. Availability is served / requests
   over acknowledged objects only: an acknowledged put that a later get
   cannot reach is precisely the regression the storage layer exists to
   prevent, so the "spaced" schedule (victims spread in identifier order,
   never two within a replica window) must measure 100%. *)

module Pool = Parallel.Pool
module Engine = Simnet.Engine
module Id = Hashid.Id
module Kv = Store.Kv
module Ncache = Store.Cache
module Webcache = Workload.Webcache

type fault = No_fault | Crash | Spaced

let fault_name = function No_fault -> "none" | Crash -> "crash" | Spaced -> "spaced"
let fault_of_name = function
  | "none" -> Some No_fault
  | "crash" -> Some Crash
  | "spaced" -> Some Spaced
  | _ -> None

type spec = {
  pool : int;
  objects : int;
  requests : int;
  replication : int list;
  alphas : float list;
  fault : fault;
  fault_frac : float;
  cache_entries : int;
  loss : float;
  depth : int;
  landmarks : int;
  net_sample : float option;
  seed : int;
}

let default_spec =
  {
    pool = 32;
    objects = 48;
    requests = 600;
    replication = [ 2; 3 ];
    alphas = [ 0.8 ];
    fault = No_fault;
    fault_frac = 0.2;
    cache_entries = 16;
    loss = 0.0;
    depth = 2;
    landmarks = 4;
    net_sample = None;
    seed = 2003;
  }

let max_replication = 8

(* every node's cache byte budget and entry lifetime; results_json reports
   both *)
let cache_bytes = 128 * 1024
let ttl_ms = 30_000.0

(* CLI-friendly messages: the driver prints the error and exits 2 *)
let validate spec =
  if spec.pool < 4 then Error (Printf.sprintf "--pool must be >= 4 (got %d)" spec.pool)
  else if spec.objects < 1 then
    Error (Printf.sprintf "--objects must be >= 1 (got %d)" spec.objects)
  else if spec.requests < 0 then
    Error (Printf.sprintf "--requests must be >= 0 (got %d)" spec.requests)
  else if spec.replication = [] then Error "--replication must name at least one factor"
  else if List.exists (fun r -> r < 1 || r > max_replication) spec.replication then
    Error (Printf.sprintf "--replication factors must be in 1..%d" max_replication)
  else if List.exists (fun r -> r > spec.pool) spec.replication then
    Error "--replication factors must not exceed the pool"
  else if spec.alphas = [] then Error "--alphas must name at least one zipf skew"
  else if List.exists (fun a -> a < 0.0) spec.alphas then Error "--alphas must all be >= 0"
  else if spec.fault_frac < 0.0 || spec.fault_frac > 0.5 then
    Error (Printf.sprintf "--fault-frac must be in [0, 0.5] (got %g)" spec.fault_frac)
  else if spec.cache_entries < 1 then
    Error (Printf.sprintf "--cache-entries must be >= 1 (got %d)" spec.cache_entries)
  else
    Overlay.validate ~pool:spec.pool ~loss:spec.loss ~depth:spec.depth
      ~landmarks:spec.landmarks

type cell = {
  algo : string;
  replication : int;
  alpha : float;
  sim_ms : float;
  messages : int;
  puts : int;
  puts_acked : int;
  requests : int;  (** issued against acknowledged objects *)
  skipped_unbacked : int;  (** stream entries naming never-acknowledged objects *)
  served : int;  (** cache hits + routed gets that found the object *)
  hits : int;  (** cache hits alone *)
  absent : int;  (** routed gets answered "no such key" — lost objects *)
  unreachable : int;  (** routed gets that failed outright *)
  latency_mean_ms : float;  (** over routed gets that found the object *)
  latency_max_ms : float;
  replicate_msgs : int;
  read_repairs : int;
  handoffs : int;
  promotions : int;
  pruned : int;
  items_live : int;
  evictions : int;
  expirations : int;
  hot_objects : int;  (** distinct cache entries that ever ran hot, all nodes *)
  killed : int;
  final_members : int;
  net_trace : string;
}

type results = { spec : spec; cells : cell list }

let put_every_ms = 150.0
let read_every_ms = 40.0
let heal_ms = 12_000.0

(* Must cover the worst-case in-flight get chain at the stream's tail:
   up to 3 store attempts, each a full lookup retry ladder plus the
   store RPC timeout (~12 s each for HIERAS) — otherwise late reads are
   cut off mid-retry and count as lost. *)
let cooldown_ms = 40_000.0

(* Victims for the "spaced" schedule: live members sorted by identifier,
   killed at positions 0, step, 2*step, ... with step >= r and the last
   victim at least r before the wrap — so any r consecutive nodes in
   identifier order (any key's owner + replica window) contain at most one
   victim, and every acknowledged object keeps a copy. Deterministic: no
   randomness at all. *)
let spaced_victims ~members_by_id ~frac ~r =
  let n = Array.length members_by_id in
  let k = int_of_float (frac *. float_of_int n) in
  if k = 0 || n <= r then []
  else begin
    let step = max r (n / k) in
    let rec pick pos count acc =
      if count = 0 || pos > n - r then List.rev acc
      else pick (pos + step) (count - 1) (members_by_id.(pos) :: acc)
    in
    pick 0 k []
  end

(* One cell. [fi] is the (replication, alpha) pair index: every rng is
   seeded from (spec.seed, fi) only, so the chord and hieras cells of one
   pair see the identical topology, catalogue, origins and fault draw. *)
let run_cell spec ~fi (r, alpha) algo =
  let o =
    Overlay.start ~succ_list_min:r ~pool:spec.pool ~initial:spec.pool ~loss:spec.loss
      ~depth:spec.depth ~landmarks:spec.landmarks ~net_sample:spec.net_sample ~seed:spec.seed
      ~fi
      ~tag:(Printf.sprintf "r%d.a%s" r (Obs.Jsonu.float_repr alpha))
      algo
  in
  let p = o.Overlay.proto in
  let eng = p.sub.Kv.engine in
  let kv = Kv.create { Kv.default_config with replication = r } p.sub in
  for i = 0 to spec.pool - 1 do
    Kv.track kv i
  done;
  let caches = Array.init spec.pool (fun _ ->
      Ncache.create
        {
          Ncache.default_config with
          capacity_entries = spec.cache_entries;
          capacity_bytes = cache_bytes;
          ttl_ms;
        })
  in
  let wspec = { Webcache.count = spec.requests; objects = spec.objects; alpha } in
  let cat = Webcache.catalogue wspec p.sub.Kv.space in
  let settle = o.Overlay.settle_ms in
  (* populate: every object put once, from a random live origin *)
  let acked = Array.make spec.objects false in
  let puts_acked = ref 0 in
  let put_rng = Prng.Rng.create ~seed:(spec.seed + 50021 + fi) in
  for i = 0 to spec.objects - 1 do
    Engine.schedule eng ~delay:(settle +. (float_of_int i *. put_every_ms)) (fun () ->
        match p.sub.Kv.live_members () with
        | [] -> ()
        | members ->
            let arr = Array.of_list members in
            let origin = arr.(Prng.Rng.int put_rng (Array.length arr)) in
            let o = cat.(i) in
            Kv.put kv ~origin ~key:o.Webcache.key ~value:o.Webcache.name
              ~bytes:o.Webcache.bytes (function
              | Some _ ->
                  acked.(i) <- true;
                  incr puts_acked
              | None -> ()))
  done;
  let t_fault = settle +. (float_of_int spec.objects *. put_every_ms) +. 4_000.0 in
  (* fault schedule: protocol-silent kills the maintenance loops and the
     repair scan must detect and absorb *)
  let killed = ref 0 in
  (match spec.fault with
  | No_fault -> ()
  | Crash ->
      let frng = Prng.Rng.create ~seed:(spec.seed + 90001 + fi) in
      Engine.schedule eng ~delay:t_fault (fun () ->
          let members = Array.of_list (p.sub.Kv.live_members ()) in
          let n = Array.length members in
          let k = int_of_float (spec.fault_frac *. float_of_int n) in
          let victims = Prng.Dist.sample_without_replacement frng k n in
          Array.iter
            (fun vi ->
              p.fail members.(vi);
              incr killed)
            victims)
  | Spaced ->
      Engine.schedule eng ~delay:t_fault (fun () ->
          let members_by_id =
            p.sub.Kv.live_members ()
            |> List.sort (fun a b -> Id.compare (p.sub.Kv.node_id a) (p.sub.Kv.node_id b))
            |> Array.of_list
          in
          List.iter
            (fun v ->
              p.fail v;
              incr killed)
            (spaced_victims ~members_by_id ~frac:spec.fault_frac ~r)));
  (* read phase, after the overlay and the repair scan have healed *)
  let t_read = t_fault +. heal_ms in
  let stream =
    Webcache.to_array wspec ~nodes:spec.pool (Prng.Rng.create ~seed:(spec.seed + 70001 + fi))
  in
  let issued = ref 0
  and skipped = ref 0
  and served = ref 0
  and hits = ref 0
  and absent = ref 0
  and unreachable = ref 0 in
  let lat_sum = Stats.Summary.create () in
  Array.iteri
    (fun i req ->
      Engine.schedule eng ~delay:(t_read +. (float_of_int i *. read_every_ms)) (fun () ->
          if not acked.(req.Webcache.obj) then incr skipped
          else begin
            (* a dead origin hands its request to the next live address —
               deterministic, so the stream replays identically *)
            let rec live_origin a tries =
              if tries = 0 then None
              else if p.sub.Kv.is_member a then Some a
              else live_origin ((a + 1) mod spec.pool) (tries - 1)
            in
            match live_origin req.Webcache.origin spec.pool with
            | None -> incr skipped
            | Some origin ->
                incr issued;
                let o = cat.(req.Webcache.obj) in
                let nowms = Engine.now eng in
                let cache = caches.(origin) in
                (match Ncache.find cache ~now:nowms o.Webcache.key with
                | Some _ ->
                    incr hits;
                    incr served
                | None ->
                    let t0 = nowms in
                    Kv.get kv ~origin ~key:o.Webcache.key (function
                      | Kv.Found g ->
                          incr served;
                          Stats.Summary.add lat_sum (Engine.now eng -. t0);
                          Ncache.insert cache ~now:(Engine.now eng) o.Webcache.key
                            ~value:g.Kv.g_value ~bytes:g.Kv.g_bytes
                      | Kv.Absent -> incr absent
                      | Kv.Unreachable -> incr unreachable))
          end))
    stream;
  let sim_ms = t_read +. (float_of_int spec.requests *. read_every_ms) +. cooldown_ms in
  Engine.run ~until:sim_ms eng;
  let hot = Array.fold_left (fun acc c -> acc + Ncache.hot_ever c) 0 caches in
  let evictions = Array.fold_left (fun acc c -> acc + Ncache.evictions c) 0 caches in
  let expirations = Array.fold_left (fun acc c -> acc + Ncache.expirations c) 0 caches in
  {
    algo = Overlay.algo_name algo;
    replication = r;
    alpha;
    sim_ms;
    messages = Engine.sent eng;
    puts = spec.objects;
    puts_acked = !puts_acked;
    requests = !issued;
    skipped_unbacked = !skipped;
    served = !served;
    hits = !hits;
    absent = !absent;
    unreachable = !unreachable;
    latency_mean_ms = (if Stats.Summary.count lat_sum = 0 then 0.0 else Stats.Summary.mean lat_sum);
    latency_max_ms = (if Stats.Summary.count lat_sum = 0 then 0.0 else Stats.Summary.max_value lat_sum);
    replicate_msgs = Kv.replicate_msgs kv;
    read_repairs = Kv.read_repairs kv;
    handoffs = Kv.handoffs kv;
    promotions = Kv.promotions kv;
    pruned = Kv.pruned kv;
    items_live = Kv.items_live kv;
    evictions;
    expirations;
    hot_objects = hot;
    killed = !killed;
    final_members = List.length (p.sub.Kv.live_members ());
    net_trace = Buffer.contents o.Overlay.net_trace;
  }

let cell_prefix cl =
  Printf.sprintf "cache.%s.r%d.a%s" cl.algo cl.replication (Obs.Jsonu.float_repr cl.alpha)

let rate ok total = if total = 0 then 0.0 else float_of_int ok /. float_of_int total

let export_registry reg r =
  let open Obs.Metrics in
  List.iter
    (fun cl ->
      let prefix = cell_prefix cl in
      let c name v = set_counter (counter reg (prefix ^ "." ^ name)) v in
      let g name v = set (gauge reg (prefix ^ "." ^ name)) v in
      c "messages" cl.messages;
      c "puts" cl.puts;
      c "puts_acked" cl.puts_acked;
      c "requests" cl.requests;
      c "skipped_unbacked" cl.skipped_unbacked;
      c "served" cl.served;
      c "hits" cl.hits;
      c "absent" cl.absent;
      c "unreachable" cl.unreachable;
      c "replicate_msgs" cl.replicate_msgs;
      c "read_repairs" cl.read_repairs;
      c "handoffs" cl.handoffs;
      c "promotions" cl.promotions;
      c "pruned" cl.pruned;
      c "items_live" cl.items_live;
      c "evictions" cl.evictions;
      c "expirations" cl.expirations;
      c "hot_objects" cl.hot_objects;
      c "killed" cl.killed;
      c "final_members" cl.final_members;
      g "availability" (rate cl.served cl.requests);
      g "hit_rate" (rate cl.hits cl.requests);
      g "latency_mean_ms" cl.latency_mean_ms;
      g "latency_max_ms" cl.latency_max_ms)
    r.cells

let run ?(pool = Pool.sequential) ?registry spec =
  (match validate spec with Ok () -> () | Error e -> invalid_arg ("Cache.run: " ^ e));
  let params =
    List.concat_map (fun r -> List.map (fun a -> (r, a)) spec.alphas) spec.replication
  in
  let r = { spec; cells = Overlay.run_cells pool params (run_cell spec) } in
  Option.iter (fun reg -> export_registry reg r) registry;
  r

(* ---- rendering --------------------------------------------------------- *)

let cell_json c =
  let n = Obs.Jsonu.number in
  Printf.sprintf
    {|{"algo":"%s","replication":%d,"alpha":%s,"sim_ms":%s,"messages":%d,"puts":%d,"puts_acked":%d,"requests":%d,"skipped_unbacked":%d,"served":%d,"hits":%d,"absent":%d,"unreachable":%d,"latency_mean_ms":%s,"latency_max_ms":%s,"replicate_msgs":%d,"read_repairs":%d,"handoffs":%d,"promotions":%d,"pruned":%d,"items_live":%d,"evictions":%d,"expirations":%d,"hot_objects":%d,"killed":%d,"final_members":%d}|}
    (Obs.Jsonu.escape c.algo) c.replication (n c.alpha) (n c.sim_ms) c.messages c.puts
    c.puts_acked c.requests c.skipped_unbacked c.served c.hits c.absent c.unreachable
    (n c.latency_mean_ms) (n c.latency_max_ms) c.replicate_msgs c.read_repairs c.handoffs
    c.promotions c.pruned c.items_live c.evictions c.expirations c.hot_objects c.killed
    c.final_members

(* Gated per algo x replication x skew cell: lookup latency, then
   unavailability (an acknowledged object a get cannot reach is what the
   store exists to prevent), miss rate and put failure rate. *)
let gated r =
  List.concat_map
    (fun c ->
      let name m =
        Printf.sprintf "cache.%s.r%d.a%s.%s" c.algo c.replication (Obs.Jsonu.float_repr c.alpha) m
      in
      Obs.Gate.metric (name "latency_mean_ms") "ms" c.latency_mean_ms
      :: Obs.Gate.failure_rate (name "unavailability") ~ok:c.served ~total:c.requests
      @ Obs.Gate.failure_rate (name "miss_rate") ~ok:c.hits ~total:c.requests
      @ Obs.Gate.failure_rate (name "put_failure_rate") ~ok:c.puts_acked ~total:c.puts)
    r.cells

let results_json r =
  let s = r.spec in
  let n = Obs.Jsonu.number in
  Printf.sprintf
    {|{"schema":"hieras-cache","pool":%d,"objects":%d,"request_stream":%d,"replication":[%s],"alphas":[%s],"fault":"%s","fault_frac":%s,"cache_entries":%d,"cache_bytes":%d,"ttl_ms":%s,"loss":%s,"depth":%d,"landmarks":%d,"seed":%d,"cells":[%s],"gated":%s}|}
    s.pool s.objects s.requests
    (String.concat "," (List.map string_of_int s.replication))
    (String.concat "," (List.map n s.alphas))
    (fault_name s.fault) (n s.fault_frac) s.cache_entries cache_bytes (n ttl_ms) (n s.loss)
    s.depth s.landmarks s.seed
    (String.concat "," (List.map cell_json r.cells))
    (Obs.Gate.to_json (gated r))

(* Cells are already in fixed (replication-major, then alpha, then algo)
   order, so the merged trace is byte-identical for any --jobs; cell_json
   omits net_trace so results bytes are unchanged whether tracing ran. *)
let net_trace r = String.concat "" (List.map (fun c -> c.net_trace) r.cells)

let section r =
  let tbl =
    Stats.Text_table.create
      [ "algo"; "r"; "alpha"; "acked"; "avail"; "hit rate"; "lat ms"; "repairs"; "hot"; "alive" ]
  in
  List.iter
    (fun c ->
      Stats.Text_table.add_row tbl
        [
          c.algo;
          string_of_int c.replication;
          Printf.sprintf "%g" c.alpha;
          Printf.sprintf "%d/%d" c.puts_acked c.puts;
          Printf.sprintf "%.1f%%" (100.0 *. rate c.served c.requests);
          Printf.sprintf "%.1f%%" (100.0 *. rate c.hits c.requests);
          Printf.sprintf "%.1f" c.latency_mean_ms;
          string_of_int c.read_repairs;
          string_of_int c.hot_objects;
          string_of_int c.final_members;
        ])
    r.cells;
  {
    Report.id = "cache";
    title =
      Printf.sprintf
        "Web cache: availability and hit rate vs replication and skew (%d-node pool, %d objects, %s faults)"
        r.spec.pool r.spec.objects (fault_name r.spec.fault);
    table = tbl;
    notes =
      [
        "avail = requests served (cache hit or routed get found) over requests issued \
         against acknowledged objects; absent + unreachable are the complement";
        "lat ms = mean overlay fetch latency of cache misses that found the object \
         (cache hits are local and free)";
        "the spaced schedule kills fault-frac of the pool spread in identifier order, \
         never two inside one replica window — acknowledged objects must all survive";
      ];
  }
