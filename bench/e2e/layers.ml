(* The benchmark's only door into lib/. Every library function the workloads
   call is bound here, so a refactor that renames or removes one (for
   example the native [Hieras.Hlookup] walk, once [Hieras.Make] becomes the
   only HIERAS implementation) is absorbed by retargeting this file in a
   benchmark-only change, and the workload code and its numbers stay
   comparable across the refactor. Workload files may name library types
   but call no library function directly. *)

module Id = Hashid.Id
module Engine = Simnet.Engine
module Kv = Store.Kv

(* ---- identifiers and randomness ---------------------------------------- *)

type id = Id.t

let sha1_space = Id.sha1_space

(* the message-level experiments' identifier space (Experiments.Soak/Cache) *)
let sim_space = Id.space ~bits:32
let random_key = Id.random
let peer_id i = Id.of_hash sim_space (Printf.sprintf "peer-%d" i)
let id_compare = Id.compare

type rng_t = Prng.Rng.t

let rng seed = Prng.Rng.create ~seed
let rand_int = Prng.Rng.int
let rand_float = Prng.Rng.float

type zipf = Prng.Dist.zipf_table

let zipf ~n ~alpha = Prng.Dist.make_zipf_table ~n ~alpha
let zipf_draw = Prng.Dist.zipf_draw

(* ---- process and JSON -------------------------------------------------- *)

let peak_rss_kb = Experiments.Scale.peak_rss_kb

type json = Obs.Jsonu.json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let json_parse = Obs.Jsonu.parse
let json_member = Obs.Jsonu.member

(* shortest round-tripping decimal: every digit the measurement has *)
let json_number = Obs.Jsonu.number

(* ---- topology ---------------------------------------------------------- *)

type latency = Topology.Latency.t

(* The small Transit-Stub pools of [Experiments.Soak] and [Experiments.Cache]. *)
let pool_topology ~hosts ~seed = Topology.Transit_stub.generate ~hosts (Prng.Rng.create ~seed)

(* The synthetic single-router environment of [Experiments.Scale]: one
   router, per-host access delays. *)
let star_topology ~access =
  let star = Topology.Graph.freeze (Topology.Graph.builder 1) in
  Topology.Latency.create ~backend:Topology.Latency.Eager ~router_graph:star
    ~host_router:(Array.make (Array.length access) 0)
    ~host_access:access ()

let host_latency = Topology.Latency.host_latency
let oracle_rows_computed lat = (Topology.Latency.stats lat).Topology.Latency.rows_computed
let oracle_resident_bytes lat = (Topology.Latency.stats lat).Topology.Latency.resident_bytes

(* ---- binning ----------------------------------------------------------- *)

type landmarks = Binning.Landmark.t

let choose_landmarks lat ~count ~seed =
  Binning.Landmark.choose_spread lat ~count (Prng.Rng.create ~seed)

let router_landmarks ~count = Binning.Landmark.of_routers (Array.make count 0)

(* ---- analytic overlays ------------------------------------------------- *)

type chord_net = Chord.Network.t

let chord_build ~hosts ~succ_list_len ~salt =
  Chord.Network.build ~space:sha1_space ~hosts ~succ_list_len ~salt ()

let chord_size = Chord.Network.size
let chord_host = Chord.Network.host
let chord_owner = Chord.Network.successor_of_key
let chord_bytes = Chord.Network.bytes_resident

type chord_route = Chord.Lookup.result

let chord_route ?trace net lat ~origin ~key = Chord.Lookup.route ?trace net lat ~origin ~key
let chord_dest (r : chord_route) = r.Chord.Lookup.destination
let chord_hops (r : chord_route) = r.Chord.Lookup.hop_count
let chord_latency (r : chord_route) = r.Chord.Lookup.latency

let chord_hop_pairs (r : chord_route) =
  List.map (fun h -> (h.Chord.Lookup.from_node, h.Chord.Lookup.to_node)) r.Chord.Lookup.hops

let chord_hops_only = Chord.Lookup.route_hops_only

type hieras_net = Hieras.Hnetwork.t

let hieras_build ~chord ~lat ~landmarks ~depth ~measure =
  Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth ~measure ()

let hieras_bytes = Hieras.Hnetwork.bytes_resident

type hieras_route = Hieras.Hlookup.result

let hieras_route ?trace net ~origin ~key = Hieras.Hlookup.route ?trace net ~origin ~key
let hieras_dest (r : hieras_route) = r.Hieras.Hlookup.destination
let hieras_hops (r : hieras_route) = r.Hieras.Hlookup.hop_count
let hieras_latency (r : hieras_route) = r.Hieras.Hlookup.latency
let hieras_hops_per_layer (r : hieras_route) = r.Hieras.Hlookup.hops_per_layer
let hieras_latency_per_layer (r : hieras_route) = r.Hieras.Hlookup.latency_per_layer
let hieras_finished_at (r : hieras_route) = r.Hieras.Hlookup.finished_at_layer

let hieras_hop_pairs (r : hieras_route) =
  List.map (fun h -> (h.Hieras.Hlookup.from_node, h.Hieras.Hlookup.to_node)) r.Hieras.Hlookup.hops

(* [(hops, hops_per_layer, destination, finished_at_layer)]; [into] is the
   reused per-layer scratch *)
let hieras_hops_only ~into net ~origin ~key =
  Hieras.Hlookup.route_hops_only ~into net ~origin ~key

module Make = Hieras.Make (Chord.Routable)

let make_build ~chord ~lat ~landmarks ~depth =
  Make.build ~base:(Chord.Routable.make ~net:chord ~lat) ~lat ~landmarks ~depth ()

let make_route_hops ~into m ~origin ~key = Make.route_hops ~into m ~origin ~key

(* ---- the paper's set-up ------------------------------------------------ *)

type phase_timer = Obs.Timer.t

let phase_timer ~clock = Obs.Timer.create ~clock
let no_phase_timer = Obs.Timer.disabled

(* The timer's top-level phases: (name, calls, total seconds). *)
let phases timer =
  List.map (fun n -> (n.Obs.Timer.name, n.Obs.Timer.count, n.Obs.Timer.total_s)) (Obs.Timer.roots timer)

(* [Config.paper_default] (Transit-Stub, 4 landmarks, depth 2, r = 8) with
   [hosts] nodes, built by [Experiments.Runner.build_env] and
   [build_hieras] themselves. [timer] receives their phases "topology",
   "chord-build", "binning" and "hieras-build". *)
let paper_networks ~hosts ~timer =
  let cfg = Experiments.Config.with_nodes Experiments.Config.paper_default hosts in
  let env = Experiments.Runner.build_env ~timer cfg in
  let hnet = Experiments.Runner.build_hieras ~timer env cfg in
  (Experiments.Runner.latency_oracle env, Experiments.Runner.chord_network env, hnet)

let hieras_landmarks = Hieras.Hnetwork.landmarks

(* ---- library tracing --------------------------------------------------- *)

let trace_ring capacity = Obs.Trace.ring ~capacity

type netspan = Obs.Netspan.t

(* Exact per-kind message counters with no span written (sample rate 0). *)
let netspan_counter () = Obs.Netspan.jsonl ~sample:0.0 ignore

let netspan_counts ns =
  List.map (fun k -> (Obs.Netspan.kind_name k, Obs.Netspan.kind_count ns k)) Obs.Netspan.all_kinds

(* Every message traced and handed to the library's analyzer, which
   attributes each one to the class of its causal tree's root: maint,
   lookup, join, store, or other (a tree whose root was sent before the
   tracer was attached). *)
type traffic = { tracer : netspan; analyzer : Obs.Analyze.t }

let traffic () =
  let analyzer = Obs.Analyze.create () in
  { tracer = Obs.Netspan.jsonl (Obs.Analyze.feed_line analyzer); analyzer }

(* (class, messages), in the analyzer's fixed class order *)
let traffic_classes tr =
  match Obs.Analyze.net_report tr.analyzer with
  | None -> []
  | Some r -> List.map (fun c -> (c.Obs.Analyze.c_class, c.Obs.Analyze.c_msgs)) r.Obs.Analyze.n_classes

(* ---- the event engine -------------------------------------------------- *)

type engine = Engine.t

let engine_create ~latency ~nodes = Engine.create ~latency ~nodes
let engine_run eng ~until = Engine.run ~until eng
let engine_now = Engine.now
let engine_schedule eng ~delay f = Engine.schedule eng ~delay f
let engine_kill = Engine.kill
let engine_set_loss eng ~rate ~seed = Engine.set_loss eng ~rate ~rng:(Prng.Rng.create ~seed)
let engine_attach_netspan = Engine.attach_netspan
let engine_detach_netspan eng = Engine.attach_netspan eng Obs.Netspan.disabled

type counters = {
  sent : int;
  delivered : int;
  dropped_dead : int;
  dropped_loss : int;
  timers_set : int;
  timers_fired : int;
}

let counters eng =
  {
    sent = Engine.sent eng;
    delivered = Engine.delivered eng;
    dropped_dead = Engine.dropped_dead eng;
    dropped_loss = Engine.dropped_loss eng;
    timers_set = Engine.timers_set eng;
    timers_fired = Engine.timers_fired eng;
  }

(* ---- message-level protocols ------------------------------------------- *)

type outcome = { owner : int; hops : int; lower_hops : int }

(* The uniform protocol view the workloads drive, in the shape of
   [Experiments.Soak]'s: only what the benchmark touches. *)
type proto = {
  name : string;  (** the overlay: "chord" or "hieras" *)
  layer : string;  (** the protocol module: "chord_protocol" or "hprotocol" *)
  engine : engine;
  spawn : int -> unit;
  join : addr:int -> bootstrap:int -> unit;
  fail : int -> unit;
  is_member : int -> bool;
  live : unit -> int list;
  node_id : int -> id;
  global_succ : int -> int option;
  lookup : origin:int -> key:id -> (outcome option -> unit) -> unit;
  converged : unit -> bool;
  maintenance_ops : unit -> int;
  convergence : unit -> int * float;  (** completed convergences, their total ms *)
  substrate : unit -> Kv.substrate;  (** the library's own store substrate *)
}

let stability_sum ss =
  List.fold_left
    (fun (c, ms) s -> (c + Simnet.Stability.convergences s, ms +. Simnet.Stability.total_convergence_ms s))
    (0, 0.0) ss

let chord_proto ~succ_list_len ~rpc_timeout eng =
  let cfg = { (Chord.Protocol.default_config sim_space) with succ_list_len; rpc_timeout } in
  let c = Chord.Protocol.create cfg eng in
  {
    name = "chord";
    layer = "chord_protocol";
    engine = eng;
    spawn = (fun addr -> Chord.Protocol.spawn c ~addr ~id:(peer_id addr));
    join = (fun ~addr ~bootstrap -> Chord.Protocol.join c ~addr ~id:(peer_id addr) ~bootstrap);
    fail = Chord.Protocol.fail_node c;
    is_member = Chord.Protocol.is_member c;
    live = (fun () -> Chord.Protocol.live_members c);
    node_id = Chord.Protocol.node_id c;
    global_succ = Chord.Protocol.successor_addr c;
    lookup =
      (fun ~origin ~key k ->
        Chord.Protocol.lookup c ~origin ~key (fun r ->
            k
              (Option.map
                 (fun o ->
                   { owner = o.Chord.Protocol.owner_addr; hops = o.Chord.Protocol.hops; lower_hops = 0 })
                 r)));
    converged = (fun () -> Chord.Protocol.converged c);
    maintenance_ops = (fun () -> Chord.Protocol.maintenance_ops c);
    convergence = (fun () -> stability_sum [ Chord.Protocol.stability c ]);
    substrate = (fun () -> Kv.chord_substrate c);
  }

let hieras_proto ~succ_list_len ~rpc_timeout ~depth ~lat ~landmarks eng =
  let cfg = { (Hieras.Hprotocol.default_config sim_space ~depth) with succ_list_len; rpc_timeout } in
  let h = Hieras.Hprotocol.create cfg eng ~lat ~landmarks in
  {
    name = "hieras";
    layer = "hprotocol";
    engine = eng;
    spawn = (fun addr -> Hieras.Hprotocol.spawn h ~addr ~id:(peer_id addr));
    join = (fun ~addr ~bootstrap -> Hieras.Hprotocol.join h ~addr ~id:(peer_id addr) ~bootstrap);
    fail = Hieras.Hprotocol.fail_node h;
    is_member = Hieras.Hprotocol.is_member h;
    live = (fun () -> Hieras.Hprotocol.live_members h);
    node_id = Hieras.Hprotocol.node_id h;
    global_succ = (fun a -> Hieras.Hprotocol.successor_addr h a ~layer:1);
    lookup =
      (fun ~origin ~key k ->
        Hieras.Hprotocol.lookup h ~origin ~key (fun r ->
            k
              (Option.map
                 (fun o ->
                   {
                     owner = o.Hieras.Hprotocol.owner_addr;
                     hops = o.Hieras.Hprotocol.hops;
                     lower_hops = o.Hieras.Hprotocol.lower_hops;
                   })
                 r)));
    converged = (fun () -> Hieras.Hprotocol.converged h);
    maintenance_ops = (fun () -> Hieras.Hprotocol.maintenance_ops h);
    convergence =
      (fun () -> stability_sum (List.init depth (fun k -> Hieras.Hprotocol.stability h ~layer:(k + 1))));
    substrate = (fun () -> Kv.hieras_substrate h);
  }

(* ---- churn ------------------------------------------------------------- *)

type churn = Join | Depart

let churn_trace ~horizon_ms ~join_rate ~fail_rate ~leave_rate ~initial ~pool ~seed =
  Workload.Churn.generate
    { Workload.Churn.horizon = horizon_ms; join_rate; fail_rate; leave_rate }
    ~initial ~pool (Prng.Rng.create ~seed)
  |> List.map (fun e ->
         ( e.Workload.Churn.at,
           e.Workload.Churn.node,
           match e.Workload.Churn.kind with
           | Workload.Churn.Join -> Join
           | Workload.Churn.Fail | Workload.Churn.Leave -> Depart ))

(* ---- the replicated store ---------------------------------------------- *)

type kv = Kv.t
type version = Kv.version

let kv_create ~replication ~rpc_timeout sub =
  Kv.create { Kv.default_config with replication; rpc_timeout } sub
let kv_track = Kv.track

(* The substrate [Kv.*_substrate] builds, with its lookup rerouted through
   [lookup]: how kv-zipf observes every lookup leg the store makes. *)
let recording_substrate (sub : Kv.substrate) ~lookup = { sub with Kv.lookup }

let kv_put kv ~origin ~key ~value k =
  Kv.put kv ~origin ~key ~value (fun r -> k (Option.map (fun p -> p.Kv.p_version) r))

type get = Found of version | Absent | Unreachable

let kv_get kv ~origin ~key k =
  Kv.get kv ~origin ~key (function
    | Kv.Found g -> k (Found g.Kv.g_version)
    | Kv.Absent -> k Absent
    | Kv.Unreachable -> k Unreachable)

let version_newer = Kv.version_newer
let kv_replicate_msgs = Kv.replicate_msgs
let kv_read_repairs = Kv.read_repairs
let kv_repair_rounds = Kv.repair_rounds

(* the keys of [Experiments.Cache]'s catalogue of [objects] files *)
let catalogue ~objects =
  Workload.Webcache.catalogue { Workload.Webcache.default_spec with objects } sim_space
  |> Array.map (fun o -> o.Workload.Webcache.key)
