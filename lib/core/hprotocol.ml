module Id = Hashid.Id
module Engine = Simnet.Engine
module Netspan = Obs.Netspan
module Ring = Chord.Ring

type config = {
  space : Id.space;
  depth : int;
  succ_list_len : int;
  rpc_timeout : float;
  adaptive : bool;
}

let default_config space ~depth =
  { space; depth; succ_list_len = 4; rpc_timeout = 2000.0; adaptive = false }

(* the per-ring settings every layer's ring runs with *)
let ring_config (c : config) =
  {
    Ring.space = c.space;
    succ_list_len = c.succ_list_len;
    rpc_timeout = c.rpc_timeout;
    adaptive = c.adaptive;
  }

(* ms between a node's ring-table duties (liveness, replication, migration)
   and between its ring refreshes, stretched by the adaptive multiplier; the
   first refresh waits one and a half periods *)
let ring_check_every = 2000.0

type pnode = {
  addr : int;
  id : Id.t;
  orders : string array; (* orders.(k-1) = ring name digits at paper layer k+1 *)
  names : Ring_name.t array;
  tkeys : string array;
  rids : Id.t array;
      (* indexed as [orders]: that ring's name, its table's key in [stored]
         and its hashed id, computed once when the node is created *)
  layers : Ring.state array;
      (* layers.(0) = global; layers.(k) is this node's record in rings.(k).
         Lower layers keep their anchor at the node itself: they recover
         through ring_refresh instead of an anchor re-join. *)
  stored : (string, Ring_table.t) Hashtbl.t; (* key = Ring_name.to_string *)
  replicas : (string, Ring_table.t) Hashtbl.t;
      (* backup copies pushed by the table's manager ("duplicated on several
         nodes for fault tolerance", paper §3.1); promoted to [stored] when
         ownership of the hashed ring name passes to this node *)
  mutable duty_tick : unit -> unit;
  mutable refresh_tick : unit -> unit;
      (* the two duties as their timers fire them, built once by
         [start_maintenance] instead of once a round *)
}

type t = {
  cfg : config;
  eng : Engine.t;
  lat : Topology.Latency.t;
  landmarks : Binning.Landmark.t;
  chain : Binning.Scheme.thresholds array;
  nodes : (int, pnode) Hashtbl.t;
  rings : Ring.t array; (* rings.(layer-1) = that layer's ring *)
  ts_rings : Obs.Timeseries.series array; (* ts_rings.(k-2) = layer-k ring count *)
  mutable check_scale : float;
  mutable check_delay : float;
      (* [ring_check_every] times the multiplier [check_scale], recomputed
         only when the global ring's multiplier moves: a product computed
         every round is a float boxed every round *)
}

let create ?(ts = Obs.Timeseries.disabled) cfg eng ~lat ~landmarks =
  if cfg.depth < 2 then invalid_arg "Hprotocol.create: depth must be >= 2";
  let rings = Ring.create ~ts ~prefix:"hieras" ~rings:cfg.depth (ring_config cfg) eng in
  {
    cfg;
    eng;
    lat;
    landmarks;
    chain = Binning.Scheme.refinement_chain ~depth:cfg.depth;
    nodes = Hashtbl.create 64;
    rings;
    ts_rings =
      Array.init (cfg.depth - 1) (fun k ->
          Obs.Timeseries.gauge ts (Printf.sprintf "hieras.layer%d.rings" (k + 2)));
    check_scale = 1.0;
    check_delay = ring_check_every;
  }

let engine t = t.eng
let config t = t.cfg
let rings t = t.rings
let global t = t.rings.(0)

let check_layer t layer =
  if layer < 1 || layer > t.cfg.depth then invalid_arg "Hprotocol: layer out of range"

let stability t ~layer =
  if layer < 1 || layer > t.cfg.depth then invalid_arg "Hprotocol.stability: layer out of range";
  Ring.stability t.rings.(layer - 1)

let converged_layer t ~layer = Simnet.Stability.is_stable (stability t ~layer)
let converged t = Array.for_all (fun r -> Simnet.Stability.is_stable (Ring.stability r)) t.rings
let interval_scale t = Ring.scale (global t)
let maintenance_ops t = Ring.maintenance_ops (global t)
let get t addr = Hashtbl.find t.nodes addr
let is_member t addr = Hashtbl.mem t.nodes addr && Engine.is_alive t.eng addr
let node_id t addr = (get t addr).id

let order_of t addr ~layer =
  check_layer t layer;
  if layer = 1 then invalid_arg "Hprotocol.order_of: the global ring has no order";
  (get t addr).orders.(layer - 2)

(* Ring-count gauges over the live members, for Ring.lifecycle's census. *)
let ring_census t at =
  let rings = Array.init (t.cfg.depth - 1) (fun _ -> Hashtbl.create 16) in
  Hashtbl.iter
    (fun addr pn ->
      if Engine.is_alive t.eng addr then
        Array.iteri (fun k order -> Hashtbl.replace rings.(k) order ()) pn.orders)
    t.nodes;
  Array.iteri
    (fun k s -> Obs.Timeseries.set s ~at (float_of_int (Hashtbl.length rings.(k))))
    t.ts_rings

let layer_ring t layer =
  check_layer t layer;
  t.rings.(layer - 1)

let successor_addr t addr ~layer = Ring.successor_addr (layer_ring t layer) addr
let predecessor_addr t addr ~layer = Ring.predecessor_addr (layer_ring t layer) addr
let successor_list_addrs t addr ~layer = Ring.successor_list_addrs (layer_ring t layer) addr
let finger_addrs t addr ~layer = Ring.finger_addrs (layer_ring t layer) addr
let ring_from t start ~layer = Ring.ring_from (layer_ring t layer) start

let stored_ring_tables t addr =
  Hashtbl.fold (fun _ rt acc -> rt :: acc) (get t addr).stored []

let replica_ring_tables t addr =
  Hashtbl.fold (fun _ rt acc -> rt :: acc) (get t addr).replicas []

let find_ring_table t rname =
  let key = Ring_name.to_string rname in
  Hashtbl.fold
    (fun addr pn acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if Engine.is_alive t.eng addr then
            Option.map (fun rt -> (addr, rt)) (Hashtbl.find_opt pn.stored key)
          else None)
    t.nodes None

let live_members t = Ring.live_members (global t)

(* ---- ring-table duties -------------------------------------------------- *)

let store_ring_table pn rt =
  Hashtbl.replace pn.stored (Ring_name.to_string (Ring_table.name rt)) rt

(* lookup in [stored], falling back to promoting a replica: get_ring_table
   requests are routed to the current top-layer owner of the ring id, so
   being asked while holding only a replica means the old manager is gone
   and this node inherited the key space *)
let stored_table pn key =
  match Hashtbl.find_opt pn.stored key with
  | Some rt -> Some rt
  | None -> (
      match Hashtbl.find_opt pn.replicas key with
      | Some replica ->
          Hashtbl.remove pn.replicas key;
          Hashtbl.replace pn.stored key replica;
          Some replica
      | None -> None)

let sync_check_delay t =
  let scale = Ring.scale (global t) in
  if scale <> t.check_scale then begin
    t.check_scale <- scale;
    t.check_delay <- ring_check_every *. scale
  end

(* The manager checks liveness of recorded nodes, refills from a survivor's
   ring successor list, and migrates tables whose top-layer owner changed. *)
let ring_table_duty t pn =
  let g = global t in
  let tables = Hashtbl.fold (fun k v acc -> (k, v) :: acc) pn.stored [] in
  List.iter
    (fun (key, rt) ->
      (* liveness of recorded entries *)
      List.iter
        (fun e ->
          if e.Ring_table.node <> pn.addr then begin
            Ring.count_duty g;
            Ring.ask g ~kind:Netspan.Ring ~src:pn.addr ~dst:e.Ring_table.node
              ~service:(fun _ -> ())
              ~ok:(fun () -> ())
              ~timeout:(fun () ->
                ignore (Ring_table.remove rt e.Ring_table.node);
                (* refill: ask a survivor for its ring successors *)
                match Ring_table.any_member rt with
                | None -> ()
                | Some survivor ->
                    let layer = Ring_name.layer (Ring_table.name rt) in
                    Ring.count_duty g;
                    Ring.ask t.rings.(layer - 1) ~kind:Netspan.Ring ~src:pn.addr
                      ~dst:survivor.Ring_table.node
                      ~service:(fun s -> Ring.self_peer s :: s.succs)
                      ~ok:(fun members ->
                        List.iter
                          (fun (p : Ring.peer) ->
                            ignore
                              (Ring_table.register rt
                                 { Ring_table.node = p.paddr; id = Id.of_int t.cfg.space p.pid }))
                          members)
                      ~timeout:(fun () -> ()))
          end)
        (Ring_table.entries rt);
      (* replication: push a snapshot to the global successor so the table
         survives this manager's silent failure *)
      (let succ = Ring.current_successor pn.layers.(0) in
       if succ.paddr <> pn.addr then begin
         let snapshot = Ring_table.copy rt in
         Ring.count_duty g;
         Engine.send t.eng ~kind:Netspan.Ring ~src:pn.addr ~dst:succ.paddr (fun () ->
             match Hashtbl.find_opt t.nodes succ.paddr with
             | None -> ()
             | Some spn ->
                 if not (Hashtbl.mem spn.stored key) then
                   Hashtbl.replace spn.replicas key snapshot)
       end);
      (* migration: is this node still the rightful manager? *)
      let rid = Ring_table.ring_id rt in
      Ring.count_duty g;
      Ring.find_successor g ~kind:Netspan.Ring ~src:pn.addr ~key:rid ~retries:0
        ~ok:(fun owner _ _ ->
          if owner.paddr <> pn.addr then begin
            Engine.send t.eng ~kind:Netspan.Ring ~src:pn.addr ~dst:owner.paddr (fun () ->
                match Hashtbl.find_opt t.nodes owner.paddr with
                | None -> ()
                | Some opn ->
                    let merged =
                      match Hashtbl.find_opt opn.stored key with
                      | None -> rt
                      | Some existing ->
                          List.iter
                            (fun e -> ignore (Ring_table.register existing e))
                            (Ring_table.entries rt);
                          existing
                    in
                    Hashtbl.replace opn.stored key merged);
            Hashtbl.remove pn.stored key
          end)
        ~failed:(fun () -> ()))
    tables;
  sync_check_delay t;
  ignore (Engine.timer t.eng ~node:pn.addr ~delay:t.check_delay pn.duty_tick)

(* Ring unification: concurrent joiners may read a stale ring table and boot
   a private one-node ring. Periodically every node re-reads its rings'
   tables, adopts any recorded member that lies between itself and its
   current ring successor (stabilize then merges the loops), and re-registers
   itself so the table tracks the live extremes. The paper assumes joins are
   sequential and tables current; this duty removes that assumption. *)
let ring_refresh t pn =
  let g = global t in
  for layer = 2 to t.cfg.depth do
    let rname = pn.names.(layer - 2) and key = pn.tkeys.(layer - 2) in
    Ring.count_duty g;
    Ring.find_successor g ~kind:Netspan.Ring ~src:pn.addr ~key:pn.rids.(layer - 2) ~retries:0
      ~ok:(fun manager _ _ ->
        Ring.count_duty g;
        Ring.ask g ~kind:Netspan.Ring ~src:pn.addr ~dst:manager.paddr
          ~service:(fun ms ->
            let mpn = get t ms.addr in
            match stored_table mpn key with
            | Some rt ->
                ignore (Ring_table.register rt { Ring_table.node = pn.addr; id = pn.id });
                Ring_table.entries rt
            | None ->
                store_ring_table mpn
                  (Ring_table.of_members t.cfg.space rname
                     [ { Ring_table.node = pn.addr; id = pn.id } ]);
                [])
          ~ok:(fun entries ->
            let r = t.rings.(layer - 1) and s = pn.layers.(layer - 1) in
            List.iter
              (fun e ->
                (* skip recorded members that are gone: a stale table entry
                   re-adopted here would seize the successor slot faster
                   than stabilize can expunge it, wedging the ring (the
                   anchor re-join applies the same liveness shortcut) *)
                if e.Ring_table.node <> pn.addr && Engine.is_alive t.eng e.Ring_table.node
                then begin
                  let succ = Ring.current_successor s
                  and pid = Id.to_int t.cfg.space e.Ring_table.id in
                  if succ.paddr = pn.addr || Ring.in_oo pid ~lo:s.key ~hi:succ.pid then
                    s.succs <-
                      Ring.truncate_succs r s ({ paddr = e.Ring_table.node; pid } :: s.succs)
                end)
              entries)
          ~timeout:(fun () -> ()))
      ~failed:(fun () -> ())
  done;
  sync_check_delay t;
  ignore (Engine.timer t.eng ~node:pn.addr ~delay:t.check_delay pn.refresh_tick)

(* ---- lifecycle ---------------------------------------------------------- *)

(* every layer's Chord timers in layer order, then the ring-table duties *)
let start_maintenance t pn =
  pn.duty_tick <- (fun () -> ring_table_duty t pn);
  pn.refresh_tick <- (fun () -> ring_refresh t pn);
  Array.iteri (fun k r -> Ring.start r pn.layers.(k)) t.rings;
  ignore (Engine.timer t.eng ~node:pn.addr ~delay:ring_check_every pn.duty_tick);
  ignore (Engine.timer t.eng ~node:pn.addr ~delay:(1.5 *. ring_check_every) pn.refresh_tick)

let measure_orders t ~addr =
  let dists = Binning.Landmark.measure t.lat t.landmarks ~host:addr in
  Array.map (fun thr -> Binning.Scheme.order thr dists) t.chain

let fresh_node t ~addr ~id =
  if Hashtbl.mem t.nodes addr then invalid_arg "Hprotocol: address already in use";
  let orders = measure_orders t ~addr in
  let names = Array.mapi (fun k order -> Ring_name.make ~layer:(k + 2) ~order) orders in
  let pn =
    {
      addr;
      id;
      orders;
      names;
      tkeys = Array.map Ring_name.to_string names;
      rids = Array.map (Ring_name.ring_id t.cfg.space) names;
      layers = Array.map (fun r -> Ring.add r ~addr ~id) t.rings;
      stored = Hashtbl.create 4;
      replicas = Hashtbl.create 4;
      duty_tick = ignore;
      refresh_tick = ignore;
    }
  in
  Hashtbl.replace t.nodes addr pn;
  pn

let spawn t ~addr ~id =
  let pn = fresh_node t ~addr ~id in
  Array.iter (fun (s : Ring.state) -> s.succs <- [ Ring.self_peer s ]) pn.layers;
  (* first node stores the ring tables of all of its own rings *)
  for layer = 2 to t.cfg.depth do
    store_ring_table pn
      (Ring_table.of_members t.cfg.space pn.names.(layer - 2) [ { Ring_table.node = addr; id } ])
  done;
  start_maintenance t pn;
  Ring.lifecycle ~census:(ring_census t) t.rings `Spawn

(* Join one lower layer (paper §3.3): locate the ring table through the top
   layer, ask a recorded member for our ring-level successor, register
   ourselves in the table if we displace an extreme. *)
let join_lower_layer t pn ~layer ~and_then =
  let rname = pn.names.(layer - 2) and key = pn.tkeys.(layer - 2) in
  let r = t.rings.(layer - 1) and s = pn.layers.(layer - 1) in
  let g = global t in
  let register_with manager_addr =
    Engine.send t.eng ~kind:Netspan.Join ~src:pn.addr ~dst:manager_addr (fun () ->
        match Hashtbl.find_opt t.nodes manager_addr with
        | None -> ()
        | Some mpn -> (
            match stored_table mpn key with
            | Some rt -> ignore (Ring_table.register rt { Ring_table.node = pn.addr; id = pn.id })
            | None ->
                store_ring_table mpn
                  (Ring_table.of_members t.cfg.space rname
                     [ { Ring_table.node = pn.addr; id = pn.id } ])))
  in
  let alone () = s.succs <- [ Ring.self_peer s ] in
  (* route to the manager of this ring's table on the top layer *)
  Ring.find_successor g ~kind:Netspan.Join ~src:pn.addr ~key:pn.rids.(layer - 2)
    ~retries:Ring.lookup_retries
    ~ok:(fun manager _ _ ->
      Ring.ask g ~kind:Netspan.Join ~src:pn.addr ~dst:manager.paddr
        ~service:(fun ms -> Option.map Ring_table.entries (stored_table (get t ms.addr) key))
        ~ok:(fun entries ->
          let members =
            match entries with
            | Some (_ :: _ as es) -> List.filter (fun e -> e.Ring_table.node <> pn.addr) es
            | _ -> []
          in
          match members with
          | [] ->
              (* first member of this ring: one-node ring, create the table *)
              alone ();
              register_with manager.paddr;
              and_then ()
          | first :: rest ->
              (* ask a recorded member for our ring-level successor *)
              let rec try_members m ms =
                Ring.find_successor_via r ~kind:Netspan.Join ~src:pn.addr ~via:m.Ring_table.node
                  ~key:pn.id ~retries:0
                  ~ok:(fun succ _ _ ->
                    s.succs <- [ succ ];
                    if
                      Ring_table.should_register
                        (Ring_table.of_members t.cfg.space rname
                           (match entries with Some es -> es | None -> []))
                        pn.id
                    then register_with manager.paddr;
                    and_then ())
                  ~failed:(fun () ->
                    match ms with
                    | next :: more -> try_members next more
                    | [] ->
                        (* everyone recorded is dead: start a fresh ring *)
                        alone ();
                        register_with manager.paddr;
                        and_then ())
              in
              try_members first rest)
        ~timeout:(fun () ->
          alone ();
          and_then ()))
    ~failed:(fun () ->
      alone ();
      and_then ())

let join t ~addr ~id ~bootstrap =
  let pn = fresh_node t ~addr ~id in
  pn.layers.(0).anchor <- bootstrap;
  Ring.lifecycle ~census:(ring_census t) t.rings `Join;
  (* step 1-2: fetch the landmark table from the bootstrap and ping the
     landmarks; we charge one RTT to the farthest landmark before the
     overlay join proceeds. The fetch retries forever — losing it must not
     strand the node before it even enters the overlay. *)
  let ping_delay =
    Array.fold_left
      (fun acc r -> Float.max acc (2.0 *. Topology.Latency.host_to_router t.lat addr r))
      0.0
      (Binning.Landmark.routers t.landmarks)
  in
  let rec fetch_landmark_table () =
    Ring.ask (global t) ~kind:Netspan.Join ~src:addr ~dst:bootstrap
      ~service:(fun _ -> ())
      ~ok:(fun () ->
        ignore
          (Engine.timer t.eng ~node:addr ~delay:ping_delay (fun () ->
               (* step 3: top-layer Chord join through the bootstrap, then
                  step 4: join each lower layer in turn *)
               Ring.join (global t) pn.layers.(0) ~bootstrap ~joined:(fun () ->
                   let rec lower layer =
                     if layer > t.cfg.depth then begin
                       start_maintenance t pn;
                       Ring.joined ~census:(ring_census t) t.rings
                     end
                     else join_lower_layer t pn ~layer ~and_then:(fun () -> lower (layer + 1))
                   in
                   lower 2))))
      ~timeout:(fun () -> fetch_landmark_table ())
  in
  fetch_landmark_table ()

let fail_node t addr =
  if not (Hashtbl.mem t.nodes addr) then invalid_arg "Hprotocol.fail_node: unknown node";
  Engine.kill t.eng addr;
  Ring.lifecycle ~census:(ring_census t) t.rings `Fail

(* ---- hierarchical lookup ------------------------------------------------ *)

type lookup_outcome = Ring.outcome = {
  owner_addr : int;
  owner_id : Id.t;
  hops : int;
  lower_hops : int;
}

let lookup t ~origin ~key k = Ring.lookup t.rings ~origin ~key k

let export_metrics ?(prefix = "hieras.protocol") t m =
  let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ "." ^ name)) v in
  let n = Ring.counts (global t) in
  c "maint.stabilize" n.stabilize;
  c "maint.notify" n.notify;
  c "maint.fix_fingers" n.fix_fingers;
  c "maint.check_pred" n.check_pred;
  c "maint.ring" n.duty;
  c "maint.total" (maintenance_ops t);
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".maint.scale")) (interval_scale t);
  Array.iteri
    (fun i r ->
      Simnet.Stability.export_metrics
        ~prefix:(Printf.sprintf "%s.layer%d.stability" prefix (i + 1))
        (Ring.stability r) m)
    t.rings
