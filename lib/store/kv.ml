module Id = Hashid.Id
module Engine = Simnet.Engine
module Netspan = Obs.Netspan

type substrate = {
  sub_name : string;
  engine : Engine.t;
  space : Id.space;
  lookup : origin:int -> key:Id.t -> (int option -> unit) -> unit;
  node_id : int -> Id.t;
  predecessor : int -> int option;
  successors : int -> int list;
  is_member : int -> bool;
  live_members : unit -> int list;
}

(* Ownership is a global-ring notion: the store reads ring 0's pointers. *)
let of_rings sub_name rings =
  let g = rings.(0) in
  let engine = Chord.Ring.engine g in
  {
    sub_name;
    engine;
    space = (Chord.Ring.config g).space;
    lookup =
      (fun ~origin ~key k ->
        Chord.Ring.lookup rings ~origin ~key (fun out ->
            k (Option.map (fun o -> o.Chord.Ring.owner_addr) out)));
    node_id = (fun a -> (Chord.Ring.find g a).id);
    predecessor = Chord.Ring.predecessor_addr g;
    successors = Chord.Ring.successor_list_addrs g;
    is_member = (fun a -> Chord.Ring.mem g a && Engine.is_alive engine a);
    live_members = (fun () -> Chord.Ring.live_members g);
  }

let chord_substrate c = of_rings "chord" (Chord.Protocol.rings c)
let hieras_substrate h = of_rings "hieras" (Hieras.Hprotocol.rings h)

type config = {
  replication : int;
  repair_every : float;
  lease_rounds : int;
  rpc_timeout : float;
  rpc_retries : int;
}

let default_config =
  { replication = 3; repair_every = 1_000.0; lease_rounds = 4; rpc_timeout = 2_000.0; rpc_retries = 2 }

let validate cfg =
  if cfg.replication < 1 then Error "replication factor must be >= 1"
  else if cfg.repair_every <= 0.0 then Error "repair period must be positive"
  else if cfg.lease_rounds < 1 then Error "lease must last at least one repair round"
  else if cfg.rpc_timeout <= 0.0 then Error "rpc timeout must be positive"
  else if cfg.rpc_retries < 0 then Error "rpc retries must be >= 0"
  else Ok ()

type version = { vseq : int; vorigin : int }

let version_newer a b = a.vseq > b.vseq || (a.vseq = b.vseq && a.vorigin > b.vorigin)

type entry = { value : string; bytes : int; version : version }
type role = Owner | Replica of int
type item = { mutable entry : entry; mutable role : role; mutable refreshed : float }
type node_st = { items : (Id.t, item) Hashtbl.t }

type t = {
  cfg : config;
  sub : substrate;
  nodes : (int, node_st) Hashtbl.t;
  mutable n_puts : int;
  mutable n_puts_acked : int;
  mutable n_gets : int;
  mutable n_gets_found : int;
  mutable n_gets_absent : int;
  mutable n_gets_failed : int;
  mutable n_deletes : int;
  mutable n_replicates : int;
  mutable n_handoffs : int;
  mutable n_promotions : int;
  mutable n_pruned : int;
  mutable n_read_repairs : int;
  mutable n_repair_rounds : int;
}

let config t = t.cfg
let substrate t = t.sub

let st_of t a =
  match Hashtbl.find_opt t.nodes a with
  | Some st -> st
  | None ->
      let st = { items = Hashtbl.create 16 } in
      Hashtbl.add t.nodes a st;
      st

let track t a = ignore (st_of t a)
let now t = Engine.now t.sub.engine

(* The first r-1 distinct live successors — the current replica duty of an
   owner at [a]. Protocol successor lists can transiently hold dead or
   duplicate addresses right after a fault; duty is always computed over
   the live view. *)
let replica_targets t a =
  let r = t.cfg.replication - 1 in
  let rec take n seen = function
    | [] -> []
    | s :: tl ->
        if n = 0 then []
        else if s = a || List.mem s seen || not (t.sub.is_member s) then take n seen tl
        else s :: take (n - 1) (s :: seen) tl
  in
  take r [] (t.sub.successors a)

(* Does [a] believe the key falls in its own (predecessor, self] arc? A
   self-pointing predecessor means a one-node ring, which owns the whole
   circle; an unknown/dead predecessor means the view is too stale to
   judge, and callers leave roles untouched for the round. *)
let arc_check t a =
  match t.sub.predecessor a with
  | Some p when t.sub.is_member p ->
      let pid = t.sub.node_id p and my = t.sub.node_id a in
      if Id.equal pid my then Some (fun _ -> true)
      else Some (fun key -> Id.in_oc key ~lo:pid ~hi:my)
  | _ -> None

let believes_owner t a key = match arc_check t a with Some f -> f key | None -> false

(* Adopt a pushed entry at [dst]. Strictly newer versions overwrite; every
   push from the owner renews the lease. A node that currently believes
   itself the owner is never demoted by a push — the stale pusher will
   demote itself at its next scan instead. *)
let accept_replica t dst ~owner ~key ~entry ~as_owner =
  let st = st_of t dst in
  let at = now t in
  match Hashtbl.find_opt st.items key with
  | None ->
      Hashtbl.add st.items key
        { entry; role = (if as_owner then Owner else Replica owner); refreshed = at }
  | Some it ->
      if version_newer entry.version it.entry.version then it.entry <- entry;
      it.refreshed <- at;
      if it.role <> Owner then
        it.role <- (if as_owner || believes_owner t dst key then Owner else Replica owner)

(* One request/reply RPC leg with a client-side timeout, the protocols' own
   [ask] shape: the handler runs at [dst] on delivery and must call
   [reply] exactly once; the response leg is a [Store_reply] send, and
   cancels the timeout. *)
let rpc t ~kind ?timeout ~src ~dst ~handler ~on_reply ~on_timeout () =
  let eng = t.sub.engine in
  let pending = ref Engine.no_timer in
  Engine.send eng ~kind ~src ~dst (fun () ->
      handler ~reply:(fun resp ->
          if Engine.is_alive eng dst then
            Engine.send eng ~kind:Netspan.Store_reply ~src:dst ~dst:src (fun () ->
                if Engine.settle eng pending then on_reply resp)));
  pending :=
    Engine.timer eng ~node:src
      ~delay:(match timeout with Some d -> d | None -> t.cfg.rpc_timeout)
      (fun () -> if Engine.settle eng pending then on_timeout ())

(* ---- put --------------------------------------------------------------- *)

type put_result = { p_owner : int; p_replicas : int; p_version : version }

(* Store at the owner, push to the current replica duty, acknowledge the
   client only once every pushed replica answered or timed out — so an
   acknowledged put reports exactly how many copies exist. *)
let owner_put t o ~key ~value ~bytes ~client ~reply =
  let st = st_of t o in
  let at = now t in
  let vseq = match Hashtbl.find_opt st.items key with Some it -> it.entry.version.vseq + 1 | None -> 1 in
  let version = { vseq; vorigin = client } in
  let entry = { value; bytes; version } in
  (match Hashtbl.find_opt st.items key with
  | Some it ->
      it.entry <- entry;
      it.role <- Owner;
      it.refreshed <- at
  | None -> Hashtbl.add st.items key { entry; role = Owner; refreshed = at });
  let targets = replica_targets t o in
  let pending = ref (List.length targets) and acked = ref 1 in
  let finish () = reply { p_owner = o; p_replicas = !acked; p_version = version } in
  if targets = [] then finish ()
  else
    List.iter
      (fun dst ->
        t.n_replicates <- t.n_replicates + 1;
        rpc t ~kind:Netspan.Store_replicate ~src:o ~dst
          ~handler:(fun ~reply ->
            accept_replica t dst ~owner:o ~key ~entry ~as_owner:false;
            reply ())
          ~on_reply:(fun () ->
            incr acked;
            decr pending;
            if !pending = 0 then finish ())
          ~on_timeout:(fun () ->
            decr pending;
            if !pending = 0 then finish ())
          ())
      targets

let put t ~origin ~key ~value ?bytes k =
  let bytes = match bytes with Some b -> b | None -> String.length value in
  t.n_puts <- t.n_puts + 1;
  let attempts = ref 0 in
  let rec go () =
    if not (t.sub.is_member origin) then k None
    else
      t.sub.lookup ~origin ~key (function
        | Some owner when t.sub.is_member owner && t.sub.is_member origin ->
            rpc t ~kind:Netspan.Store_put ~src:origin ~dst:owner
              ~timeout:(2.0 *. t.cfg.rpc_timeout)
              ~handler:(fun ~reply -> owner_put t owner ~key ~value ~bytes ~client:origin ~reply)
              ~on_reply:(fun r ->
                t.n_puts_acked <- t.n_puts_acked + 1;
                k (Some r))
              ~on_timeout:retry ()
        | _ -> retry ())
  and retry () =
    incr attempts;
    if !attempts > t.cfg.rpc_retries then k None else go ()
  in
  go ()

(* ---- get --------------------------------------------------------------- *)

type get_result = { g_value : string; g_bytes : int; g_version : version; g_owner : int }
type get_outcome = Found of get_result | Absent | Unreachable

(* Probe every current replica for its copy, then call [k] with the newest
   entry seen (from the probes alone). Used both to recover a key the
   owner lacks and, fire-and-forget, to read-repair after serving. *)
let probe_replicas t o ~key ~(on_probe : int -> entry option -> unit) ~(k : entry option -> unit) =
  let targets = replica_targets t o in
  let pending = ref (List.length targets) in
  let best = ref None in
  let settle () = if !pending = 0 then k !best in
  if targets = [] then k None
  else
    List.iter
      (fun dst ->
        rpc t ~kind:Netspan.Store_repair ~src:o ~dst
          ~handler:(fun ~reply ->
            let st = st_of t dst in
            reply (Option.map (fun it -> it.entry) (Hashtbl.find_opt st.items key)))
          ~on_reply:(fun found ->
            on_probe dst found;
            (match found with
            | Some e ->
                if match !best with None -> true | Some b -> version_newer e.version b.version then
                  best := Some e
            | None -> ());
            decr pending;
            settle ())
          ~on_timeout:(fun () ->
            decr pending;
            settle ())
          ())
      targets

let push_entry t ~src ~dst ~key ~entry ~as_owner =
  if Engine.is_alive t.sub.engine src then begin
    t.n_replicates <- t.n_replicates + 1;
    Engine.send t.sub.engine ~kind:Netspan.Store_replicate ~src ~dst (fun () ->
        accept_replica t dst ~owner:(if as_owner then dst else src) ~key ~entry ~as_owner)
  end

(* Serve from the owner's copy, then asynchronously repair the replica
   set: stale or missing copies are re-pushed, and a probe revealing a
   strictly newer version than the owner's is adopted locally. An owner
   without the key probes first and adopts the newest surviving copy, so
   a freshly promoted owner answers with the data, not [Absent]. *)
let owner_get t o ~key ~reply =
  let st = st_of t o in
  match Hashtbl.find_opt st.items key with
  | Some it ->
      reply (Some it.entry);
      probe_replicas t o ~key
        ~on_probe:(fun dst found ->
          match Hashtbl.find_opt st.items key with
          | None -> ()
          | Some it -> (
              match found with
              | None ->
                  t.n_read_repairs <- t.n_read_repairs + 1;
                  push_entry t ~src:o ~dst ~key ~entry:it.entry ~as_owner:false
              | Some e when version_newer it.entry.version e.version ->
                  t.n_read_repairs <- t.n_read_repairs + 1;
                  push_entry t ~src:o ~dst ~key ~entry:it.entry ~as_owner:false
              | Some e when version_newer e.version it.entry.version ->
                  t.n_read_repairs <- t.n_read_repairs + 1;
                  it.entry <- e
              | Some _ -> ()))
        ~k:(fun _ -> ())
  | None ->
      probe_replicas t o ~key
        ~on_probe:(fun _ _ -> ())
        ~k:(fun best ->
          match best with
          | Some e when Engine.is_alive t.sub.engine o ->
              t.n_read_repairs <- t.n_read_repairs + 1;
              accept_replica t o ~owner:o ~key ~entry:e ~as_owner:(believes_owner t o key);
              reply (Some e)
          | _ -> reply None)

let get t ~origin ~key k =
  t.n_gets <- t.n_gets + 1;
  let attempts = ref 0 in
  let rec go () =
    if not (t.sub.is_member origin) then fail ()
    else
      t.sub.lookup ~origin ~key (function
        | Some owner when t.sub.is_member owner && t.sub.is_member origin ->
            rpc t ~kind:Netspan.Store_get ~src:origin ~dst:owner
              ~timeout:(2.0 *. t.cfg.rpc_timeout)
              ~handler:(fun ~reply -> owner_get t owner ~key ~reply)
              ~on_reply:(fun resp ->
                match resp with
                | Some e ->
                    t.n_gets_found <- t.n_gets_found + 1;
                    k (Found { g_value = e.value; g_bytes = e.bytes; g_version = e.version; g_owner = owner })
                | None ->
                    t.n_gets_absent <- t.n_gets_absent + 1;
                    k Absent)
              ~on_timeout:retry ()
        | _ -> retry ())
  and retry () =
    incr attempts;
    if !attempts > t.cfg.rpc_retries then fail () else go ()
  and fail () =
    t.n_gets_failed <- t.n_gets_failed + 1;
    k Unreachable
  in
  go ()

(* ---- delete ------------------------------------------------------------ *)

let owner_delete t o ~key ~reply =
  let st = st_of t o in
  let existed = Hashtbl.mem st.items key in
  Hashtbl.remove st.items key;
  List.iter
    (fun dst ->
      Engine.send t.sub.engine ~kind:Netspan.Store_delete ~src:o ~dst (fun () ->
          Hashtbl.remove (st_of t dst).items key))
    (replica_targets t o);
  reply existed

let delete t ~origin ~key k =
  t.n_deletes <- t.n_deletes + 1;
  let attempts = ref 0 in
  let rec go () =
    if not (t.sub.is_member origin) then k None
    else
      t.sub.lookup ~origin ~key (function
        | Some owner when t.sub.is_member owner && t.sub.is_member origin ->
            rpc t ~kind:Netspan.Store_delete ~src:origin ~dst:owner
              ~handler:(fun ~reply -> owner_delete t owner ~key ~reply)
              ~on_reply:(fun existed -> k (Some existed))
              ~on_timeout:retry ()
        | _ -> retry ())
  and retry () =
    incr attempts;
    if !attempts > t.cfg.rpc_retries then k None else go ()
  in
  go ()

(* ---- the repair scan --------------------------------------------------- *)

let refresh_replicas t a ~key ~entry =
  List.iter (fun dst -> push_entry t ~src:a ~dst ~key ~entry ~as_owner:false) (replica_targets t a)

(* An owned entry whose key left the node's arc (a join landed between the
   predecessor and the key) is routed to its rightful owner; the sender
   demotes itself, staying a lease-covered replica until it ages out of
   the owner's duty window. *)
let handoff t a ~key =
  t.n_handoffs <- t.n_handoffs + 1;
  t.sub.lookup ~origin:a ~key (function
    | Some owner when owner <> a && t.sub.is_member owner && t.sub.is_member a -> (
        match Hashtbl.find_opt t.nodes a with
        | None -> ()
        | Some st -> (
            match Hashtbl.find_opt st.items key with
            | Some it when it.role = Owner ->
                push_entry t ~src:a ~dst:owner ~key ~entry:it.entry ~as_owner:true;
                it.role <- Replica owner;
                it.refreshed <- now t
            | _ -> ()))
    | _ -> ())

(* A replica whose lease ran out has lost its owner: either the owner died
   and the key's arc now belongs to a node that never held a copy (a fresh
   joiner inherits an empty range), or this node merely left the owner's
   duty window. Either way the copy is routed home before being dropped —
   pruning outright would let every survivor of a dead owner age out in
   lockstep and lose the object, since no Owner-role copy exists anywhere
   to re-seed the new arc holder. The push is adopt-if-newer, so in the
   common case (the owner already holds the entry) it is a no-op and this
   degenerates to a plain prune plus one message. *)
let prune_replica t a ~key =
  t.sub.lookup ~origin:a ~key (function
    | Some owner when t.sub.is_member owner && t.sub.is_member a -> (
        match Hashtbl.find_opt t.nodes a with
        | None -> ()
        | Some st -> (
            match Hashtbl.find_opt st.items key with
            | Some it when it.role <> Owner ->
                if owner <> a then begin
                  push_entry t ~src:a ~dst:owner ~key ~entry:it.entry ~as_owner:true;
                  Hashtbl.remove st.items key;
                  t.n_pruned <- t.n_pruned + 1
                end
                (* owner = a: the route and the arc check disagree — keep
                   the copy and let a later round promote it instead *)
            | _ -> ()))
    | _ -> (* unroutable this round: keep the copy, retry next scan *) ())

let repair_round t =
  t.n_repair_rounds <- t.n_repair_rounds + 1;
  let at = now t in
  let lease = float_of_int t.cfg.lease_rounds *. t.cfg.repair_every in
  let addrs = Hashtbl.fold (fun a _ acc -> a :: acc) t.nodes [] |> List.sort Int.compare in
  List.iter
    (fun a ->
      if t.sub.is_member a then begin
        let st = Hashtbl.find t.nodes a in
        let arc = arc_check t a in
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) st.items [] |> List.sort Id.compare in
        List.iter
          (fun key ->
            match Hashtbl.find_opt st.items key with
            | None -> ()
            | Some it -> (
                match arc with
                | None ->
                    (* stale view: owners keep their replicas warm, nothing
                       is promoted or pruned on guesswork *)
                    if it.role = Owner then refresh_replicas t a ~key ~entry:it.entry
                | Some in_arc ->
                    if in_arc key then begin
                      if it.role <> Owner then begin
                        it.role <- Owner;
                        t.n_promotions <- t.n_promotions + 1
                      end;
                      refresh_replicas t a ~key ~entry:it.entry
                    end
                    else
                      (match it.role with
                      | Owner -> handoff t a ~key
                      | Replica _ ->
                          if at -. it.refreshed > lease then prune_replica t a ~key)))
          keys
      end)
    addrs

let create cfg sub =
  (match validate cfg with Ok () -> () | Error msg -> invalid_arg ("Kv.create: " ^ msg));
  let t =
    {
      cfg;
      sub;
      nodes = Hashtbl.create 64;
      n_puts = 0;
      n_puts_acked = 0;
      n_gets = 0;
      n_gets_found = 0;
      n_gets_absent = 0;
      n_gets_failed = 0;
      n_deletes = 0;
      n_replicates = 0;
      n_handoffs = 0;
      n_promotions = 0;
      n_pruned = 0;
      n_read_repairs = 0;
      n_repair_rounds = 0;
    }
  in
  let rec loop () =
    Engine.schedule sub.engine ~delay:cfg.repair_every (fun () ->
        repair_round t;
        loop ())
  in
  loop ();
  t

(* ---- introspection ----------------------------------------------------- *)

let holders t key =
  Hashtbl.fold
    (fun a st acc -> if t.sub.is_member a && Hashtbl.mem st.items key then a :: acc else acc)
    t.nodes []
  |> List.sort Int.compare

let entry_on t a key =
  match Hashtbl.find_opt t.nodes a with
  | None -> None
  | Some st -> Option.map (fun it -> it.entry) (Hashtbl.find_opt st.items key)

let items_live t =
  Hashtbl.fold
    (fun a st acc -> if t.sub.is_member a then acc + Hashtbl.length st.items else acc)
    t.nodes 0

let forget t a key =
  match Hashtbl.find_opt t.nodes a with None -> () | Some st -> Hashtbl.remove st.items key

let tamper t a key entry =
  match Hashtbl.find_opt t.nodes a with
  | None -> ()
  | Some st -> (
      match Hashtbl.find_opt st.items key with
      | Some it -> it.entry <- entry
      | None -> Hashtbl.add st.items key { entry; role = Replica a; refreshed = now t })

let puts t = t.n_puts
let puts_acked t = t.n_puts_acked
let gets t = t.n_gets
let replicate_msgs t = t.n_replicates
let handoffs t = t.n_handoffs
let promotions t = t.n_promotions
let pruned t = t.n_pruned
let read_repairs t = t.n_read_repairs
let repair_rounds t = t.n_repair_rounds

let export_metrics ?(prefix = "store") t m =
  let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ "." ^ name)) v in
  c "puts" t.n_puts;
  c "puts_acked" t.n_puts_acked;
  c "gets" t.n_gets;
  c "gets_found" t.n_gets_found;
  c "gets_absent" t.n_gets_absent;
  c "gets_failed" t.n_gets_failed;
  c "deletes" t.n_deletes;
  c "replicate_msgs" t.n_replicates;
  c "handoffs" t.n_handoffs;
  c "promotions" t.n_promotions;
  c "pruned" t.n_pruned;
  c "read_repairs" t.n_read_repairs;
  c "repair_rounds" t.n_repair_rounds;
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".items_live")) (float_of_int (items_live t))
