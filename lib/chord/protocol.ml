module Id = Hashid.Id
module Engine = Simnet.Engine

type config = Ring.config = {
  space : Id.space;
  succ_list_len : int;
  rpc_timeout : float;
  adaptive : bool;
}

let default_config = Ring.default_config

type t = { cfg : config; eng : Engine.t; rings : Ring.t array; ring : Ring.t }

let create ?ts cfg eng =
  let rings = Ring.create ?ts ~prefix:"chord" ~rings:1 cfg eng in
  { cfg; eng; rings; ring = rings.(0) }

let engine t = t.eng
let config t = t.cfg
let rings t = t.rings
let stability t = Ring.stability t.ring
let converged t = Simnet.Stability.is_stable (stability t)
let interval_scale t = Ring.scale t.ring
let maintenance_ops t = Ring.maintenance_ops t.ring
let is_member t addr = Ring.mem t.ring addr && Engine.is_alive t.eng addr
let node_id t addr = (Ring.find t.ring addr).id
let successor_addr t addr = Ring.successor_addr t.ring addr
let predecessor_addr t addr = Ring.predecessor_addr t.ring addr
let successor_list_addrs t addr = Ring.successor_list_addrs t.ring addr
let finger_addrs t addr = Ring.finger_addrs t.ring addr
let ring_from t start = Ring.ring_from t.ring start
let live_members t = Ring.live_members t.ring

(* --- lifecycle --------------------------------------------------------- *)

let fresh_node t ~addr ~id =
  if Ring.mem t.ring addr then invalid_arg "Chord.Protocol: address already in use";
  Ring.add t.ring ~addr ~id

let spawn t ~addr ~id =
  let s = fresh_node t ~addr ~id in
  s.succs <- [ Ring.self_peer s ];
  Ring.start t.ring s;
  Ring.lifecycle t.rings `Spawn

let join t ~addr ~id ~bootstrap =
  let s = fresh_node t ~addr ~id in
  s.anchor <- bootstrap;
  Ring.lifecycle t.rings `Join;
  Ring.join t.ring s ~bootstrap ~joined:(fun () ->
      Ring.start t.ring s;
      Ring.joined t.rings)

let fail_node t addr =
  if not (Ring.mem t.ring addr) then invalid_arg "Chord.Protocol.fail_node: unknown node";
  Engine.kill t.eng addr;
  Ring.lifecycle t.rings `Fail

type lookup_outcome = Ring.outcome = {
  owner_addr : int;
  owner_id : Id.t;
  hops : int;
  lower_hops : int;
}

let lookup t ~origin ~key k = Ring.lookup t.rings ~origin ~key k

let export_metrics ?(prefix = "chord.protocol") t m =
  let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter m (prefix ^ "." ^ name)) v in
  let n = Ring.counts t.ring in
  c "maint.stabilize" n.stabilize;
  c "maint.notify" n.notify;
  c "maint.fix_fingers" n.fix_fingers;
  c "maint.check_pred" n.check_pred;
  c "maint.total" (maintenance_ops t);
  Obs.Metrics.set (Obs.Metrics.gauge m (prefix ^ ".maint.scale")) (interval_scale t);
  Simnet.Stability.export_metrics ~prefix:(prefix ^ ".stability") (stability t) m
