(* The message-level experiment harness shared by Soak and Cache: the pool
   bring-up, one view of both protocols and the cell driver. *)

module Engine = Simnet.Engine
module Id = Hashid.Id
module Kv = Store.Kv

type algo = Chord_ring | Hieras_rings

let algo_name = function Chord_ring -> "chord" | Hieras_rings -> "hieras"

(* Checked before any construction: Landmark.choose_spread cannot pick more
   landmarks than the topology has routers. *)
let validate ~pool ~loss ~depth ~landmarks =
  let routers = Topology.Model.routers Transit_stub ~hosts:pool in
  if loss < 0.0 || loss >= 1.0 then Error (Printf.sprintf "--loss must be in [0, 1) (got %g)" loss)
  else if depth < 2 || depth > 4 then
    Error (Printf.sprintf "--depth must be between 2 and 4 (got %d)" depth)
  else if landmarks < 1 then Error (Printf.sprintf "--landmarks must be >= 1 (got %d)" landmarks)
  else if landmarks > routers then
    Error
      (Printf.sprintf "--landmarks must not exceed the %d routers of a %d-node pool (got %d)"
         routers pool landmarks)
  else Ok ()

type proto = {
  sub : Kv.substrate;
  rings : Chord.Ring.t array;
  join : addr:int -> bootstrap:int -> unit;
  fail : int -> unit;
}

let global_succ p a = Chord.Ring.successor_addr p.rings.(0) a
let maintenance_ops p = Chord.Ring.maintenance_ops p.rings.(0)

let convergence p =
  Array.fold_left
    (fun (c, d, total) r ->
      let s = Chord.Ring.stability r in
      ( c + Simnet.Stability.convergences s,
        d + Simnet.Stability.disturbances s,
        total +. Simnet.Stability.total_convergence_ms s ))
    (0, 0, 0.0) p.rings

let converged p = Array.for_all (fun r -> Simnet.Stability.is_stable (Chord.Ring.stability r)) p.rings

type t = {
  lat : Topology.Latency.t;
  proto : proto;
  settle_ms : float;
  net_trace : Buffer.t;
}

let start ?ts ?(adaptive = false) ?(succ_list_min = 0) ~pool ~initial ~loss ~depth ~landmarks
    ~net_sample ~seed ~fi ~tag algo =
  let space = Id.space ~bits:32 in
  let id_of i = Id.of_hash space (Printf.sprintf "peer-%d" i) in
  let lat = Topology.Transit_stub.generate ~hosts:pool (Prng.Rng.create ~seed) in
  let eng =
    Engine.create ~latency:(fun a b -> Topology.Latency.host_latency lat a b) ~nodes:pool
  in
  if loss > 0.0 then Engine.set_loss eng ~rate:loss ~rng:(Prng.Rng.create ~seed:(seed + 13 + fi));
  Option.iter (Engine.attach_timeseries eng) ts;
  (* Net tracing buffers into the cell (one writer per engine — workers
     never share a sink); the ctx tag keeps lines attributable after the
     driver concatenates the cells in fixed order. *)
  let net_trace = Buffer.create (if net_sample = None then 0 else 4096) in
  Option.iter
    (fun sample ->
      let ctx = algo_name algo ^ "." ^ tag in
      Engine.attach_netspan eng (Obs.Netspan.jsonl ~ctx ~sample (Buffer.add_string net_trace)))
    net_sample;
  let proto =
    match algo with
    | Chord_ring ->
        let d = Chord.Protocol.default_config space in
        let cfg = { d with adaptive; succ_list_len = max d.succ_list_len succ_list_min } in
        let c = Chord.Protocol.create ?ts cfg eng in
        Chord.Protocol.spawn c ~addr:0 ~id:(id_of 0);
        {
          sub = Kv.chord_substrate c;
          rings = Chord.Protocol.rings c;
          join = (fun ~addr ~bootstrap -> Chord.Protocol.join c ~addr ~id:(id_of addr) ~bootstrap);
          fail = Chord.Protocol.fail_node c;
        }
    | Hieras_rings ->
        let lms =
          Binning.Landmark.choose_spread lat ~count:landmarks (Prng.Rng.create ~seed:(seed + 5))
        in
        let d = Hieras.Hprotocol.default_config space ~depth in
        let cfg = { d with adaptive; succ_list_len = max d.succ_list_len succ_list_min } in
        let h = Hieras.Hprotocol.create ?ts cfg eng ~lat ~landmarks:lms in
        Hieras.Hprotocol.spawn h ~addr:0 ~id:(id_of 0);
        {
          sub = Kv.hieras_substrate h;
          rings = Hieras.Hprotocol.rings h;
          join = (fun ~addr ~bootstrap -> Hieras.Hprotocol.join h ~addr ~id:(id_of addr) ~bootstrap);
          fail = Hieras.Hprotocol.fail_node h;
        }
  in
  for i = 1 to initial - 1 do
    Engine.schedule eng ~delay:(float_of_int i *. 400.0) (fun () -> proto.join ~addr:i ~bootstrap:0)
  done;
  { lat; proto; settle_ms = (float_of_int initial *. 400.0) +. 15_000.0; net_trace }

let run_cells pool params cell =
  let inputs =
    Array.of_list (List.concat_map (fun p -> [ (p, Chord_ring); (p, Hieras_rings) ]) params)
  in
  Parallel.Pool.map_chunks pool ~n:(Array.length inputs) ~chunk_size:1 (fun ~lo ~hi:_ ->
      let p, algo = inputs.(lo) in
      cell ~fi:(lo / 2) p algo)
