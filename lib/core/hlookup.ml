module Id = Hashid.Id
module M = Layered.Make (Chord.Routable)

type hop = Routing.hop = { from_node : int; to_node : int; latency : float; layer : int }

type result = Routing.result = {
  origin : int;
  key : Hashid.Id.t;
  destination : int;
  hops : hop list;
  hop_count : int;
  latency : float;
  hops_per_layer : int array;
  latency_per_layer : float array;
  finished_at_layer : int;
}

let route ?trace hnet ~origin ~key = M.route ?trace (Hnetwork.layered hnet) ~origin ~key
let route_hops_only ?into hnet ~origin ~key = M.route_hops ?into (Hnetwork.layered hnet) ~origin ~key

(* ---- failure-aware routing --------------------------------------------- *)

type attempt = Routing.attempt = {
  outcome : result option;
  retries : int;
  timeouts : int;
  fallbacks : int;
  layer_escapes : int;
  penalty_ms : float;
}

let route_resilient ?(trace = Obs.Trace.disabled) ?(policy = Chord.Lookup.default_policy) hnet
    ~is_alive ~origin ~key =
  let { Chord.Lookup.rpc_timeout_ms; max_retries; backoff_base_ms; backoff_mult; succ_window } =
    policy
  in
  if
    rpc_timeout_ms <= 0.0 || max_retries < 0 || backoff_base_ms < 0.0 || backoff_mult < 1.0
    || succ_window < 1
  then invalid_arg "Hieras.Hlookup: ill-formed resilience policy";
  if not (is_alive origin) then invalid_arg "Hieras.Hlookup.route_resilient: origin is dead";
  let net = Hnetwork.chord hnet in
  let lat = Hnetwork.latency_oracle hnet in
  let depth = Hnetwork.depth hnet in
  let sp = Chord.Network.space net in
  let n = Chord.Network.size net in
  let id_of i = Chord.Network.id net i in
  let traced = Obs.Trace.enabled trace in
  let lid =
    if traced then Obs.Trace.start trace ~algo:"hieras" ~origin ~key:(Id.to_hex key) else 0
  in
  let hops = ref [] in
  let count = ref 0 in
  let total = ref 0.0 in
  let per_hops = Array.make depth 0 in
  let per_lat = Array.make depth 0.0 in
  let pos = ref origin in
  let retries = ref 0 in
  let timeouts = ref 0 in
  let fallbacks = ref 0 in
  let escapes = ref 0 in
  let penalty = ref 0.0 in
  let record ~layer from_node to_node =
    let l =
      Topology.Latency.host_latency lat (Chord.Network.host net from_node)
        (Chord.Network.host net to_node)
    in
    if traced then
      Obs.Trace.hop trace ~lookup:lid ~seq:!count ~layer ~from_node ~to_node ~latency_ms:l;
    hops := { from_node; to_node; latency = l; layer } :: !hops;
    incr count;
    total := !total +. l;
    per_hops.(layer - 1) <- per_hops.(layer - 1) + 1;
    per_lat.(layer - 1) <- per_lat.(layer - 1) +. l;
    pos := to_node
  in
  let fallback ~layer at dead =
    fallbacks := !fallbacks + 1;
    if traced then
      Obs.Trace.recover trace ~lookup:lid ~kind:Obs.Trace.Fallback ~layer ~at_node:at
        ~dead_node:dead ~delay_ms:0.0
  in
  let probe ~layer at dead =
    timeouts := !timeouts + 1;
    for k = 0 to max_retries do
      let d = Chord.Lookup.attempt_delay policy k in
      retries := !retries + 1;
      penalty := !penalty +. d;
      total := !total +. d;
      if traced then
        Obs.Trace.recover trace ~lookup:lid ~kind:Obs.Trace.Retry ~layer ~at_node:at
          ~dead_node:dead ~delay_ms:d
    done;
    fallback ~layer at dead
  in
  let escape ~layer at dead =
    escapes := !escapes + 1;
    if traced then
      Obs.Trace.recover trace ~lookup:lid ~kind:Obs.Trace.Layer_escape ~layer ~at_node:at
        ~dead_node:dead ~delay_ms:0.0
  in
  let guard = 4 * (Id.bits sp + n) in
  (* One lower-ring loop under failures. Returns the stop position; [true]
     means the ring was found locally partitioned (>= succ_window dead ring
     successors in a row) and the walk escaped a layer early. *)
  let walk_ring_resilient ~layer ~start =
    let rec go cur steps =
      if steps > guard then failwith "Hieras.Hlookup: resilient ring loop did not terminate";
      (* first live node along the ring-successor chain, within the policy
         window; liveness of the chain is heartbeat-fresh, skips are free *)
      let rec chain node k skipped =
        if k >= succ_window then `Partitioned
        else
          let s = Hnetwork.ring_successor hnet ~layer node in
          if s = cur then `Wrapped (* every other ring member in reach is dead *)
          else if is_alive s then `Live (s, List.rev skipped)
          else chain s (k + 1) (s :: skipped)
      in
      match chain cur 0 [] with
      | `Wrapped -> (cur, false)
      | `Partitioned ->
          escape ~layer cur (Hnetwork.ring_successor hnet ~layer cur);
          (cur, true)
      | `Live (s, skipped) ->
          if Id.in_oc key ~lo:(id_of cur) ~hi:(id_of s) then begin
            (* no live ring member strictly between us and the key *)
            List.iter (fun d -> fallback ~layer cur d) skipped;
            (cur, false)
          end
          else begin
            let candidates = Hnetwork.preceding_candidates hnet ~layer cur ~key in
            let rec try_fingers = function
              | [] -> None
              | f :: rest ->
                  if is_alive f then Some f
                  else begin
                    probe ~layer cur f;
                    try_fingers rest
                  end
            in
            match try_fingers candidates with
            | Some next ->
                record ~layer cur next;
                go next (steps + 1)
            | None ->
                List.iter (fun d -> fallback ~layer cur d) skipped;
                record ~layer cur s;
                go s (steps + 1)
          end
    in
    go start 1
  in
  (* Early-exit check between layers, against the first live global
     successor instead of just the immediate one. *)
  let early_exit p =
    let snth k = Chord.Network.succ_list_nth net p k in
    let llen = Chord.Network.succ_list_len net in
    let rec first_live i =
      if i >= llen then None else if is_alive (snth i) then Some i else first_live (i + 1)
    in
    match first_live 0 with
    | Some i when Id.in_oc key ~lo:(id_of p) ~hi:(id_of (snth i)) ->
        for j = 0 to i - 1 do
          fallback ~layer:1 p (snth j)
        done;
        record ~layer:1 p (snth i);
        Some (snth i)
    | _ -> None
  in
  (* Final loop on the global ring: the resilient Chord walk, tagged layer 1. *)
  let rec global cur steps =
    if steps > guard then failwith "Hieras.Hlookup: resilient global loop did not terminate";
    let snth k = Chord.Network.succ_list_nth net cur k in
    let llen = Chord.Network.succ_list_len net in
    let rec first_live i =
      if i >= llen then None else if is_alive (snth i) then Some i else first_live (i + 1)
    in
    let emit_skips upto =
      for j = 0 to upto - 1 do
        fallback ~layer:1 cur (snth j)
      done
    in
    match first_live 0 with
    | Some i when Id.in_oc key ~lo:(id_of cur) ~hi:(id_of (snth i)) ->
        emit_skips i;
        record ~layer:1 cur (snth i);
        Some (snth i)
    | s_opt -> (
        let candidates = Chord.Network.preceding_candidates net cur ~key in
        let rec try_fingers = function
          | [] -> None
          | f :: rest ->
              if is_alive f then Some f
              else begin
                probe ~layer:1 cur f;
                try_fingers rest
              end
        in
        match try_fingers candidates with
        | Some next ->
            record ~layer:1 cur next;
            global next (steps + 1)
        | None -> (
            match s_opt with
            | Some i ->
                emit_skips i;
                record ~layer:1 cur (snth i);
                global (snth i) (steps + 1)
            | None -> None (* locally partitioned global ring: stalled *)))
  in
  let dest = ref None in
  let finished_at = ref 1 in
  (try
     if Id.in_oc key ~lo:(id_of (Chord.Network.predecessor net origin)) ~hi:(id_of origin)
     then begin
       dest := Some origin;
       finished_at := depth;
       raise Exit
     end;
     let current = ref origin in
     for layer = depth downto 2 do
       let p, _escaped = walk_ring_resilient ~layer ~start:!current in
       current := p;
       match early_exit p with
       | Some d ->
           dest := Some d;
           finished_at := layer;
           raise Exit
       | None -> ()
     done;
     dest := global !current 1
   with Exit -> ());
  if traced then
    Obs.Trace.finish trace ~lookup:lid
      ~destination:(Option.value ~default:!pos !dest)
      ~hops:!count ~latency_ms:!total ~finished_at_layer:!finished_at;
  let outcome =
    Option.map
      (fun destination ->
        {
          origin;
          key;
          destination;
          hops = List.rev !hops;
          hop_count = !count;
          latency = !total;
          hops_per_layer = per_hops;
          latency_per_layer = per_lat;
          finished_at_layer = !finished_at;
        })
      !dest
  in
  {
    outcome;
    retries = !retries;
    timeouts = !timeouts;
    fallbacks = !fallbacks;
    layer_escapes = !escapes;
    penalty_ms = !penalty;
  }
