(* HIERAS layering as a functor over any [Routing.S] substrate: the one
   fault-free HIERAS walk. The layer structure — landmark binning,
   refinement chains, one ring per order string per layer — is built here
   once and handed to the substrate as one [R.layer] per layer; the walk is
   the paper's multi-loop composition (§3.2) through the substrate's ring
   primitives. Over [Chord.Routable] the layers are the packed arenas
   [Hnetwork] exposes; over [Can.Routable] this is the paper's
   HIERAS-over-CAN sketch. *)

module Id = Hashid.Id

module Make (R : Routing.S) = struct
  type t = {
    base : R.t;
    depth : int;
    orders : string array array; (* orders.(k).(node), k = layer - 2 *)
    rings : (string, int array) Hashtbl.t array; (* rings.(k) : order -> members *)
    ring_of : int array array array; (* ring_of.(k).(node) : the node's ring members *)
    layers : R.layer array; (* layers.(k) *)
  }

  let name = R.layered_name

  let build ~base ~lat ~landmarks ~depth ?measure () =
    if depth < 2 then invalid_arg "Hieras.Make: depth must be >= 2";
    let n = R.size base in
    let measure =
      match measure with
      | Some f -> f
      | None -> fun ~host -> Binning.Landmark.measure lat landmarks ~host
    in
    let chain = Binning.Scheme.refinement_chain ~depth in
    (* one measurement vector per node, quantised once per layer *)
    let vectors = Array.init n (fun i -> measure ~host:(R.host base i)) in
    let orders =
      Array.init (depth - 1) (fun k ->
          Array.init n (fun i -> Binning.Scheme.order chain.(k) vectors.(i)))
    in
    let rings =
      Array.map
        (fun os ->
          let groups : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
          (* prepending from n-1 downto 0 keeps members ascending by node index *)
          for i = n - 1 downto 0 do
            match Hashtbl.find_opt groups os.(i) with
            | Some l -> l := i :: !l
            | None -> Hashtbl.replace groups os.(i) (ref [ i ])
          done;
          Hashtbl.to_seq groups |> Seq.map (fun (o, l) -> (o, Array.of_list !l)) |> Hashtbl.of_seq)
        orders
    in
    let ring_of = Array.mapi (fun k os -> Array.map (Hashtbl.find rings.(k)) os) orders in
    let layers =
      Array.map (fun r -> R.make_layer base ~rings:(Hashtbl.fold (fun _ m acc -> m :: acc) r [])) rings
    in
    { base; depth; orders; rings; ring_of; layers }

  let base t = t.base
  let depth t = t.depth
  let size t = R.size t.base
  let host t i = R.host t.base i

  let check_layer t layer =
    if layer < 2 || layer > t.depth then invalid_arg "Hieras.Make: layer out of range"

  let order_of_node t ~layer node =
    check_layer t layer;
    t.orders.(layer - 2).(node)

  let ring_count t ~layer =
    check_layer t layer;
    Hashtbl.length t.rings.(layer - 2)

  let ring_orders t ~layer =
    check_layer t layer;
    Hashtbl.fold (fun o _ acc -> o :: acc) t.rings.(layer - 2) [] |> List.sort String.compare

  let ring_members t ~layer ~order =
    check_layer t layer;
    match Hashtbl.find_opt t.rings.(layer - 2) order with
    | None -> [||]
    | Some members -> Array.copy members

  let ring_size_of_node t ~layer node =
    check_layer t layer;
    Array.length t.ring_of.(layer - 2).(node)

  let layer_state t ~layer =
    check_layer t layer;
    t.layers.(layer - 2)

  let owner_of_key t ~key = R.owner_of_key t.base ~key
  let live_owner t ~is_alive ~key = R.live_owner t.base ~is_alive ~key

  (* The multi-loop composition (paper §3.2): descend layers [depth .. 2],
     each ring walk stopping where the layer makes no further progress
     (for Chord: at the ring member that most closely precedes the key, so
     every layer only moves the message clockwise towards it), with the
     substrate's early-exit check between layers, then the substrate's flat
     walk. Returns (destination, finished_at_layer); [record] sees every
     hop. *)
  let walk_layers t ~origin ~key ~record =
    let owner = R.owner_of_key t.base ~key in
    let guard = R.guard t.base in
    let current = ref origin in
    let finished_at = ref 1 in
    (try
       if !current = owner then begin
         (* the originator owns the key *)
         finished_at := t.depth;
         raise Exit
       end;
       for layer = t.depth downto 2 do
         let lr = t.layers.(layer - 2) in
         let steps = ref 0 in
         let next = ref (R.ring_step t.base lr ~cur:!current ~key) in
         while !next <> !current do
           incr steps;
           if !steps > guard then failwith "Hieras.Make: ring loop did not terminate";
           record ~layer !current !next;
           current := !next;
           next := R.ring_step t.base lr ~cur:!current ~key
         done;
         (* the layer-k stop may itself own the key (CAN's zone check); a
            Chord ring stop precedes the key strictly, so there it never
            fires *)
         if !current = owner then begin
           finished_at := layer;
           raise Exit
         end;
         match R.early_finish t.base ~cur:!current ~key with
         | Some next ->
             record ~layer:1 !current next;
             current := next;
             finished_at := layer;
             raise Exit
         | None -> ()
       done;
       let steps = ref 0 in
       while !current <> owner do
         incr steps;
         if !steps > guard then failwith "Hieras.Make: global loop did not terminate";
         let next = R.step t.base ~cur:!current ~key in
         record ~layer:1 !current next;
         current := next
       done;
       finished_at := 1
     with Exit -> ());
    assert (!current = owner);
    (!current, !finished_at)

  let route ?(trace = Obs.Trace.disabled) t ~origin ~key =
    let traced = Obs.Trace.enabled trace in
    let lid =
      if traced then Obs.Trace.start trace ~algo:name ~origin ~key:(Id.to_hex key) else 0
    in
    let hops = ref [] in
    let count = ref 0 in
    let total = ref 0.0 in
    let per_hops = Array.make t.depth 0 in
    let per_lat = Array.make t.depth 0.0 in
    let record ~layer from_node to_node =
      let l = R.link_latency t.base from_node to_node in
      if traced then
        Obs.Trace.hop trace ~lookup:lid ~seq:!count ~layer ~from_node ~to_node ~latency_ms:l;
      hops := { Routing.from_node; to_node; latency = l; layer } :: !hops;
      incr count;
      total := !total +. l;
      per_hops.(layer - 1) <- per_hops.(layer - 1) + 1;
      per_lat.(layer - 1) <- per_lat.(layer - 1) +. l
    in
    let destination, finished_at = walk_layers t ~origin ~key ~record in
    if traced then
      Obs.Trace.finish trace ~lookup:lid ~destination ~hops:!count ~latency_ms:!total
        ~finished_at_layer:finished_at;
    {
      Routing.origin;
      key;
      destination;
      hops = List.rev !hops;
      hop_count = !count;
      latency = !total;
      hops_per_layer = per_hops;
      latency_per_layer = per_lat;
      finished_at_layer = finished_at;
    }

  let route_hops ?into t ~origin ~key =
    let per_hops =
      match into with
      | Some a ->
          if Array.length a < t.depth then
            invalid_arg "Hieras.Make.route_hops: scratch buffer shorter than depth";
          Array.fill a 0 t.depth 0;
          a
      | None -> Array.make t.depth 0
    in
    let count = ref 0 in
    let record ~layer _ _ =
      incr count;
      per_hops.(layer - 1) <- per_hops.(layer - 1) + 1
    in
    let destination, finished_at = walk_layers t ~origin ~key ~record in
    (!count, per_hops, destination, finished_at)

  let route_hops_only t ~origin ~key =
    let count = ref 0 in
    let record ~layer:_ _ _ = incr count in
    let destination, _ = walk_layers t ~origin ~key ~record in
    (!count, destination)

  let route_resilient ?(trace = Obs.Trace.disabled) ?(policy = Routing.default_policy) t
      ~is_alive ~origin ~key =
    Routing.check_policy policy;
    if not (is_alive origin) then invalid_arg (name ^ ".route_resilient: origin is dead");
    let traced = Obs.Trace.enabled trace in
    let lid =
      if traced then Obs.Trace.start trace ~algo:name ~origin ~key:(Id.to_hex key) else 0
    in
    let hops = ref [] in
    let count = ref 0 in
    let total = ref 0.0 in
    let per_hops = Array.make t.depth 0 in
    let per_lat = Array.make t.depth 0.0 in
    let pos = ref origin in
    let retries = ref 0 in
    let timeouts = ref 0 in
    let fallbacks = ref 0 in
    let escapes = ref 0 in
    let penalty = ref 0.0 in
    let record ~layer from_node to_node =
      let l = R.link_latency t.base from_node to_node in
      if traced then
        Obs.Trace.hop trace ~lookup:lid ~seq:!count ~layer ~from_node ~to_node ~latency_ms:l;
      hops := { Routing.from_node; to_node; latency = l; layer } :: !hops;
      incr count;
      total := !total +. l;
      per_hops.(layer - 1) <- per_hops.(layer - 1) + 1;
      per_lat.(layer - 1) <- per_lat.(layer - 1) +. l;
      pos := to_node
    in
    let probe ~layer at dead =
      timeouts := !timeouts + 1;
      for k = 0 to policy.Routing.max_retries do
        let d = Routing.attempt_delay policy k in
        retries := !retries + 1;
        penalty := !penalty +. d;
        total := !total +. d;
        if traced then
          Obs.Trace.recover trace ~lookup:lid ~kind:Obs.Trace.Retry ~layer ~at_node:at
            ~dead_node:dead ~delay_ms:d
      done;
      fallbacks := !fallbacks + 1;
      if traced then
        Obs.Trace.recover trace ~lookup:lid ~kind:Obs.Trace.Fallback ~layer ~at_node:at
          ~dead_node:dead ~delay_ms:0.0
    in
    let escape ~layer at dead =
      escapes := !escapes + 1;
      if traced then
        Obs.Trace.recover trace ~lookup:lid ~kind:Obs.Trace.Layer_escape ~layer ~at_node:at
          ~dead_node:dead ~delay_ms:0.0
    in
    let rec first_live ~layer at = function
      | [] -> None
      | c :: rest ->
          if is_alive c then Some c
          else begin
            probe ~layer at c;
            first_live ~layer at rest
          end
    in
    let guard = R.guard t.base in
    let dest = ref None in
    let finished_at = ref 1 in
    (match R.live_owner t.base ~is_alive ~key with
    | None -> () (* no live owner: the lookup cannot succeed *)
    | Some target -> (
        let current = ref origin in
        try
          if origin = target then begin
            dest := Some origin;
            finished_at := t.depth;
            raise Exit
          end;
          for layer = t.depth downto 2 do
            let lr = t.layers.(layer - 2) in
            let steps = ref 0 in
            let walking = ref true in
            while !walking do
              let cur = !current in
              if R.ring_step t.base lr ~cur ~key = cur then walking := false
              else begin
                incr steps;
                if !steps > guard then begin
                  escape ~layer cur cur;
                  walking := false
                end
                else
                  match first_live ~layer cur (R.ring_candidates t.base lr ~cur ~key) with
                  | Some next ->
                      record ~layer cur next;
                      current := next
                  | None ->
                      (* no live in-ring route: climb a layer early *)
                      escape ~layer cur cur;
                      walking := false
              end
            done;
            (* the target check mirrors [walk_layers]'s post-walk owner check
               (not a per-step shortcut): with everyone alive the resilient
               walk must replay [route] hop for hop *)
            if !current = target then begin
              dest := Some target;
              finished_at := layer;
              raise Exit
            end;
            match R.early_finish t.base ~cur:!current ~key with
            | Some next ->
                if is_alive next then begin
                  record ~layer:1 !current next;
                  current := next;
                  if next = target then begin
                    dest := Some target;
                    finished_at := layer;
                    raise Exit
                  end
                end
                else probe ~layer:1 !current next
            | None -> ()
          done;
          let steps = ref 0 in
          let live = ref true in
          while !live && !current <> target do
            incr steps;
            if !steps > guard then live := false
            else
              match first_live ~layer:1 !current (R.candidates t.base ~cur:!current ~key) with
              | Some next ->
                  record ~layer:1 !current next;
                  current := next
              | None -> live := false
          done;
          if !live then begin
            dest := Some target;
            finished_at := 1
          end
        with Exit -> ()));
    if traced then
      Obs.Trace.finish trace ~lookup:lid
        ~destination:(Option.value ~default:!pos !dest)
        ~hops:!count ~latency_ms:!total ~finished_at_layer:!finished_at;
    let outcome =
      Option.map
        (fun destination ->
          {
            Routing.origin;
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
      Routing.outcome;
      retries = !retries;
      timeouts = !timeouts;
      fallbacks = !fallbacks;
      layer_escapes = !escapes;
      penalty_ms = !penalty;
    }
end
