module Id = Hashid.Id

module Base = struct
  type t = Network.t

  let name = "pastry"
  let layered_name = "hieras-pastry"
  let size = Network.size
  let host = Network.host
  let link_latency = Network.link_latency
  let guard t = 8 * (Id.digit_count4 (Network.space t) + Network.size t)
  let owner_of_key t ~key = Network.root_of_key t key

  let live_owner t ~is_alive ~key =
    let root = Network.root_of_key t key in
    if is_alive root then Some root
    else begin
      (* the root is down: ownership moves to the numerically closest live
         node (first index on ties — indices are id-sorted) *)
      let sp = Network.space t in
      let n = Network.size t in
      let best = ref (-1) and best_d = ref infinity in
      for i = 0 to n - 1 do
        if is_alive i then begin
          let d = Routing.num_dist sp (Network.id t i) key in
          if d < !best_d then begin
            best := i;
            best_d := d
          end
        end
      done;
      if !best >= 0 then Some !best else None
    end

  (* Pastry's routing procedure, towards the key's root [owner]: leaf-set
     delivery, then the routing-table cell for the key's next digit, then
     the "rare case" (any known node sharing at least as long a prefix and
     numerically closer), then the numerically closest leaf, which always
     makes progress along the circle *)
  let step t ~cur ~owner ~key =
    let sp = Network.space t in
    let id_of = Network.id t in
    let leaves = Network.leaf_set t cur in
    if Array.exists (( = ) owner) leaves then owner
    else begin
      let row = Network.shared_prefix_len t (id_of cur) key in
      match Network.table_entry t cur ~row ~col:(Id.digit4 sp key row) with
      | Some entry -> entry
      | None ->
          let best = ref (-1) and best_d = ref (Routing.num_dist sp (id_of cur) key) in
          let consider cand =
            if cand <> cur && Network.shared_prefix_len t (id_of cand) key >= row then begin
              let d = Routing.num_dist sp (id_of cand) key in
              if d < !best_d then begin
                best := cand;
                best_d := d
              end
            end
          in
          Array.iter consider leaves;
          for r = 0 to Network.rows t - 1 do
            for c = 0 to 15 do
              Option.iter consider (Network.table_entry t cur ~row:r ~col:c)
            done
          done;
          if !best >= 0 then !best
          else
            Array.fold_left
              (fun acc cand ->
                if Routing.num_dist sp (id_of cand) key < Routing.num_dist sp (id_of acc) key then
                  cand
                else acc)
              cur leaves
    end

  (* every contact the node knows: leaf set + all routing-table cells *)
  let known_contacts t cur =
    let acc = ref [] in
    Array.iter (fun l -> acc := l :: !acc) (Network.leaf_set t cur);
    for r = 0 to Network.rows t - 1 do
      for c = 0 to 15 do
        match Network.table_entry t cur ~row:r ~col:c with
        | Some cand -> acc := cand :: !acc
        | None -> ()
      done
    done;
    !acc

  (* strictly numerically-closer members of [keep], closest first (index on
     ties), deduplicated — the monotone fallback order behind the preferred
     next hop *)
  let closing_contacts t ~keep ~cur ~key =
    let sp = Network.space t in
    let my = Routing.num_dist sp (Network.id t cur) key in
    let by_closeness a b =
      let da = Routing.num_dist sp (Network.id t a) key
      and db = Routing.num_dist sp (Network.id t b) key in
      if da <> db then Float.compare da db else Int.compare a b
    in
    known_contacts t cur
    |> List.filter (fun c -> c <> cur && keep c && Routing.num_dist sp (Network.id t c) key < my)
    |> List.sort_uniq by_closeness

  let candidates t ~cur ~owner ~key =
    let next = step t ~cur ~owner ~key in
    let rest =
      closing_contacts t ~keep:(fun _ -> true) ~cur ~key |> List.filter (fun c -> c <> next)
    in
    if next = cur then rest else next :: rest

  (* no heartbeat window: every dead contact is found by probing *)
  let window _ ~cur:_ = []
  let covers _ ~cur:_ ~upto:_ ~owner:_ ~key:_ = false

  (* A HIERAS ring over a Pastry subset: the members on the identifier
     circle, walked by numerical closeness — contact-list shortcuts when a
     known contact is an in-ring member strictly closer to the key, circle
     neighbors otherwise. *)
  type layer = Routing.Circle.t

  let make_layer t ~rings =
    Routing.Circle.make ~space:(Network.space t) ~id_of:(Network.id t) ~size:(Network.size t) ~rings

  let ring_candidates t layer ~cur ~owner:_ ~key =
    let cands = closing_contacts t ~keep:(Routing.Circle.same layer cur) ~cur ~key in
    let tw = Routing.Circle.toward layer ~cur ~key in
    if tw = cur || List.mem tw cands then cands else cands @ [ tw ]

  (* the walk stops at the member numerically closest to the key *)
  let ring_step t layer ~cur ~owner ~key =
    if Routing.Circle.root layer ~cur ~key = cur then cur
    else
      match ring_candidates t layer ~cur ~owner ~key with
      | next :: _ -> next
      | [] -> cur (* unreachable: [toward] makes progress off the root *)

  let ring_window _ _ ~cur:_ = []

  (* leaf-set delivery: the current node already knows the key's root *)
  let early_finish t ~cur ~owner ~key:_ =
    if Array.exists (( = ) owner) (Network.leaf_set t cur) then Some owner else None
end

include Routing.Extend (Base)

let make net = net
let network (t : t) = t
