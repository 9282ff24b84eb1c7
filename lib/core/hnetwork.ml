module Id = Hashid.Id
module M = Layered.Make (Chord.Routable)

(* The state of [Make (Chord.Routable)] — orders, rings and one packed
   arena per layer (DESIGN.md §12) — plus what only Chord has: ring tables
   (built on demand from a ring's extremes) and the landmarks. *)
type t = { layered : M.t; lat : Topology.Latency.t; landmarks : Binning.Landmark.t }

let build ~chord ~lat ~landmarks ~depth ?measure () =
  if depth < 2 then invalid_arg "Hnetwork.build: depth must be >= 2";
  let base = Chord.Routable.make ~net:chord ~lat in
  { layered = M.build ~base ~lat ~landmarks ~depth ?measure (); lat; landmarks }

let layered t = t.layered
let chord t = Chord.Routable.network (M.base t.layered)
let latency_oracle t = t.lat
let depth t = M.depth t.layered
let landmarks t = t.landmarks
let size t = M.size t.layered

let check_layer t layer =
  if layer < 2 || layer > depth t then invalid_arg "Hnetwork: layer out of range"

let order_of_node t ~layer node =
  check_layer t layer;
  M.order_of_node t.layered ~layer node

let ring_count t ~layer =
  check_layer t layer;
  M.ring_count t.layered ~layer

let ring_names t ~layer =
  check_layer t layer;
  List.map (fun order -> Ring_name.make ~layer ~order) (M.ring_orders t.layered ~layer)

let ring_members t ~layer ~order =
  check_layer t layer;
  M.ring_members t.layered ~layer ~order

let ring_size_of_node t ~layer node =
  check_layer t layer;
  M.ring_size_of_node t.layered ~layer node

let pack t layer =
  check_layer t layer;
  M.layer_state t.layered ~layer

let ring_successor t ~layer node = Chord.Routable.layer_successor (pack t layer) node
let ring_predecessor t ~layer node = Chord.Routable.layer_predecessor (pack t layer) node

let finger_table t ~layer node =
  if layer = 1 then Chord.Network.finger_table (chord t) node
  else Chord.Routable.layer_finger_table (M.base t.layered) (pack t layer) node

let closest_preceding_finger t ~layer node ~key =
  if layer = 1 then Chord.Network.closest_preceding_finger (chord t) node ~key
  else Chord.Routable.layer_closest_preceding (M.base t.layered) (pack t layer) node ~key

let preceding_candidates t ~layer node ~key =
  if layer = 1 then Chord.Network.preceding_candidates (chord t) node ~key
  else Chord.Routable.layer_preceding_candidates (M.base t.layered) (pack t layer) node ~key

let total_finger_segments t ~layer = Chord.Routable.layer_segments (pack t layer)

(* the table keeps only the 2 smallest + 2 largest identifiers; members are
   sorted and distinct, so feeding just the extreme entries yields the same
   table as the full list *)
let ring_table t ~layer ~order =
  match ring_members t ~layer ~order with
  | [||] -> None
  | members ->
      let net = chord t in
      let m = Array.length members in
      let entry pos = { Ring_table.node = members.(pos); id = Chord.Network.id net members.(pos) } in
      let extremes =
        if m <= 4 then List.init m entry else [ entry 0; entry 1; entry (m - 2); entry (m - 1) ]
      in
      Some (Ring_table.of_members (Chord.Network.space net) (Ring_name.make ~layer ~order) extremes)

let ring_table_manager t rname =
  let net = chord t in
  Chord.Network.successor_of_key net (Ring_name.ring_id (Chord.Network.space net) rname)

let bytes_resident t =
  let word = Sys.word_size / 8 in
  let arr len = (len + 1) * word in
  let n = size t in
  let per_layer layer =
    let orders = ref (arr n) (* order strings: one short string per node *) in
    for node = 0 to n - 1 do
      let o = M.order_of_node t.layered ~layer node in
      orders := !orders + word + (((String.length o / word) + 1) * word)
    done;
    Chord.Routable.layer_bytes_resident (pack t layer) + !orders + arr n (* ring_of row *)
  in
  let layers = ref 0 in
  for layer = 2 to depth t do
    layers := !layers + per_layer layer
  done;
  Chord.Network.bytes_resident (chord t) + !layers

(* two nodes sharing a deep ring must share every shallower ring: each
   deep ring's members all carry one shallow order *)
let nesting_ok t =
  let m = t.layered in
  let nested layer order =
    let members = M.ring_members m ~layer ~order in
    let shallow = M.order_of_node m ~layer:(layer - 1) members.(0) in
    Array.for_all (fun node -> M.order_of_node m ~layer:(layer - 1) node = shallow) members
  in
  let ok = ref true in
  for layer = 3 to depth t do
    ok := !ok && List.for_all (nested layer) (M.ring_orders m ~layer)
  done;
  !ok
