module Id = Hashid.Id

type t = {
  d : int;
  hosts : int array;
  points : float array array;
  zones : Zone.t array;
  neighbors : int list array;
}

let dims t = t.d
let size t = Array.length t.hosts
let host t i = t.hosts.(i)
let point t i = t.points.(i)
let zone t i = t.zones.(i)
let neighbors t i = t.neighbors.(i)

(* the greedy step: the neighbor whose zone is torus-closest to [point],
   first strictly-improving minimum in neighbor-list order; [cur] itself on
   a greedy dead end *)
let greedy_in ~zones ~neighbors ~point cur =
  let best = ref cur and best_d = ref (Zone.torus_distance zones.(cur) point) in
  List.iter
    (fun v ->
      let d = Zone.torus_distance zones.(v) point in
      if d < !best_d then begin
        best := v;
        best_d := d
      end)
    neighbors.(cur);
  !best

let greedy t ~point ~cur = greedy_in ~zones:t.zones ~neighbors:t.neighbors ~point cur

(* greedy descent to the zone containing [p], used both by the builder (to
   find the zone a joining point lands in) and by owner queries *)
let locate ~zones ~neighbors start p =
  let guard = 4 * (Array.length zones + 4) in
  let rec go cur steps =
    if Zone.contains zones.(cur) p then cur
    else if steps >= guard then failwith "Can.Network.locate: lost in space"
    else
      let next = greedy_in ~zones ~neighbors ~point:p cur in
      if next = cur then failwith "Can.Network.locate: greedy dead end" else go next (steps + 1)
  in
  go start 0

let of_points ~hosts ~points =
  let n = Array.length hosts in
  if n = 0 then invalid_arg "Can.Network: empty network";
  if Array.length points <> n then invalid_arg "Can.Network: points/hosts misaligned";
  let d = Array.length points.(0) in
  Array.iter
    (fun p ->
      if Array.length p <> d then invalid_arg "Can.Network: inconsistent dimensions";
      Array.iter (fun x -> if x < 0.0 || x >= 1.0 then invalid_arg "Can.Network: point outside [0,1)") p)
    points;
  let zones = Array.make n (Zone.unit d) in
  let neighbors = Array.make n [] in
  (* sequential joins: node i splits the zone containing its point *)
  for i = 1 to n - 1 do
    let owner = locate ~zones ~neighbors 0 points.(i) in
    let lower, upper = Zone.split zones.(owner) in
    (* the newcomer takes the half containing its own point, the previous
       owner the other half (real CAN: the zone, not the point, is a node's
       identity — an owner's point can drift outside after splits) *)
    let owner_zone, new_zone =
      if Zone.contains lower points.(i) then (upper, lower) else (lower, upper)
    in
    zones.(owner) <- owner_zone;
    zones.(i) <- new_zone;
    (* the new node's neighbors are a subset of the owner's old neighbors,
       plus the owner; the owner's set shrinks to those still adjacent *)
    let old_neighbors = neighbors.(owner) in
    let keep_owner = ref [] and take_new = ref [] in
    List.iter
      (fun w ->
        if Zone.adjacent zones.(w) owner_zone then keep_owner := w :: !keep_owner;
        if Zone.adjacent zones.(w) new_zone then take_new := w :: !take_new)
      old_neighbors;
    neighbors.(owner) <- i :: !keep_owner;
    neighbors.(i) <- owner :: !take_new;
    (* old neighbors update their own views *)
    List.iter
      (fun w ->
        let without = List.filter (fun v -> v <> owner) neighbors.(w) in
        let with_owner =
          if Zone.adjacent zones.(w) owner_zone then owner :: without else without
        in
        neighbors.(w) <-
          (if Zone.adjacent zones.(w) new_zone then i :: with_owner else with_owner))
      old_neighbors
  done;
  { d; hosts = Array.copy hosts; points; zones; neighbors }

(* a point inside its own zone must exist: derive coordinates by hashing the
   peer's name per dimension *)
let coord_of_hash name k =
  let h = Hashid.Sha1.digest (Printf.sprintf "%s/dim%d" name k) in
  (* 6 bytes -> uniform in [0,1) *)
  let v = ref 0.0 and scale = ref 1.0 in
  for i = 0 to 5 do
    scale := !scale /. 256.0;
    v := !v +. (float_of_int (Char.code h.[i]) *. !scale)
  done;
  !v

let build ~space ~hosts ?(dims = 2) () =
  ignore space;
  if dims < 1 then invalid_arg "Can.Network.build: dims must be >= 1";
  let n = Array.length hosts in
  let points =
    Array.init n (fun i ->
        Array.init dims (fun k -> coord_of_hash (Printf.sprintf "can-peer:%d" i) k))
  in
  of_points ~hosts ~points

let owner_of_point t p =
  if Array.length p <> t.d then invalid_arg "Can.Network.owner_of_point: bad dimension";
  locate ~zones:t.zones ~neighbors:t.neighbors 0 p

let key_point t key =
  Array.init t.d (fun k -> coord_of_hash ("key:" ^ Id.to_hex key) k)

let owner_of_key t key = owner_of_point t (key_point t key)

let mean_neighbors t =
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 t.neighbors in
  float_of_int total /. float_of_int (max 1 (size t))

let zones_partition_space t =
  let vol = Array.fold_left (fun acc z -> acc +. Zone.volume z) 0.0 t.zones in
  if Float.abs (vol -. 1.0) >= 1e-9 then false
  else begin
    (* probabilistic disjointness/coverage: hash-derived probe points must
       each fall in exactly one zone *)
    let ok = ref true in
    for probe = 0 to 99 do
      let p = Array.init t.d (fun k -> coord_of_hash (Printf.sprintf "probe-%d" probe) k) in
      let containing = Array.fold_left (fun acc z -> if Zone.contains z p then acc + 1 else acc) 0 t.zones in
      if containing <> 1 then ok := false
    done;
    !ok
  end
