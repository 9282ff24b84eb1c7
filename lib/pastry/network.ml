module Id = Hashid.Id

type t = {
  space : Id.space;
  ids : Id.t array; (* sorted ascending; node i has ids.(i) *)
  hosts : int array;
  lat : Topology.Latency.t;
  rows : int;
  (* tables.(node).((row * 16) + col) = node index, or -1 for empty *)
  tables : int array array;
  leaves : int array array; (* leaves.(node) = its leaf set *)
}

let space t = t.space
let size t = Array.length t.ids
let id t i = t.ids.(i)
let host t i = t.hosts.(i)
let rows t = t.rows

let shared_prefix_len t a b =
  let n = Id.digit_count4 t.space in
  let rec go i = if i < n && Id.digit4 t.space a i = Id.digit4 t.space b i then go (i + 1) else i in
  go 0

(* A leaf set of 16, Pastry's |L| default. *)
let leaf_radius = 8

(* bounds the proximity sampling per routing-table cell *)
let candidates_per_cell = 16

(* The set's order is the [Hashtbl]'s, which the routing steps' scans and
   fallbacks read. *)
let compute_leaf_set ~n i =
  let r = min leaf_radius ((n - 1) / 2) in
  let acc = ref [] in
  for k = 1 to r do
    acc := ((i + k) mod n) :: ((i + n - k) mod n) :: !acc
  done;
  (* odd small networks: make sure every other node appears at most once *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun v -> if v <> i && not (Hashtbl.mem seen v) then Hashtbl.replace seen v ())
    !acc;
  Array.of_seq (Hashtbl.to_seq_keys seen)

let leaf_set t i = t.leaves.(i)

let table_entry t i ~row ~col =
  if row < 0 || row >= t.rows || col < 0 || col > 15 then None
  else
    let v = t.tables.(i).((row * 16) + col) in
    if v < 0 then None else Some v

(* sort peers by identifier, keeping host alignment (same as Chord) *)
let sort_peers ids hosts =
  let n = Array.length ids in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Id.compare ids.(a) ids.(b)) order;
  let sorted_ids = Array.map (fun i -> ids.(i)) order in
  let sorted_hosts = Array.map (fun i -> hosts.(i)) order in
  for i = 1 to n - 1 do
    if Id.equal sorted_ids.(i) sorted_ids.(i - 1) then
      invalid_arg "Pastry.Network: duplicate identifiers"
  done;
  (sorted_ids, sorted_hosts)

let build ~space ~hosts ~lat ~rng =
  if Id.bits space mod 4 <> 0 then
    invalid_arg "Pastry.Network.build: identifier width must be a multiple of 4";
  let n = Array.length hosts in
  if n = 0 then invalid_arg "Pastry.Network.build: empty network";
  let seen = Hashtbl.create (2 * n) in
  let raw_ids =
    Array.init n (fun i ->
        let rec fresh attempt =
          let id = Id.of_hash space (Printf.sprintf "pastry-peer:%d:%d" i attempt) in
          if Hashtbl.mem seen id then fresh (attempt + 1)
          else begin
            Hashtbl.replace seen id ();
            id
          end
        in
        fresh 0)
  in
  let ids, hosts = sort_peers raw_ids hosts in
  (* group nodes by digit prefix, level by level; stop when every group is a
     singleton (deeper rows can never be populated) *)
  let digit node i = Id.digit4 space ids.(node) i in
  let max_rows = Id.digit_count4 space in
  let levels : (string, int list ref) Hashtbl.t list ref = ref [] in
  let current = Hashtbl.create 64 in
  Hashtbl.replace current "" (ref (List.init n (fun i -> i)));
  let continue = ref true in
  let depth = ref 0 in
  while !continue && !depth < max_rows do
    let next = Hashtbl.create 64 in
    let any_split = ref false in
    Hashtbl.iter
      (fun prefix group ->
        if List.length !group > 1 then begin
          any_split := true;
          List.iter
            (fun node ->
              let key = prefix ^ String.make 1 (Char.chr (digit node !depth)) in
              match Hashtbl.find_opt next key with
              | Some l -> l := node :: !l
              | None -> Hashtbl.replace next key (ref [ node ]))
            !group
        end)
      current;
    if !any_split then begin
      levels := next :: !levels;
      Hashtbl.reset current;
      Hashtbl.iter (fun k v -> Hashtbl.replace current k v) next;
      incr depth
    end
    else continue := false
  done;
  let levels = Array.of_list (List.rev !levels) in
  let rows = Array.length levels in
  (* proximity neighbor selection: the nearest of a bounded random sample of
     each cell's candidates *)
  let tables =
    Array.init n (fun node ->
        let table = Array.make (rows * 16) (-1) in
        let prefix = Buffer.create rows in
        (try
           for row = 0 to rows - 1 do
             let own_digit = digit node row in
             for col = 0 to 15 do
               if col <> own_digit then begin
                 let key = Buffer.contents prefix ^ String.make 1 (Char.chr col) in
                 match Hashtbl.find_opt levels.(row) key with
                 | None -> ()
                 | Some group ->
                     let candidates = Array.of_list !group in
                     let m = Array.length candidates in
                     let best = ref (-1) and best_d = ref infinity in
                     let tries = min m candidates_per_cell in
                     for k = 0 to tries - 1 do
                       let cand =
                         if m <= candidates_per_cell then candidates.(k)
                         else candidates.(Prng.Rng.int rng m)
                       in
                       let d = Topology.Latency.host_latency lat hosts.(node) hosts.(cand) in
                       if d < !best_d then begin
                         best := cand;
                         best_d := d
                       end
                     done;
                     table.((row * 16) + col) <- !best
               end
             done;
             Buffer.add_char prefix (Char.chr own_digit);
             (* below the node's own singleton depth nothing can match *)
             if not (Hashtbl.mem levels.(row) (Buffer.contents prefix)) then raise Exit
           done
         with Exit -> ());
        table)
  in
  let leaves = Array.init n (compute_leaf_set ~n) in
  { space; ids; hosts; lat; rows; tables; leaves }

let link_latency t a b = Topology.Latency.host_latency t.lat t.hosts.(a) t.hosts.(b)

let root_of_key t key =
  let n = Array.length t.ids in
  (* successor position (first id >= key, circular) *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Id.compare t.ids.(mid) key < 0 then search (mid + 1) hi else search lo mid
  in
  let pos = search 0 n in
  let succ = if pos = n then 0 else pos in
  let pred = (succ + n - 1) mod n in
  (* numerically closest of the two enclosing nodes; the float circle
     fraction is precise enough for random keys (ties ~ 2^-53) *)
  let d_up = Id.distance_cw t.space key t.ids.(succ) in
  let d_down = Id.distance_cw t.space t.ids.(pred) key in
  if d_up <= d_down then succ else pred

let mean_table_link_latency t ~samples rng =
  let n = Array.length t.ids in
  let acc = ref 0.0 and cnt = ref 0 in
  let attempts = ref 0 in
  while !cnt < samples && !attempts < 60 * samples do
    incr attempts;
    let node = Prng.Rng.int rng n in
    if t.rows > 0 then begin
      let cell = Prng.Rng.int rng (t.rows * 16) in
      let target = t.tables.(node).(cell) in
      if target >= 0 && target <> node then begin
        acc := !acc +. Topology.Latency.host_latency t.lat t.hosts.(node) t.hosts.(target);
        incr cnt
      end
    end
  done;
  if !cnt = 0 then 0.0 else !acc /. float_of_int !cnt
