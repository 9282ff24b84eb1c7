module Id = Hashid.Id

(* Packed struct-of-arrays representation (DESIGN.md §12). Node [i] is the
   i-th identifier in sorted order, so ring successor/predecessor are the
   implicit [(i ± 1) mod n] — and the successor list of [i] is the implicit
   run [i+1 .. i+r]: neither is materialized. All finger tables live in one
   shared arena: node [i]'s run-length segments are
   [f_exp/f_node.(f_off.(i) .. f_off.(i+1) - 1)]. *)
type t = {
  space : Id.space;
  ids : Id.t array; (* sorted ascending; node i has ids.(i) *)
  pre : int array; (* aligned Id.prefix_int column: one-load comparisons *)
  hosts : int array;
  succ_len : int; (* r = min succ_list_len (n-1) *)
  f_off : int array; (* n+1 segment offsets into the finger arena *)
  f_exp : Bytes.t; (* first exponent of each segment (bits <= 255) *)
  f_node : int array; (* finger node of each segment *)
}

let mk ~space ~ids ~hosts ~succ_list_len =
  let n = Array.length ids in
  if n = 0 then invalid_arg "Chord.Network: empty network";
  if Array.length hosts <> n then invalid_arg "Chord.Network: ids/hosts misaligned";
  (* sort peers by identifier, keeping host alignment *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Id.compare ids.(a) ids.(b)) order;
  let sorted_ids = Array.map (fun i -> ids.(i)) order in
  let sorted_hosts = Array.map (fun i -> hosts.(i)) order in
  for i = 1 to n - 1 do
    if Id.equal sorted_ids.(i) sorted_ids.(i - 1) then
      invalid_arg "Chord.Network: duplicate identifiers"
  done;
  let member_nodes = Array.init n (fun i -> i) in
  let pre = Array.map Id.prefix_int sorted_ids in
  let f_off, f_exp, f_node =
    Finger_table.pack_arena space ~size:n ~capacity:(n * 12)
      ~owner_id:(fun i -> sorted_ids.(i))
      ~members:(fun _ -> (sorted_ids, pre, member_nodes))
  in
  {
    space;
    ids = sorted_ids;
    pre;
    hosts = sorted_hosts;
    succ_len = min succ_list_len (n - 1);
    f_off;
    f_exp;
    f_node;
  }

let of_ids ~space ~ids ~hosts ?(succ_list_len = 8) () = mk ~space ~ids ~hosts ~succ_list_len

let build ~space ~hosts ?(succ_list_len = 8) ?(salt = "chord-peer") () =
  let n = Array.length hosts in
  let seen = Hashtbl.create (2 * n) in
  let ids =
    Array.init n (fun i ->
        (* regenerate on collision: only reachable in tiny test spaces *)
        let rec fresh attempt =
          let id = Id.of_hash space (Printf.sprintf "%s:%d:%d" salt i attempt) in
          if Hashtbl.mem seen id then fresh (attempt + 1)
          else begin
            Hashtbl.replace seen id ();
            id
          end
        in
        fresh 0)
  in
  mk ~space ~ids ~hosts ~succ_list_len

let space t = t.space
let size t = Array.length t.ids
let id t i = t.ids.(i)
let host t i = t.hosts.(i)
let successor t i = (i + 1) mod Array.length t.ids
let predecessor t i = (i + Array.length t.ids - 1) mod Array.length t.ids
let succ_list_len t = t.succ_len

let successor_list t i =
  let n = Array.length t.ids in
  Array.init t.succ_len (fun k -> (i + k + 1) mod n)

let finger_table t i =
  let lo = t.f_off.(i) and hi = t.f_off.(i + 1) in
  let exps = Array.init (hi - lo) (fun k -> Char.code (Bytes.get t.f_exp (lo + k))) in
  let nodes = Array.sub t.f_node lo (hi - lo) in
  Finger_table.of_segments ~owner:i ~bits:(Id.bits t.space) ~exps ~nodes

(* Scan an arena slice for the farthest finger strictly inside (self, key) —
   identical to [Finger_table.closest_preceding_arena] over this network's
   ids, but the circular-interval class is computed once per call and every
   membership test resolves through the prefix column (one integer load; the
   full string compare runs only on a 56-bit prefix tie). Exposed so the
   HIERAS layer arenas (whose nodes index this same network) share it. *)
let closest_preceding_in_arena t ~nodes ~lo ~hi ~self ~key =
  let ids = t.ids and pre = t.pre in
  let key_pre = Id.prefix_int key in
  let cmp_key j =
    let p = Array.unsafe_get pre j in
    if p < key_pre then -1
    else if p > key_pre then 1
    else Id.compare (Array.unsafe_get ids j) key
  in
  let self_pre = Array.unsafe_get pre self in
  let above_self j =
    let p = Array.unsafe_get pre j in
    if p <> self_pre then p > self_pre
    else Id.compare (Array.unsafe_get ids j) (Array.unsafe_get ids self) > 0
  in
  let c_lo = cmp_key self in
  let rec go k =
    if k < lo then -1
    else
      let j : int = Array.unsafe_get nodes k in
      let inside =
        if c_lo < 0 then above_self j && cmp_key j < 0
        else if c_lo > 0 then above_self j || cmp_key j < 0
        else j <> self (* degenerate self = key: the whole circle but self *)
      in
      if inside then j else go (k - 1)
  in
  go (hi - 1)

let closest_preceding_finger t i ~key =
  closest_preceding_in_arena t ~nodes:t.f_node ~lo:t.f_off.(i) ~hi:t.f_off.(i + 1) ~self:i
    ~key

let preceding_candidates t i ~key =
  Finger_table.preceding_candidates_arena ~nodes:t.f_node ~lo:t.f_off.(i)
    ~hi:t.f_off.(i + 1)
    ~id_of:(fun j -> t.ids.(j))
    ~self:t.ids.(i) ~key

let successor_of_key t key =
  let n = Array.length t.ids in
  let key_pre = Id.prefix_int key in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let p = Array.unsafe_get t.pre mid in
    if p < key_pre || (p = key_pre && Id.compare (Array.unsafe_get t.ids mid) key < 0) then
      lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

let find_node t key =
  let pos = successor_of_key t key in
  if Id.equal t.ids.(pos) key then Some pos else None

let total_finger_segments t = Array.length t.f_node

let bytes_resident t =
  let word = Sys.word_size / 8 in
  let arr len = (len + 1) * word in
  let n = Array.length t.ids in
  (* each id is a separate immutable byte string: header word + payload
     padded to a whole word (OCaml's string block layout) *)
  let id_payload = (Id.bits t.space + 7) / 8 in
  let id_block = word + (((id_payload / word) + 1) * word) in
  arr n (* ids pointer array *) + (n * id_block) + arr n (* prefix column *)
  + arr n (* hosts *)
  + arr (n + 1) (* f_off *)
  + (word + ((Bytes.length t.f_exp / word) + 1) * word) (* f_exp *)
  + arr (Array.length t.f_node)
