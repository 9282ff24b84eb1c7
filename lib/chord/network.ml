module Id = Hashid.Id

(* Packed struct-of-arrays representation (DESIGN.md §12). Node [i] is the
   i-th identifier in sorted order, so ring successor/predecessor are the
   implicit [(i ± 1) mod n] — and the successor list of [i] is the implicit
   run [i+1 .. i+r]: neither is materialized. All finger tables live in one
   shared arena. *)
type t = {
  space : Id.space;
  ids : Id.t array; (* sorted ascending; node i has ids.(i) *)
  pre : int array; (* aligned Id.prefix_int column: one-load comparisons *)
  hosts : int array;
  succ_len : int; (* r = min succ_list_len (n-1) *)
  fingers : Finger_table.arena;
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
  let fingers =
    Finger_table.pack_arena space
      ~sets:[| { Finger_table.ids = sorted_ids; pre; nodes = member_nodes } |]
      ~set_of:(fun _ -> 0)
  in
  {
    space;
    ids = sorted_ids;
    pre;
    hosts = sorted_hosts;
    succ_len = min succ_list_len (n - 1);
    fingers;
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

let fingers t = t.fingers
let finger_table t i = Finger_table.of_arena t.fingers ~bits:(Id.bits t.space) i

(* The owner rule. Node indices are in identifier order, so the arcs of
   the identifier circle that start at node [self] are decided by indices
   alone, with d(x) = (x - self) mod n taken in (0, n] ([self] itself is n)
   and [owner] the key's owner:
   - node [j] lies strictly inside (id self, key) iff d(j) < d(owner);
   - the key lies on (id self, id u] iff d(owner) <= d(u).
   No identifier is read. The scans serve any finger arena whose entries
   index this network — its own and every HIERAS layer's — from the
   farthest finger down (segments ascend by exponent). *)
let[@inline] dist n ~self x = if x > self then x - self else x - self + n

let key_on_arc t self ~upto ~owner =
  let n = Array.length t.ids in
  dist n ~self owner <= dist n ~self upto

let rec closest nodes lo k ~n ~self ~lim =
  if k < lo then -1
  else
    let j = Array.unsafe_get nodes k in
    if dist n ~self j < lim then j else closest nodes lo (k - 1) ~n ~self ~lim

(* every distinct such finger, farthest first; a node can recur only
   non-adjacently, so each is checked against those already taken *)
let rec gather nodes lo k ~n ~self ~lim acc =
  if k < lo then List.rev acc
  else
    let j = nodes.(k) in
    let acc = if dist n ~self j < lim && not (List.mem j acc) then j :: acc else acc in
    gather nodes lo (k - 1) ~n ~self ~lim acc

let closest_preceding_in t (a : Finger_table.arena) i ~owner =
  let n = Array.length t.ids in
  closest a.nodes a.off.(i) (a.off.(i + 1) - 1) ~n ~self:i ~lim:(dist n ~self:i owner)

let preceding_candidates_in t (a : Finger_table.arena) i ~owner =
  let n = Array.length t.ids in
  gather a.nodes a.off.(i) (a.off.(i + 1) - 1) ~n ~self:i ~lim:(dist n ~self:i owner) []

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

let closest_preceding_finger t i ~key =
  closest_preceding_in t t.fingers i ~owner:(successor_of_key t key)

let preceding_candidates t i ~key =
  preceding_candidates_in t t.fingers i ~owner:(successor_of_key t key)

let find_node t key =
  let pos = successor_of_key t key in
  if Id.equal t.ids.(pos) key then Some pos else None

let total_finger_segments t = Array.length t.fingers.nodes

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
  + Finger_table.arena_bytes t.fingers
