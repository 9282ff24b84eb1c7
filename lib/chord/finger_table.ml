module Id = Hashid.Id

type members = { ids : Id.t array; pre : int array; nodes : int array }

type arena = { off : int array; exps : Bytes.t; nodes : int array }

type t = {
  owner : int;
  exps : int array; (* ascending; exps.(k) is the first exponent of segment k *)
  nodes : int array; (* aligned: the finger node for that segment *)
  bits : int;
}

(* One member set being packed, with per exponent the position that
   exponent's finger last had for an earlier owner of the set.

   Positions are {e unrolled}: [j < n] is member [j], [j >= n] the same
   member one full turn later ([2n] = member 0 two turns up). A start point
   [owner + 2^e] lies strictly within one clockwise turn of the owner, so
   its finger is the first unrolled position at-or-after the start's
   unrolled value. That value grows strictly with [e] for one owner, and
   with the owner for one [e] (owners are packed in ascending order), so
   the position never moves back along either: each search gallops forward
   from the larger of the two lower bounds. *)
type sweep = {
  set : members;
  cursor : int array; (* per exponent *)
  mutable next : int; (* the member packed next *)
}

(* Is member [m] at or after the start [owner_id + 2^e], whose prefix is
   [s_pre]? The prefix column decides, unless it ties: only then is the
   start built. *)
let member_ge sp (set : members) m ~owner_id ~e ~s_pre =
  let p = Array.unsafe_get set.pre m in
  p > s_pre
  || (p = s_pre && Id.compare (Array.unsafe_get set.ids m) (Id.add_pow2 sp owner_id e) >= 0)

(* Is unrolled position [j] at or after the start? [wrapped] = the sum
   wrapped past zero, i.e. the start sits on the turn above the base one. *)
let ge sp set n j ~owner_id ~e ~s_pre ~wrapped =
  if j >= 2 * n then true
  else if j < n then (not wrapped) && member_ge sp set j ~owner_id ~e ~s_pre
  else (not wrapped) || member_ge sp set (j - n) ~owner_id ~e ~s_pre

(* the first position at or after the start, known to be no earlier than
   [lo]: gallop forward, then bisect the last stride *)
let first_ge sp set n lo ~owner_id ~e ~s_pre ~wrapped =
  if ge sp set n lo ~owner_id ~e ~s_pre ~wrapped then lo
  else begin
    let below = ref lo and step = ref 1 in
    let hi = ref (Int.min (lo + 1) (2 * n)) in
    while !hi < 2 * n && not (ge sp set n !hi ~owner_id ~e ~s_pre ~wrapped) do
      below := !hi;
      step := 2 * !step;
      hi := Int.min (!below + !step) (2 * n)
    done;
    let lo = ref (!below + 1) and hi = ref !hi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ge sp set n mid ~owner_id ~e ~s_pre ~wrapped then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* does exponent [e]'s finger still sit at position [pos]? *)
let still sp set n pos ~owner_id ~owner_pre ~carry e =
  let s_pre = Id.prefix_add_pow2 sp ~prefix:owner_pre ~carry_bit:carry e in
  ge sp set n pos ~owner_id ~e ~s_pre ~wrapped:(s_pre < owner_pre)

(* A node among [m] members with random identifiers has about
   log2 m + 1/3 distinct fingers, so one more than the bit length of [m]
   sizes an arena without regrowth in practice; growth stays the
   fallback. *)
let segments_hint ~bits m =
  let rec width k = if 1 lsl k >= m then k else width (k + 1) in
  min bits (width 0 + 1)

let pack_arena sp ~sets ~set_of =
  let bits = Id.bits sp in
  let sweeps =
    Array.map
      (fun (set : members) ->
        let n = Array.length set.ids in
        if n = 0 then invalid_arg "Finger_table.pack_arena: empty member set";
        if Array.length set.pre <> n || Array.length set.nodes <> n then
          invalid_arg "Finger_table.pack_arena: misaligned member arrays";
        { set; cursor = Array.make bits 0; next = 0 })
      sets
  in
  let size = Array.fold_left (fun acc (set : members) -> acc + Array.length set.ids) 0 sets in
  let capacity =
    Array.fold_left
      (fun acc (set : members) ->
        let n = Array.length set.ids in
        acc + (n * segments_hint ~bits n))
      0 sets
  in
  let off = Array.make (size + 1) 0 in
  let exp_buf = Buffer.create capacity in
  let node_buf = ref (Array.make (max 16 capacity) 0) in
  let count = ref 0 in
  let push e v =
    if !count = Array.length !node_buf then begin
      let grown = Array.make (2 * !count) 0 in
      Array.blit !node_buf 0 grown 0 !count;
      node_buf := grown
    end;
    Buffer.add_char exp_buf (Char.unsafe_chr e);
    !node_buf.(!count) <- v;
    incr count
  in
  for i = 0 to size - 1 do
    off.(i) <- !count;
    let sw = sweeps.(set_of i) in
    let set = sw.set in
    let n = Array.length set.ids and k = sw.next in
    (* node [i] is its set's next member, and the members ascend *)
    if k >= n || set.nodes.(k) <> i then
      invalid_arg "Finger_table.pack_arena: node not its set's next member";
    let owner_id = set.ids.(k) and owner_pre = set.pre.(k) in
    if owner_pre <> Id.prefix_int owner_id then
      invalid_arg "Finger_table.pack_arena: prefix column misaligned";
    if k > 0 && Id.compare set.ids.(k - 1) owner_id >= 0 then
      invalid_arg "Finger_table.pack_arena: members not ascending";
    sw.next <- k + 1;
    let carry = Id.carry_bit sp owner_id in
    (* every start lies strictly past the owner: its finger is no earlier
       than position [k + 1] *)
    let lo = ref (k + 1) and prev_v = ref (-1) and e = ref 0 in
    while !e < bits do
      let s_pre = Id.prefix_add_pow2 sp ~prefix:owner_pre ~carry_bit:carry !e in
      let pos =
        first_ge sp set n
          (Int.max !lo sw.cursor.(!e))
          ~owner_id ~e:!e ~s_pre ~wrapped:(s_pre < owner_pre)
      in
      sw.cursor.(!e) <- pos;
      (* a move of exactly [n] (same member, one turn up) keeps the value:
         still the same run-length segment *)
      let v = set.nodes.(pos mod n) in
      if v <> !prev_v then push !e v;
      prev_v := v;
      (* gallop over the exponents whose finger stays put, then bisect the
         first one that moves *)
      let last_good = ref !e and step = ref 1 in
      let probe = ref (!e + 1) in
      while !probe < bits && still sp set n pos ~owner_id ~owner_pre ~carry !probe do
        last_good := !probe;
        step := 2 * !step;
        probe := !last_good + !step
      done;
      let a = ref (!last_good + 1) and b = ref (Int.min !probe bits) in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if still sp set n pos ~owner_id ~owner_pre ~carry mid then a := mid + 1 else b := mid
      done;
      e := !a;
      lo := pos + 1
    done
  done;
  off.(size) <- !count;
  { off; exps = Buffer.to_bytes exp_buf; nodes = Array.sub !node_buf 0 !count }

let arena_bytes a =
  let word = Sys.word_size / 8 in
  let arr len = (len + 1) * word in
  arr (Array.length a.off)
  + (word + ((Bytes.length a.exps / word) + 1) * word)
  + arr (Array.length a.nodes)

(* The reference the arena is tested against: every finger found on its
   own, by bisection over the members, then run-length encoded. *)
let build sp ~owner ~owner_id ~member_ids ~member_nodes =
  let n = Array.length member_ids in
  if n = 0 then invalid_arg "Finger_table.build: no members";
  if n <> Array.length member_nodes then invalid_arg "Finger_table.build: misaligned arrays";
  let bits = Id.bits sp in
  (* the first member at or after [s], member 0 past the last *)
  let successor s =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Id.compare member_ids.(mid) s < 0 then lo := mid + 1 else hi := mid
    done;
    member_nodes.(!lo mod n)
  in
  let fingers = Array.init bits (fun e -> successor (Id.add_pow2 sp owner_id e)) in
  let exps =
    List.init bits Fun.id
    |> List.filter (fun e -> e = 0 || fingers.(e) <> fingers.(e - 1))
    |> Array.of_list
  in
  { owner; exps; nodes = Array.map (Array.get fingers) exps; bits }

let of_arena a ~bits i =
  let lo = a.off.(i) and hi = a.off.(i + 1) in
  {
    owner = i;
    exps = Array.init (hi - lo) (fun k -> Char.code (Bytes.get a.exps (lo + k)));
    nodes = Array.sub a.nodes lo (hi - lo);
    bits;
  }

let owner t = t.owner

let segments t = Array.init (Array.length t.exps) (fun k -> (t.exps.(k), t.nodes.(k)))

let finger t i =
  if i < 0 || i >= t.bits then invalid_arg "Finger_table.finger: index out of range";
  (* last segment whose first exponent <= i *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if t.exps.(mid) <= i then search mid hi else search lo (mid - 1)
  in
  t.nodes.(search 0 (Array.length t.exps - 1))

let distinct_count t = Array.length t.exps

let closest_preceding t ~id_of ~self ~key =
  (* scan segments from the farthest finger down; first one in (self, key) wins *)
  let rec go k =
    if k < 0 then None
    else
      let node = t.nodes.(k) in
      let id = id_of node in
      if Id.in_oo id ~lo:self ~hi:key then Some node else go (k - 1)
  in
  go (Array.length t.nodes - 1)

let preceding_candidates t ~id_of ~self ~key =
  (* same scan, but keep every qualifying finger: the resilient route tries
     them farthest-first until one is alive. Segments can repeat a node only
     non-adjacently, so dedup against everything already taken. *)
  let rec go k acc taken =
    if k < 0 then List.rev acc
    else
      let node = t.nodes.(k) in
      if (not (List.mem node taken)) && Id.in_oo (id_of node) ~lo:self ~hi:key then
        go (k - 1) (node :: acc) (node :: taken)
      else go (k - 1) acc taken
  in
  go (Array.length t.nodes - 1) [] []
