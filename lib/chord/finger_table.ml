module Id = Hashid.Id

type arena = { off : int array; exps : Bytes.t; nodes : int array }

type t = {
  owner : int;
  exps : int array; (* ascending; exps.(k) is the first exponent of segment k *)
  nodes : int array; (* aligned: the finger node for that segment *)
  bits : int;
}

(* Emit the run-length segments of one finger table without materializing a
   [t]. The per-exponent finger position is monotone along the circle (the
   start point [owner + 2^i] moves strictly clockwise and never completes a
   full turn), so equal finger values form contiguous exponent runs; we
   gallop past each run instead of probing all [bits] exponents. Most tables
   have one giant low-exponent run (every [2^i] smaller than the successor
   gap maps to the successor), which galloping crosses in O(log run).

   The walk works in {e unrolled} positions [j] of [0 .. 2n]: [j < n] is
   sorted member [j], [j >= n] the same member one full turn later ([2n] =
   member 0 two turns up, reachable only when the owner is not a member).
   A start point [s = owner + 2^e] lies strictly within one clockwise turn
   of the owner, so its successor is the first unrolled position at-or-after
   [s]'s unrolled value — and because that value grows strictly with [e],
   the position never moves backwards. Two consequences make the scan cheap:
   a "did the finger move?" probe is a single id comparison ([ge] at the
   current position), and each new segment's position is found by a binary
   search over only the not-yet-passed window. [member_pre] (the aligned
   {!Id.prefix_int} column, see Network) turns almost every comparison into
   one integer load. *)
let pack sp ~owner_id ~member_ids ?member_pre ~member_nodes ~push () =
  let n = Array.length member_ids in
  if n = 0 then invalid_arg "Finger_table.pack: no members";
  if n <> Array.length member_nodes then invalid_arg "Finger_table.pack: misaligned arrays";
  (match member_pre with
  | Some p when Array.length p <> n -> invalid_arg "Finger_table.pack: misaligned prefixes"
  | _ -> ());
  let bits = Id.bits sp in
  (* compare member [j mod n] against a start-point value *)
  let cmp_at =
    match member_pre with
    | None -> fun j s _s_pre -> Id.compare member_ids.(j) s
    | Some pre ->
        fun j s s_pre ->
          let p = Array.unsafe_get pre j in
          if p < s_pre then -1
          else if p > s_pre then 1
          else Id.compare (Array.unsafe_get member_ids j) s
  in
  (* is unrolled position [j] at-or-after start point [s]?  [wrapped] = the
     addition [owner + 2^e] wrapped past zero, i.e. [s] sits on the turn
     above the base one *)
  let ge j ~s ~s_pre ~wrapped =
    if j >= 2 * n then true
    else if j < n then (not wrapped) && cmp_at j s s_pre >= 0
    else (not wrapped) || cmp_at (j - n) s s_pre >= 0
  in
  let start e =
    let s = Id.add_pow2 sp owner_id e in
    (s, Id.prefix_int s, Id.compare s owner_id < 0)
  in
  let pos = ref 0 (* first at-or-after position of the previous exponent *) in
  let prev_v = ref (-1) in
  let first = ref true in
  let i = ref 0 in
  while !i < bits do
    let s, s_pre, wrapped = start !i in
    (* this exponent's position: monotone, so search only [pos, 2n) *)
    let lo = ref !pos and hi = ref (2 * n) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ge mid ~s ~s_pre ~wrapped then hi := mid else lo := mid + 1
    done;
    pos := !lo;
    let v = member_nodes.(!lo mod n) in
    (* a position move of exactly [n] (same member, one turn up) keeps the
       value: still the same run-length segment, no boundary to emit *)
    if !first || v <> !prev_v then push !i v;
    first := false;
    prev_v := v;
    (* gallop: double the stride while the probe's successor stays put *)
    let still e =
      let s, s_pre, wrapped = start e in
      ge !pos ~s ~s_pre ~wrapped
    in
    let last_good = ref !i and step = ref 1 in
    let probe = ref (!i + 1) in
    let growing = ref true in
    while !growing do
      if !probe >= bits then growing := false
      else if still !probe then begin
        last_good := !probe;
        step := !step * 2;
        probe := !last_good + !step
      end
      else growing := false
    done;
    (* binary search the first moved exponent in (last_good, min probe bits] *)
    let lo = ref (!last_good + 1) and hi = ref (min !probe bits) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if still mid then lo := mid + 1 else hi := mid
    done;
    i := !lo
  done

(* A node among [m] members with random identifiers has about
   log2 m + 1/3 distinct fingers, so one more than the bit length of [m]
   sizes an arena without regrowth in practice; growth stays the
   fallback. *)
let segments_hint ~bits m =
  let rec width k = if 1 lsl k >= m then k else width (k + 1) in
  min bits (width 0 + 1)

let pack_arena sp ~size ~owner_id ~members =
  let bits = Id.bits sp in
  let capacity = ref 0 in
  for i = 0 to size - 1 do
    let member_ids, _, _ = members i in
    capacity := !capacity + segments_hint ~bits (Array.length member_ids)
  done;
  let capacity = !capacity in
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
    let member_ids, member_pre, member_nodes = members i in
    pack sp ~owner_id:(owner_id i) ~member_ids ~member_pre ~member_nodes ~push ()
  done;
  off.(size) <- !count;
  { off; exps = Buffer.to_bytes exp_buf; nodes = Array.sub !node_buf 0 !count }

let arena_bytes a =
  let word = Sys.word_size / 8 in
  let arr len = (len + 1) * word in
  arr (Array.length a.off)
  + (word + ((Bytes.length a.exps / word) + 1) * word)
  + arr (Array.length a.nodes)

let build sp ~owner ~owner_id ~member_ids ~member_nodes =
  let bits = Id.bits sp in
  let exps = ref [] and nodes = ref [] in
  pack sp ~owner_id ~member_ids ~member_nodes
    ~push:(fun e v ->
      exps := e :: !exps;
      nodes := v :: !nodes)
    ();
  {
    owner;
    exps = Array.of_list (List.rev !exps);
    nodes = Array.of_list (List.rev !nodes);
    bits;
  }

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
