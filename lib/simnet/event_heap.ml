(* A 4-ary min-heap of keys (time, push stamp, slot) kept as three unboxed
   arrays, plus a slot table holding each queued event's closure and tag.
   Sifts only ever move floats and ints, so they never touch the write
   barrier; a closure is written once when pushed and cleared once when
   taken.

   An event's closure stays at its slot while it waits, so a heap handle is
   the slot and that slot's generation, which [take] bumps: cancel writes
   the no-op into the slot while the generations agree, and is a no-op once
   the event has been taken.

   Beside the heap sit up to [max_lanes] FIFO lanes, one per timer delay,
   each a ring buffer of (time, stamp, closure, tag). A lane only appends
   at or after its last entry's time, under the next stamp, so it stays in
   (time, stamp) order: the earliest event is the least of the heap root
   and the lane heads, and [best] caches the lane whose head is least. A
   lane handle is the complement of the entry's sequence number in its
   lane above the lane's index, so it is negative. *)

type lane = {
  mutable ltime : float array;
  mutable lstamp : int array;
  mutable lthunk : (unit -> unit) array;
  mutable ltag : int array;
  mutable head : int; (* ring index of the earliest entry *)
  mutable count : int;
  mutable first : int; (* sequence number of the entry at [head] *)
}

type handle = int

type t = {
  mutable time : float array;
  mutable stamp : int array;
  mutable slot : int array;
  mutable size : int;
  mutable next_stamp : int;
  mutable thunk : (unit -> unit) array;
  mutable tag : int array;
  mutable gen : int array; (* per slot: how many events it has let go, mod 2^36 *)
  mutable free : int array;
      (* [free.(size) .. free.(capacity - 1)] are the unused slots *)
  delays : float array; (* per lane: the delay its timers wait *)
  lanes : lane array;
  mutable nlanes : int;
  mutable in_lanes : int;
  mutable best : int; (* the lane with the least head; -1 while every lane is empty *)
  moved : (handle, handle) Hashtbl.t;
      (* lane handle -> heap handle of each queued lane head a re-stamp moved *)
}

let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl (62 - slot_bits)) - 1
let max_lanes = 16
let lane_bits = 4
let lane_mask = max_lanes - 1
let none = min_int

let nop () = ()
let initial = 64
let lane_initial = 16

let new_lane _ =
  {
    ltime = Array.make lane_initial 0.0;
    lstamp = Array.make lane_initial 0;
    lthunk = Array.make lane_initial nop;
    ltag = Array.make lane_initial 0;
    head = 0;
    count = 0;
    first = 0;
  }

let create () =
  {
    time = Array.make initial 0.0;
    stamp = Array.make initial 0;
    slot = Array.make initial 0;
    size = 0;
    next_stamp = 0;
    thunk = Array.make initial nop;
    tag = Array.make initial 0;
    gen = Array.make initial 0;
    free = Array.init initial Fun.id;
    delays = Array.make max_lanes 0.0;
    lanes = Array.init max_lanes new_lane;
    nlanes = 0;
    in_lanes = 0;
    best = -1;
    moved = Hashtbl.create 8;
  }

(* only called when full, so every old slot is in use *)
let grow h =
  let cap = Array.length h.time in
  if 2 * cap > slot_mask + 1 then failwith "Event_heap: more than 2^26 queued events";
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.time <- extend h.time 0.0;
  h.stamp <- extend h.stamp 0;
  h.slot <- extend h.slot 0;
  h.thunk <- extend h.thunk nop;
  h.tag <- extend h.tag 0;
  h.gen <- extend h.gen 0;
  h.free <- Array.init (2 * cap) Fun.id

let[@inline] precedes (t1 : float) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

(* The sifts index only below [size], which never exceeds the arrays'
   length, so they skip the bounds checks. *)
let[@inline] move (time : float array) (stamp : int array) (slot : int array) ~src ~dst =
  Array.unsafe_set time dst (Array.unsafe_get time src);
  Array.unsafe_set stamp dst (Array.unsafe_get stamp src);
  Array.unsafe_set slot dst (Array.unsafe_get slot src)

(* The key at [i] moves up: the hole it leaves climbs past every parent the
   key precedes, and the key fills it where it stops. *)
let sift_up h i =
  let time = h.time and stamp = h.stamp and slot = h.slot in
  let t = time.(i) and s = stamp.(i) and sl = slot.(i) in
  let i = ref i and continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    if precedes t s (Array.unsafe_get time p) (Array.unsafe_get stamp p) then begin
      move time stamp slot ~src:p ~dst:!i;
      i := p
    end
    else continue := false
  done;
  time.(!i) <- t;
  stamp.(!i) <- s;
  slot.(!i) <- sl

(* The key at [k] fills the hole at [i] ([k = i], or [k] just past the
   heap): the hole sinks past the earliest child while that child precedes
   the key. *)
let sift_down h i k =
  let time = h.time and stamp = h.stamp and slot = h.slot and n = h.size in
  let t = time.(k) and s = stamp.(k) and sl = slot.(k) in
  let i = ref i and continue = ref true in
  while !continue do
    let c = (4 * !i) + 1 in
    if c >= n then continue := false
    else begin
      let b = ref c in
      for j = c + 1 to if c + 3 < n then c + 3 else n - 1 do
        if
          precedes (Array.unsafe_get time j) (Array.unsafe_get stamp j)
            (Array.unsafe_get time !b) (Array.unsafe_get stamp !b)
        then b := j
      done;
      let b = !b in
      if precedes (Array.unsafe_get time b) (Array.unsafe_get stamp b) t s then begin
        move time stamp slot ~src:b ~dst:!i;
        i := b
      end
      else continue := false
    end
  done;
  time.(!i) <- t;
  stamp.(!i) <- s;
  slot.(!i) <- sl

let[@inline] heap_push h time tag f =
  if h.size = Array.length h.time then grow h;
  let i = h.size in
  let sl = h.free.(i) in
  h.thunk.(sl) <- f;
  h.tag.(sl) <- tag;
  h.time.(i) <- time;
  h.stamp.(i) <- h.next_stamp;
  h.slot.(i) <- sl;
  h.next_stamp <- h.next_stamp + 1;
  h.size <- i + 1;
  sift_up h i;
  (h.gen.(sl) lsl slot_bits) lor sl

let push h ~now ~delay ~tag f = heap_push h (now +. delay) tag f

let heap_cancel h handle =
  let sl = handle land slot_mask in
  if sl < Array.length h.gen && h.gen.(sl) = handle asr slot_bits then h.thunk.(sl) <- nop

(* --- lanes ----------------------------------------------------------------- *)

let[@inline] head_precedes a b =
  precedes a.ltime.(a.head) a.lstamp.(a.head) b.ltime.(b.head) b.lstamp.(b.head)

(* [best] again, after a lane's head was taken *)
let rescan h =
  h.best <- -1;
  for k = 0 to h.nlanes - 1 do
    let l = h.lanes.(k) in
    if l.count > 0 && (h.best < 0 || head_precedes l h.lanes.(h.best)) then h.best <- k
  done

(* The lane of [delay]: its own, else an empty one handed over, else a new
   one; -1 when every lane holds timers of another delay. *)
let lane_for h (delay : float) =
  let n = h.nlanes and k = ref 0 and spare = ref (-1) in
  while !k < n && h.delays.(!k) <> delay do
    if !spare < 0 && h.lanes.(!k).count = 0 then spare := !k;
    incr k
  done;
  if !k < n then !k
  else begin
    if !spare < 0 && n < max_lanes then begin
      spare := n;
      h.nlanes <- n + 1
    end;
    if !spare >= 0 then h.delays.(!spare) <- delay;
    !spare
  end

(* the entries move to the front of arrays twice as long; sequence numbers
   stay *)
let grow_lane l =
  let cap = Array.length l.ltime in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a l.head b 0 (cap - l.head);
    Array.blit a 0 b (cap - l.head) l.head;
    b
  in
  l.ltime <- unroll l.ltime 0.0;
  l.lstamp <- unroll l.lstamp 0;
  l.lthunk <- unroll l.lthunk nop;
  l.ltag <- unroll l.ltag 0;
  l.head <- 0

let push_timer h ~now ~delay ~tag f =
  let time = now +. delay in
  let k = lane_for h delay in
  if k < 0 then heap_push h time tag f
  else
    let l = h.lanes.(k) in
    if l.count > 0 && time < l.ltime.((l.head + l.count - 1) land (Array.length l.ltime - 1))
    then heap_push h time tag f
    else begin
      if l.count = Array.length l.ltime then grow_lane l;
      let i = (l.head + l.count) land (Array.length l.ltime - 1) in
      l.ltime.(i) <- time;
      l.lstamp.(i) <- h.next_stamp;
      l.lthunk.(i) <- f;
      l.ltag.(i) <- tag;
      h.next_stamp <- h.next_stamp + 1;
      l.count <- l.count + 1;
      h.in_lanes <- h.in_lanes + 1;
      if l.count = 1 && (h.best < 0 || head_precedes l h.lanes.(h.best)) then h.best <- k;
      lnot (((l.first + l.count - 1) lsl lane_bits) lor k)
    end

(* A lane entry still in its lane is found by its sequence number; one
   that left it was taken, or moved into the heap by a re-stamp. *)
let cancel h handle =
  if handle >= 0 then heap_cancel h handle
  else if handle <> none then begin
    let l = h.lanes.(lnot handle land lane_mask) in
    let d = (lnot handle lsr lane_bits) - l.first in
    if d < 0 then
      match Hashtbl.find_opt h.moved handle with Some moved -> heap_cancel h moved | None -> ()
    else if d < l.count then l.lthunk.((l.head + d) land (Array.length l.lthunk - 1)) <- nop
  end

(* Remove lane [k]'s head and return its closure. *)
let lane_take h k =
  let l = h.lanes.(k) in
  let i = l.head in
  let f = l.lthunk.(i) in
  l.lthunk.(i) <- nop;
  l.head <- (i + 1) land (Array.length l.lthunk - 1);
  l.count <- l.count - 1;
  l.first <- l.first + 1;
  h.in_lanes <- h.in_lanes - 1;
  rescan h;
  f

(* --- the earliest event ---------------------------------------------------- *)

let size h = h.size + h.in_lanes
let is_empty h = size h = 0
let check_nonempty h name = if size h = 0 then invalid_arg ("Event_heap." ^ name ^ ": empty queue")

(* where the earliest event is: -1 for the heap root, else its lane *)
let[@inline] earliest h =
  let k = h.best in
  if k < 0 || h.size = 0 then k
  else
    let l = h.lanes.(k) in
    if precedes l.ltime.(l.head) l.lstamp.(l.head) h.time.(0) h.stamp.(0) then k else -1

type cell = { mutable time : float }

let min_time h cell =
  check_nonempty h "min_time";
  let k = earliest h in
  cell.time <- (if k < 0 then h.time.(0) else h.lanes.(k).ltime.(h.lanes.(k).head))

let min_tag h =
  check_nonempty h "min_tag";
  let k = earliest h in
  if k < 0 then h.tag.(h.slot.(0)) else h.lanes.(k).ltag.(h.lanes.(k).head)

let take h =
  check_nonempty h "take";
  let k = earliest h in
  if k >= 0 then lane_take h k
  else begin
    let sl = h.slot.(0) in
    let f = h.thunk.(sl) in
    h.thunk.(sl) <- nop;
    h.gen.(sl) <- (h.gen.(sl) + 1) land gen_mask;
    let last = h.size - 1 in
    h.size <- last;
    if last > 0 then sift_down h 0 last;
    h.free.(last) <- sl;
    f
  end

(* Keys are unique under (time, stamp), so the pop order does not depend on
   the heap's shape: giving the root a fresh stamp and sinking it is the
   same as taking it out and pushing it back, and its slot, so its handle,
   stays. A lane head cannot take a fresh stamp in place (it would then
   follow entries queued behind it at its time), so it moves into the heap;
   [moved] maps its lane handle to its heap one, after dropping the pairs
   whose events are gone. *)
let requeue_min h =
  check_nonempty h "requeue_min";
  let k = earliest h in
  if k < 0 then begin
    h.stamp.(0) <- h.next_stamp;
    h.next_stamp <- h.next_stamp + 1;
    sift_down h 0 0
  end
  else begin
    let l = h.lanes.(k) in
    let time = l.ltime.(l.head) and tag = l.ltag.(l.head) in
    let from = lnot ((l.first lsl lane_bits) lor k) in
    let f = lane_take h k in
    let queued moved = h.gen.(moved land slot_mask) = moved asr slot_bits in
    Hashtbl.filter_map_inplace (fun _ moved -> if queued moved then Some moved else None) h.moved;
    Hashtbl.replace h.moved from (heap_push h time tag f)
  end
