(* A 4-ary min-heap of keys (time, push stamp, slot) kept as three unboxed
   arrays, plus a slot table holding each queued event's closure and tag.
   Sifts only ever move floats and ints, so they never touch the write
   barrier; a closure is written once when pushed and cleared once when
   taken.

   An event's closure stays at its slot while it waits, so a handle is the
   slot and that slot's generation, which [take] bumps: cancel writes the
   no-op into the slot while the generations agree, and is a no-op once
   the event has been taken. *)

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
}

type handle = int

let slot_bits = 26
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl (62 - slot_bits)) - 1
let none = -1

let nop () = ()
let initial = 64

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

let push h ~now ~delay ~tag f =
  if h.size = Array.length h.time then grow h;
  let i = h.size in
  let sl = h.free.(i) in
  h.thunk.(sl) <- f;
  h.tag.(sl) <- tag;
  h.time.(i) <- now +. delay;
  h.stamp.(i) <- h.next_stamp;
  h.slot.(i) <- sl;
  h.next_stamp <- h.next_stamp + 1;
  h.size <- i + 1;
  sift_up h i;
  (h.gen.(sl) lsl slot_bits) lor sl

let cancel h handle =
  let sl = handle land slot_mask in
  if sl < Array.length h.gen && h.gen.(sl) = handle asr slot_bits then h.thunk.(sl) <- nop

let check_nonempty h name = if h.size = 0 then invalid_arg ("Event_heap." ^ name ^ ": empty queue")

let min_time h =
  check_nonempty h "min_time";
  h.time.(0)

let min_tag h =
  check_nonempty h "min_tag";
  h.tag.(h.slot.(0))

let take h =
  check_nonempty h "take";
  let sl = h.slot.(0) in
  let f = h.thunk.(sl) in
  h.thunk.(sl) <- nop;
  h.gen.(sl) <- (h.gen.(sl) + 1) land gen_mask;
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then sift_down h 0 last;
  h.free.(last) <- sl;
  f

(* Keys are unique under (time, stamp), so the pop order does not depend on
   the heap's shape: giving the root a fresh stamp and sinking it is the
   same as taking it out and pushing it back. Its slot stays, so its handle
   still cancels it. *)
let requeue_min h =
  check_nonempty h "requeue_min";
  h.stamp.(0) <- h.next_stamp;
  h.next_stamp <- h.next_stamp + 1;
  sift_down h 0 0

let size h = h.size
let is_empty h = h.size = 0
