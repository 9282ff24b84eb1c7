(** Priority queue of timestamped thunks — the simulator's event list.

    Events fire in order of (time, push stamp): every push takes the next
    stamp, so events with equal times fire in insertion order, which keeps
    protocol simulations deterministic.

    Most events sit in a 4-ary heap whose arrays hold only unboxed keys —
    time, stamp and slot index. Each event's closure and int tag sit in a
    slot table and stay put while the event is queued, so sifts move plain
    numbers and never hit the write barrier; taking the earliest event
    allocates nothing.

    Timers ({!push_timer}) go instead to a FIFO lane kept for their delay.
    A lane entry holds its time, stamp, closure and tag, 4 words against a
    heap event's 7. The caller's clock never moves back, so a lane is
    already in (time, stamp) order and costs no sifting; the earliest event
    is the least of the heap root and the lane heads. Where an event waits
    changes nothing about when it fires. Every push returns a {!handle}
    that cancels its event in O(1). *)

type t

type handle
(** Names one queued event, for {!cancel}. In the heap it is the event's
    slot and the slot's generation, which moves on when the event is taken;
    in a lane, the lane and the entry's sequence number in it. *)

val none : handle
(** Never returned by a push; cancelling it does nothing. *)

val max_lanes : int
(** How many timer delays have a lane at once (16). A lane that empties is
    handed to the next delay that finds none; a timer whose delay finds
    neither its own lane nor an empty one goes to the heap. *)

val create : unit -> t

val push : t -> now:float -> delay:float -> tag:int -> (unit -> unit) -> handle
(** Queue a thunk in the heap at [now +. delay] under the next stamp. [tag]
    is the caller's: the queue only stores it ({!Engine} uses it to say who
    the event is for). The sum is taken here, so the caller boxes no float
    for it. Fails once more than 2{^26} events are queued in the heap at
    once. *)

val push_timer : t -> now:float -> delay:float -> tag:int -> (unit -> unit) -> handle
(** {!push}, into the lane of [delay]. [now] must never be earlier than at
    an earlier push: a lane relies on it, and an entry that would fall
    before its lane's last one goes to the heap instead, as does one whose
    delay finds no lane. *)

val cancel : t -> handle -> unit
(** Replace the queued closure with a no-op, dropping what only it held.
    The event stays queued, with its time, stamp and tag, and is taken in
    its turn like any other; after {!requeue_min} too, which moves a lane
    head into the heap. A stale handle — its event already taken — is a
    no-op: a heap slot's generation has moved on, and names no event until
    the slot has been taken from another 2{^36} times; a lane's sequence
    numbers never repeat. *)

type cell = { mutable time : float }
(** A float its owner reads unboxed: a record of floats only stores them
    flat. *)

val min_time : t -> cell -> unit
(** Write the time of the earliest event into the caller's cell. A float
    result would be boxed on its way out of this module under dune's
    [-opaque] dev profile, 2 words on every event [Engine.run] takes.
    Raises [Invalid_argument] when empty, as do {!min_tag}, {!take} and
    {!requeue_min}. *)

val min_tag : t -> int
(** Tag of the earliest event. *)

val take : t -> (unit -> unit)
(** Remove the earliest event and return its thunk. *)

val requeue_min : t -> unit
(** Put the earliest event back under a fresh stamp — exactly as if it had
    been taken and pushed again with {!push} — so it now fires after every
    other event at its time. A lane head moves into the heap. *)

val size : t -> int
(** Queued events, heap and lanes together, cancelled ones included. *)

val is_empty : t -> bool
