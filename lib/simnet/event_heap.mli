(** Priority queue of timestamped thunks — the simulator's event list.

    Events fire in order of (time, push stamp): every push takes the next
    stamp, so events with equal times fire in insertion order, which keeps
    protocol simulations deterministic.

    The heap's arrays hold only unboxed keys — time, stamp and slot index —
    in a 4-ary layout. Each event's closure and int tag sit in a slot table
    and stay put while the event is queued, so sifts move plain numbers and
    never hit the write barrier; taking the earliest event allocates
    nothing. Because the closure stays put, a queued event can be cancelled
    in O(1) through the {!handle} its push returned. *)

type t

type handle
(** Names one queued event, for {!cancel}: its slot and the slot's
    generation, which moves on when the event is taken. *)

val none : handle
(** Never returned by {!push}; cancelling it does nothing. *)

val create : unit -> t

val push : t -> now:float -> delay:float -> tag:int -> (unit -> unit) -> handle
(** Queue a thunk at [now +. delay] under the next stamp. [tag] is the
    caller's: the queue only stores it ({!Engine} uses it to say who the
    event is for). The sum is taken here, so the caller boxes no float for
    it. Fails once more than 2{^26} events are queued at once. *)

val cancel : t -> handle -> unit
(** Replace the queued closure with a no-op, dropping what only it held.
    The event stays queued, with its time, stamp and tag, and is taken in
    its turn like any other; {!requeue_min} does not change its handle. A
    stale handle — its event already taken — is a no-op: the slot's
    generation has moved on, and it names no event until the same slot has
    been taken from another 2{^36} times. *)

val min_time : t -> float
(** Time of the earliest event. Raises [Invalid_argument] when empty, as do
    {!min_tag}, {!take} and {!requeue_min}. *)

val min_tag : t -> int
(** Tag of the earliest event. *)

val take : t -> (unit -> unit)
(** Remove the earliest event and return its thunk. *)

val requeue_min : t -> unit
(** Put the earliest event back under a fresh stamp — exactly as if it had
    been taken and pushed again — so it now fires after every other event
    at its time. *)

val size : t -> int
(** Queued events, cancelled ones included. *)

val is_empty : t -> bool
