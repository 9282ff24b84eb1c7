(** Priority queue of timestamped thunks — the simulator's event list.

    Events fire in order of (time, push stamp): every push takes the next
    stamp, so events with equal times fire in insertion order, which keeps
    protocol simulations deterministic.

    The heap's arrays hold only unboxed keys — time, stamp and slot index —
    in a 4-ary layout. Each event's closure and int tag sit in a slot table
    and stay put while the event is queued, so sifts move plain numbers and
    never hit the write barrier; taking the earliest event allocates
    nothing. *)

type t

val create : unit -> t

val push : t -> time:float -> tag:int -> (unit -> unit) -> unit
(** Queue a thunk at [time] under the next stamp. [tag] is the caller's: the
    queue only stores it ({!Engine} uses it to say who the event is for). *)

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
val is_empty : t -> bool
