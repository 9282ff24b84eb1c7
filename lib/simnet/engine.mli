(** Discrete-event network simulation engine.

    Nodes are integer addresses; a message is a closure executed at its
    arrival time (send time + link latency from the latency function).
    The engine queues the caller's closure as it is, tagged with whom the
    event is for (a message to [dst], a timer on [node], or a god event),
    and does the liveness check and the counting from that tag when the
    event fires — no per-event wrapper closure.
    The engine models node failures (messages to or timers on a dead node are
    silently discarded — a {e silent fail}, exactly the failure mode the
    Chord and HIERAS maintenance protocols must survive) and optional random
    message loss.

    The protocol layers ({!Chord.Protocol}, [Hieras.Hprotocol]) are built on
    this engine; the large-scale routing experiments bypass it and use the
    oracle-built networks instead (see DESIGN.md §5). *)

type t

val create : latency:(int -> int -> float) -> nodes:int -> t
(** [create ~latency ~nodes]: addresses are [0 .. nodes-1]; [latency a b] is
    the one-way message delay in ms ([a = b] allowed and usually 0). All
    nodes start alive. *)

val now : t -> float
(** Current simulated time (ms). *)

val is_alive : t -> int -> bool
val kill : t -> int -> unit
(** Silent fail: pending deliveries and timers for the node are discarded on
    arrival. Killing an already-dead node is a no-op — it does not bump
    {!deaths} or move the {!live_count} gauge, so overlapping fault
    schedules cannot skew the accounting. *)

val revive : t -> int -> unit
(** Reviving a live node is likewise a transition-only no-op. *)

val set_loss : t -> rate:float -> rng:Prng.Rng.t -> unit
(** Drop each message independently with probability [rate] (0 disables). *)

val send : t -> kind:Obs.Netspan.kind -> src:int -> dst:int -> (unit -> unit) -> unit
(** Deliver the closure at [now + latency src dst], unless the destination is
    dead at delivery time or the message is lost. The source must be alive
    when sending (a dead source raises [Invalid_argument] — protocols must
    not act from beyond the grave).

    [kind] labels the message for the attached {!Obs.Netspan} tracer
    ([Other] when nothing more specific fits); it is ignored when no tracer
    is attached, and being a required argument it costs no option box even
    when computed. With a tracer attached, the send records a span whose
    parent is the message being delivered right now (sends from timers,
    god-events and driver code start fresh causal trees), and the loss
    draw happens at the same point in the RNG stream as on the untraced
    path, so tracing never changes simulation behavior. *)

type handle
(** Names one armed timer, for {!cancel}. *)

val timer : t -> node:int -> delay:float -> (unit -> unit) -> handle
(** Local timer: fires after [delay] ms unless the node is dead by then
    (then it counts into {!dropped_dead}). Sets and fires are counted
    ({!timers_set} / {!timers_fired}) so the conservation law stays
    checkable in runs that use timers. Timers wait in a FIFO lane per
    distinct delay beside the event heap (see {!Event_heap}); that changes
    nothing about when they fire. *)

val cancel : t -> handle -> unit
(** Drop the timer's closure, and everything only it holds, at once. The
    timer itself stays queued and fires in its turn as a no-op — counted
    into {!timers_fired} or {!dropped_dead} as before — so the fire order,
    the counters, [pending_events] and the conservation law are exactly
    those of a run that never cancels. A timer that a [run ~until]
    boundary re-queued, moving it from its lane into the heap, is still
    cancelled. A stale handle — its timer already fired or dropped — is a
    no-op. *)

val no_timer : handle
(** Never returned by {!timer}; cancelling it does nothing. *)

val settle : t -> handle ref -> bool
(** A request's timeout, settled once. The cell holds the request's
    timeout timer. The first [settle] cancels that timer, leaves
    {!no_timer} in the cell and returns [true]; every later one returns
    [false]. The reply and the timeout each settle the cell, and whichever
    lands first acts, so a request that got its reply holds nothing in the
    queue. The cell may hold {!no_timer} until the timer is armed, as long
    as that happens before the engine runs. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** God-event: fires unconditionally — used by test harnesses to inject
    failures, joins, and assertions at chosen times. *)

val run : ?max_events:int -> ?until:float -> t -> unit
(** Process events in order of (time, push stamp) — equal-time events in
    the order they were queued — until the queue is empty, [until]
    (exclusive) is reached, or [max_events] have run. Remaining events stay
    queued; [run] can be called again.

    Reaching [until] sets the clock to it. The first event at or after
    [until] is queued again under a fresh stamp, as if taken out and pushed
    back, so it then fires after every event already queued at its time;
    results depend on this order (see DESIGN.md §5). Raises
    [Invalid_argument] if [until] is earlier than {!now}: the clock never
    moves back. *)

val run_until_quiet : ?max_events:int -> t -> unit
(** Run until the queue drains completely (bounded by [max_events],
    default 10 million; raises [Failure] if exceeded — a livelock guard). *)

(** Delivery statistics (cumulative). *)

val sent : t -> int
val delivered : t -> int
val dropped_dead : t -> int
(** Messages/timers discarded because the destination was dead. *)

val dropped_loss : t -> int
(** Messages discarded by random loss injection. *)

val deaths : t -> int
(** Live-to-dead transitions effected by {!kill} (no-op kills excluded). *)

val revivals : t -> int
(** Dead-to-live transitions effected by {!revive} (no-op revives
    excluded). [deaths - revivals = nodes - live_count] always holds. *)

val live_count : t -> int
(** Nodes currently alive. *)

val timers_set : t -> int
(** Timers armed by {!timer} ({!schedule} god-events are not counted). *)

val timers_fired : t -> int
(** Timers that fired on a live node. A timer set but not yet due stays in
    the queue ([pending_events]); one due on a dead node counts into
    {!dropped_dead} instead. *)

val attach_timeseries : ?prefix:string -> t -> Obs.Timeseries.t -> unit
(** Stream per-bucket traffic into a time-series collector from now on:
    counter series [<prefix>.sent], [.delivered] and [.dropped] (dead-node
    and loss drops combined) plus gauge series [<prefix>.live] (population
    after each kill/revive transition), stamped with the simulated clock
    (default prefix ["net"]). Attaching the disabled collector detaches.
    Events already processed are not back-filled. *)

val attach_netspan : t -> Obs.Netspan.t -> unit
(** Record every subsequent send as a message-level span (see
    {!Obs.Netspan}): kind, src/dst, send time, link latency and causal
    parent, plus a drop record when the message is lost or its destination
    dead at arrival. Attaching {!Obs.Netspan.disabled} (the initial state)
    detaches; the disabled path is the pre-tracing code, branch-for-branch.
    Messages already sent are not back-filled. *)

val netspan : t -> Obs.Netspan.t
(** The currently attached tracer (for end-of-run accounting audits). *)

val export_metrics : ?prefix:string -> t -> Obs.Metrics.t -> unit
(** Mirror the engine's cumulative state into a metrics registry: counters
    [<prefix>.sent], [.delivered], [.dropped_dead], [.dropped_loss],
    [.timers_set], [.timers_fired], [.deaths], [.revivals] and
    [.pending_events], gauges [<prefix>.live] and [<prefix>.clock_ms]
    (default prefix ["simnet"]). The conservation law
    [sent + timers_set = delivered + timers_fired + dropped_dead +
    dropped_loss] holds whenever the event queue has drained ([timer]
    drops on dead nodes count into [dropped_dead]; [schedule] god-events
    are never counted on either side). Idempotent: re-exporting
    overwrites the same series. *)
