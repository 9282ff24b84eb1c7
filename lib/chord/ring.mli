(** Chord rings at message level, shared by both message protocols, and
    the one lookup walk over them.

    A ring is a node table of per-node Chord state (predecessor, successor
    list, fingers) kept current by three timers per node — stabilize (with
    notify), fix fingers and check predecessor — plus the request/response
    and join plumbing those timers need. {!Protocol} runs one ring;
    [Hieras.Hprotocol] runs one per layer, and the rings of one protocol
    instance share the engine, the configuration, the adaptive interval
    multiplier, the maintenance counters and the convergence probe, which
    keeps one {!Simnet.Stability} detector per ring. {!lookup} runs the
    plain Chord greedy loop ring by ring, so flat Chord is its one-ring
    case, and every ring-local find is that walk on one ring.

    Every function sends and arms timers in a fixed order: message loss is
    drawn per send, so that order is part of the simulation's behaviour.

    Ids travel as ints: a node's {!state.key} and a peer's {!peer.pid} are
    [Id.to_int] of the id, so every interval test on the walk and in
    maintenance is an int compare, with {!Hashid.Id}'s conventions. That
    caps the space at 62 bits ({!create}); every message-level run uses
    32. Ids are converted only where they enter ({!add}, {!lookup},
    {!find_successor}) and where a lookup's owner leaves ({!outcome}).

    The maintenance settings no experiment varies are constants here:
    stabilize and fix-fingers every 500 ms and check-predecessor every
    1000 ms (each stretched by the adaptive multiplier), 8 finger slots
    per fix-fingers round, {!lookup_retries} re-issues of a lookup, 3
    unchanged probes before a ring counts as converged, and a cap of 8 on
    the adaptive multiplier. *)

type config = {
  space : Hashid.Id.space;
  succ_list_len : int;
  rpc_timeout : float;  (** ms before a request is considered lost *)
  adaptive : bool;
      (** back off maintenance intervals while every ring is converged
          (default false — fixed cadence) *)
}

val default_config : Hashid.Id.space -> config
(** Successor lists of 4, a 2000 ms timeout, fixed cadence. *)

val lookup_retries : int
(** Times a source re-issues an unanswered lookup before it gives up (3). *)

type peer = { paddr : int; pid : int  (** the peer's id as an int *) }

type ticks
(** A node's maintenance rounds as the closures its timers fire, built
    once by {!start}. *)

(** One node's state on one ring. *)
type state = {
  addr : int;
  id : Hashid.Id.t;
  key : int;  (** [id] as an int *)
  mutable pred : peer option;
  mutable succs : peer list;  (** head = immediate successor *)
  fingers : peer option array;
  mutable next_finger : int;
  mutable anchor : int;
      (** long-lived re-entry point (the bootstrap peer): a node that loses
          its whole successor list re-joins through it, and periodically
          cross-checks its successor against it. [addr] (the default)
          disables both. *)
  mutable stabilize_rounds : int;
  mutable succ_suspect : int;
      (** consecutive stabilize timeouts against the current successor *)
  mutable ticks : ticks;
}

type t
(** One ring: its node table, kept also as an index sorted by address, and
    its convergence detector. *)

val create : ?ts:Obs.Timeseries.t -> prefix:string -> rings:int -> config -> Simnet.Engine.t -> t array
(** [rings] rings sharing one engine, configuration and probe; index 0 is
    the global ring. Raises [Invalid_argument] when the configuration's
    space is wider than 62 bits, the most an int key holds. [ts]
    (default disabled) receives the series [<prefix>.members] (gauge),
    [<prefix>.joins], [<prefix>.joins_completed], [<prefix>.fails] and
    [<prefix>.maint.ops] (counters), [<prefix>.maint.scale] and
    [<prefix>.stable] (gauges). *)

val add : t -> addr:int -> id:Hashid.Id.t -> state
(** Register a node with an empty successor list and no fingers; its
    anchor is itself. The caller rejects reused addresses; a reused one
    replaces the node of that address. The node enters the address index
    in its sorted place. *)

val find : t -> int -> state
(** Raises [Not_found] for an unknown address. *)

val mem : t -> int -> bool
val engine : t -> Simnet.Engine.t
val config : t -> config
val self_peer : state -> peer
val current_successor : state -> peer
(** Head of the successor list, the node itself when the list is empty. *)

val in_oo : int -> lo:int -> hi:int -> bool
(** {!Hashid.Id.in_oo} on int keys: [(a, a)] is the circle minus [a]. *)

val in_oc : int -> lo:int -> hi:int -> bool
(** {!Hashid.Id.in_oc} on int keys: [(a, a\]] is the whole circle. *)

val closest_preceding : state -> key:int -> peer
(** Best known next hop strictly inside (node, key): the known peer closest
    to the key among the fingers and the successor list; falls back to
    {!current_successor}. Runs on every forwarded hop and allocates
    nothing. *)

(** {2 Messages} *)

val ask :
  t ->
  kind:Obs.Netspan.kind ->
  src:int ->
  dst:int ->
  service:(state -> 'a) ->
  ok:('a -> unit) ->
  timeout:(unit -> unit) ->
  unit
(** Request/response with timeout: [service] runs at [dst] against its
    state on this ring and its result travels back in a [Reply]; a timer at
    [src] fires [timeout] if no response arrived within [rpc_timeout]. The
    response cancels that timer ({!Simnet.Engine.settle}), so [timeout]
    and all it holds leave the event queue when the response lands. *)

(** {2 The walk} *)

type outcome = {
  owner_addr : int;
  owner_id : Hashid.Id.t;  (** the answering peer's {!peer.pid} as an id *)
  hops : int;  (** forwards up to the node that answers: 0 when the origin does *)
  lower_hops : int;  (** those sent on a ring above the global one *)
}

val lookup : t array -> origin:int -> key:Hashid.Id.t -> (outcome option -> unit) -> unit
(** Resolve [key]'s owner from [origin] over the rings of {!create}, last
    ring first: each node forwards the query to {!closest_preceding} on the
    current ring until the key lies between it and its successor there. On
    the global ring that node answers with its successor; above it, with
    its global successor when that owns the key, else the query descends a
    ring at the same node. The answer travels straight back to [origin]. A
    timer at [origin] re-issues the query up to {!lookup_retries} times,
    then the callback gets [None]. The first send is a [Lookup] span, later
    hops [Forward] and the answer a [Reply]. *)

val find_successor :
  t -> kind:Obs.Netspan.kind -> src:int -> key:Hashid.Id.t -> retries:int ->
  ok:(peer -> int -> int -> unit) -> failed:(unit -> unit) -> unit
(** The walk of {!lookup} on this ring alone, for [src]; [ok] gets the
    successor and the hops of {!outcome}. The timer re-issues the query up
    to [retries] times, then calls [failed]; with [retries < 0] there is no
    timer. [kind] labels the first send. *)

val find_successor_via :
  t -> kind:Obs.Netspan.kind -> src:int -> via:int -> key:Hashid.Id.t -> retries:int ->
  ok:(peer -> int -> int -> unit) -> failed:(unit -> unit) -> unit
(** {!find_successor}, first forwarded to [via] (joins and anchor checks). *)

(** {2 Maintenance} *)

val truncate_succs : t -> state -> peer list -> peer list
(** Successor-list hygiene: drop the node itself and dead peers, dedup by
    address keeping the first occurrence, cap at [succ_list_len]. Allocates
    only the returned list. *)

val start : t -> state -> unit
(** Arm the node's stabilize, fix-fingers and check-predecessor timers, in
    that order. A fix-fingers round walks {!find_successor}'s query for
    each of its 8 finger slots; the query carries its slot, so its answer
    writes the finger (keeping the old box when the peer is the same) and
    its timeout clears it, with no continuation allocated. *)

val join : t -> state -> bootstrap:int -> joined:(unit -> unit) -> unit
(** Find the node's own id through [bootstrap], retrying forever (with a
    longer pause once {!lookup_retries} are spent); on the first answer
    adopt it as the successor and call [joined]. *)

(** {2 Lifecycle, convergence and cost} *)

val lifecycle : ?census:(float -> unit) -> t array -> [ `Spawn | `Join | `Fail ] -> unit
(** A spawn, join or fail is about to change the routing state of every
    ring: restart every convergence clock, revert any backed-off interval,
    start the probe loop on the first event, count the event and refresh
    the membership gauge. The gauge and [census] (the protocol's own
    gauges, given the sim time) walk the whole node table, so they run only
    when a collector is attached. *)

val joined : ?census:(float -> unit) -> t array -> unit
(** Count a completed join; with [census], refresh the gauges as above. *)

val fingerprint : t -> int
(** Digest of the ring's routing state that the convergence probe observes
    every 500 ms: each live node's address, predecessor, successor list and
    fingers, folded with {!Simnet.Stability.fp_add} in address order along
    the index. Allocates nothing. *)

val stability : t -> Simnet.Stability.t
val scale : t -> float
(** Current maintenance-interval multiplier (1.0 unless [adaptive]). *)

val count_duty : t -> unit
(** Count one protocol-specific maintenance RPC (HIERAS ring-table duties)
    in [duty] and the maint.ops series. *)

type counts = { stabilize : int; notify : int; fix_fingers : int; check_pred : int; duty : int }

val counts : t -> counts
val maintenance_ops : t -> int
(** Sum of {!counts}. *)

(** {2 Introspection} *)

val successor_addr : t -> int -> int option
val predecessor_addr : t -> int -> int option
val successor_list_addrs : t -> int -> int list
val finger_addrs : t -> int -> int option array

val ring_from : t -> int -> int list
(** Follow successor pointers from a node until the cycle closes (or a
    length guard trips). *)

val live_members : t -> int list
(** Sorted addresses of the ring's nodes that are alive. *)
