(** Message-level Chord protocol (join / stabilize / notify / fix-fingers /
    check-predecessor) running on {!Simnet.Engine}.

    This is the dynamic counterpart of the oracle builder in {!Network}: real
    Chord as in Stoica et al., driven entirely by simulated messages and
    timers, with successor lists for fault tolerance. Nodes join through a
    bootstrap peer, periodically stabilize, and survive silent node failures
    (the engine drops messages to dead nodes; requesters detect loss by
    timeout and route around).

    The ring itself — per-node state, the three maintenance timers and
    their periods, the join retry loop, the convergence probe and the
    lookup walk — is one {!Ring}, of which flat Chord is the one-ring case;
    this module adds the node lifecycle and metrics.

    Tests assert that a protocol-built ring converges to exactly the
    fixpoint {!Network.build} computes directly, and that lookups keep
    succeeding under churn and message loss. *)

type config = Ring.config = {
  space : Hashid.Id.space;
  succ_list_len : int;
  rpc_timeout : float;  (** ms before a request is considered lost *)
  adaptive : bool;
      (** back off maintenance intervals while converged (default false —
          fixed cadence, byte-compatible with earlier versions) *)
}

val default_config : Hashid.Id.space -> config

type t

val create : ?ts:Obs.Timeseries.t -> config -> Simnet.Engine.t -> t
(** [ts] (default disabled) receives churn series stamped with sim time:
    gauge [chord.members] (nodes present and alive, set on every lifecycle
    event — joins still in progress count) and counters [chord.joins]
    (initiated), [chord.joins_completed] (first successor learned,
    maintenance started) and [chord.fails]. Convergence series: counter
    [chord.maint.ops] (maintenance RPCs initiated), gauges
    [chord.maint.scale] (current interval multiplier) and [chord.stable]
    (0/1 convergence flag, sampled at probe cadence). *)

val engine : t -> Simnet.Engine.t
val config : t -> config
val rings : t -> Ring.t array
(** The one ring, as {!Ring.create} returned it. *)

val spawn : t -> addr:int -> id:Hashid.Id.t -> unit
(** Create the first node: a one-node ring (its own successor), maintenance
    timers started. *)

val join : t -> addr:int -> id:Hashid.Id.t -> bootstrap:int -> unit
(** Schedule a join through [bootstrap] (which must eventually answer). The
    node is live once its first [find_successor] reply arrives. *)

val fail_node : t -> int -> unit
(** Silent fail: the node stops responding (engine-level kill). *)

type lookup_outcome = Ring.outcome = {
  owner_addr : int;
  owner_id : Hashid.Id.t;
  hops : int;
  lower_hops : int;  (** always 0: one ring *)
}

val lookup :
  t -> origin:int -> key:Hashid.Id.t -> (lookup_outcome option -> unit) -> unit
(** {!Ring.lookup} over the one ring. *)

(** {2 Introspection (tests and examples)} *)

val is_member : t -> int -> bool
(** Spawned/joined and currently alive. *)

val node_id : t -> int -> Hashid.Id.t
val successor_addr : t -> int -> int option
val predecessor_addr : t -> int -> int option
val successor_list_addrs : t -> int -> int list
val finger_addrs : t -> int -> int option array

val ring_from : t -> int -> int list
(** Follow successor pointers from a node until the cycle closes (or a
    length guard trips) — the current ring order as this node sees it. *)

val live_members : t -> int list

(** {2 Convergence and maintenance cost}

    A {!Simnet.Stability} detector fingerprints the whole routing state
    (live membership, predecessors, successor lists, finger tables) every
    500 ms (the stabilize period), from the first spawn/join on; 3
    unchanged probes in a row declare the ring converged. With [adaptive]
    set, maintenance intervals double while the ring is stable (up to 8×)
    and snap back to the base cadence the moment the fingerprint changes
    or a lifecycle event lands. The probe itself runs
    as an engine god-event: it sends no messages and never backs off, so
    detection latency stays bounded. *)

val stability : t -> Simnet.Stability.t
val converged : t -> bool
(** [converged t = Simnet.Stability.is_stable (stability t)]. *)

val interval_scale : t -> float
(** Current maintenance-interval multiplier (1.0 unless [adaptive]). *)

val maintenance_ops : t -> int
(** Total maintenance RPCs initiated (stabilize + notify + fix-fingers +
    check-predecessor) — the bandwidth-overhead measure. *)

val export_metrics : ?prefix:string -> t -> Obs.Metrics.t -> unit
(** Counters [<prefix>.maint.{stabilize,notify,fix_fingers,check_pred,total}],
    gauge [<prefix>.maint.scale], and the detector's metrics under
    [<prefix>.stability] (default prefix ["chord.protocol"]). Idempotent. *)
