(** Message-level HIERAS protocol on {!Simnet.Engine} (paper §3.3).

    The dynamic counterpart of {!Hnetwork}: every node keeps one Chord-style
    state block (predecessor, successor list, fingers) {e per layer}, and the
    system additionally maintains {!Ring_table}s, stored on the top-layer
    node whose identifier is closest to the hashed ring name.

    A node joins by: fetching the landmark table from its bootstrap peer,
    measuring its distance to every landmark (simulated pings through the
    latency oracle), quantising the vector into one ring name per lower
    layer, joining the top layer with an ordinary Chord join, and then, for
    every lower layer, locating the ring's table through a top-layer lookup,
    asking a recorded member for its ring-level successor, and finally
    registering itself in the table if its identifier displaces one of the
    four extremes — exactly the sequence of §3.3. The first node of a ring
    creates the ring table.

    Maintenance: one {!Chord.Ring} per layer, each running stabilize /
    notify / fix-fingers / check-predecessor with failure suspicion
    (anchor-based split-ring healing on the global ring only), plus three
    ring-table duties on every node that stores tables: a liveness check
    that expunges dead entries and refills from a surviving member's
    successor list; replication of each table to the global successor
    ("duplicated on several nodes for fault tolerance", §3.1) with
    promotion when ownership passes to the replica holder; and a migration
    check that re-routes each table to the currently responsible top-layer
    node as churn moves ownership. A periodic ring-refresh duty re-reads
    each ring's table and merges the private rings that concurrent joins
    with stale tables can create. The periods are constants, not settings:
    each ring keeps {!Chord.Ring}'s, and the table duties and the ring
    refresh run every 2000 ms. *)

type config = {
  space : Hashid.Id.space;
  depth : int;  (** >= 2 *)
  succ_list_len : int;
  rpc_timeout : float;
  adaptive : bool;
      (** back off maintenance intervals while every layer is converged
          (default false — fixed cadence, byte-compatible with earlier
          versions) *)
}

val default_config : Hashid.Id.space -> depth:int -> config
(** Successor lists of 4, a 2000 ms timeout, fixed cadence. *)

type t

val create :
  ?ts:Obs.Timeseries.t ->
  config ->
  Simnet.Engine.t ->
  lat:Topology.Latency.t ->
  landmarks:Binning.Landmark.t ->
  t
(** Engine addresses must be topology host indices (the landmark "pings" of
    joining nodes are answered from the latency oracle).

    [ts] (default disabled) receives churn series stamped with sim time:
    gauges [hieras.members] (nodes present and alive, including joins in
    progress) and [hieras.layer<k>.rings] (distinct layer-[k] ring names
    over the live members, [k] in 2..depth), plus counters [hieras.joins]
    (initiated), [hieras.joins_completed] (all layers joined, maintenance
    started) and [hieras.fails]. All are refreshed on every
    join/spawn/fail. Convergence series: counter [hieras.maint.ops]
    (maintenance RPCs initiated, ring duties included), gauges
    [hieras.maint.scale] (current interval multiplier) and [hieras.stable]
    (0/1, set when every layer is converged; sampled at probe cadence).

    Raises [Invalid_argument] if [depth < 2]. *)

val engine : t -> Simnet.Engine.t
val config : t -> config
val rings : t -> Chord.Ring.t array
(** One ring per layer, [rings.(k - 1)] at paper layer [k]. *)

val spawn : t -> addr:int -> id:Hashid.Id.t -> unit
(** First node: creates every layer as a one-node ring plus the ring tables
    for its own rings. *)

val join : t -> addr:int -> id:Hashid.Id.t -> bootstrap:int -> unit
val fail_node : t -> int -> unit

type lookup_outcome = Chord.Ring.outcome = {
  owner_addr : int;
  owner_id : Hashid.Id.t;
  hops : int;
  lower_hops : int;  (** hops taken on layers >= 2 *)
}

val lookup :
  t -> origin:int -> key:Hashid.Id.t -> (lookup_outcome option -> unit) -> unit
(** {!Chord.Ring.lookup} over every layer's ring, the lowest layer first. *)

(** {2 Introspection (tests and examples)} *)

val is_member : t -> int -> bool
val node_id : t -> int -> Hashid.Id.t
val order_of : t -> int -> layer:int -> string
(** Ring name digits of a node at a paper layer in [2 .. depth]. *)

val successor_addr : t -> int -> layer:int -> int option
(** Successor at a paper layer (1 = global). *)

val predecessor_addr : t -> int -> layer:int -> int option
val successor_list_addrs : t -> int -> layer:int -> int list
val finger_addrs : t -> int -> layer:int -> int option array
val ring_from : t -> int -> layer:int -> int list
(** Follow layer-successor pointers from a node until the cycle closes. *)

val stored_ring_tables : t -> int -> Ring_table.t list
(** Ring tables currently stored on a node. *)

val replica_ring_tables : t -> int -> Ring_table.t list
(** Backup copies this node holds for other managers' tables. *)

val find_ring_table : t -> Ring_name.t -> (int * Ring_table.t) option
(** Scan all live nodes for a ring's table (oracle-side test helper):
    returns the storing node and the table. *)

val live_members : t -> int list

(** {2 Convergence and maintenance cost}

    One {!Simnet.Stability} detector per layer, fed from a fixed-cadence
    message-free probe that fingerprints each layer's routing state
    (live membership, predecessors, successor lists, finger tables). With
    [adaptive] set, all maintenance intervals (including ring duties)
    double while {e every} layer is stable, up to 8×, and snap back to the
    base cadence on any detected change or lifecycle event. *)

val stability : t -> layer:int -> Simnet.Stability.t
(** The layer's detector, [layer] in [1 .. depth] (1 = global). *)

val converged_layer : t -> layer:int -> bool
val converged : t -> bool
(** Every layer stable. *)

val interval_scale : t -> float
(** Current maintenance-interval multiplier (1.0 unless [adaptive]). *)

val maintenance_ops : t -> int
(** Total maintenance RPCs initiated (per-layer stabilize + notify +
    fix-fingers + check-predecessor, plus ring-table duties) — the
    bandwidth-overhead measure. *)

val export_metrics : ?prefix:string -> t -> Obs.Metrics.t -> unit
(** Counters
    [<prefix>.maint.{stabilize,notify,fix_fingers,check_pred,ring,total}],
    gauge [<prefix>.maint.scale], and each layer's detector under
    [<prefix>.layer<k>.stability] (default prefix ["hieras.protocol"]).
    Idempotent. *)
