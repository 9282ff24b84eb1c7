(** Replicated key-value storage over the message protocols (DESIGN.md
    §15).

    The overlay routes; this module makes it {e store}. Objects live at
    the key's owner — the node whose [(predecessor, self]] arc contains
    the key — with copies on the owner's first [r - 1] live successors,
    DistHash-style successor-list replication. Everything is driven by
    the same discrete-event engine as the protocols themselves: [put],
    [get] and [delete] are RPCs routed to the owner via the protocol's
    own lookup path, replication legs are engine sends labelled with the
    store {!Obs.Netspan.kind}s, and re-replication is a periodic scan
    that re-derives every entry's duty from the protocol's {e current}
    pointers — so membership changes through the existing
    join/leave/[Engine.kill] paths trigger repair without any extra
    hooks into the protocols.

    {2 Versioning}

    Entries carry a version [(seq, origin_node)]: [seq] is assigned by
    the owner (previous [seq + 1], so overwrites through the owner are
    totally ordered) and [origin_node] is the client address,
    tie-breaking concurrent same-[seq] writes deterministically (higher
    address wins). A replica only ever adopts a strictly newer version,
    and read-repair on [get] pushes the newest version back over stale
    or missing replicas — so a repaired replica set is bit-identical to
    a freshly replicated one, which [test/test_store.ml] checks
    literally.

    {2 The repair scan}

    Every [repair_every] ms a god-event scans tracked nodes in address
    order and every held key in id order (a deterministic order, so runs
    are byte-stable): an entry whose key falls in the node's own arc is
    (re-)owned and its replicas refreshed (lease renewal); an owned
    entry whose key no longer falls in the arc is handed off to the
    routed owner (converging after joins); a replica that is neither
    owned nor refreshed for [lease_rounds] scans is pruned. After the
    protocol's pointers converge, every key therefore sits on exactly
    [min r live] nodes — the owner plus its first [r - 1] successors —
    which the property suite checks against the analytic oracle.

    Deletions have no tombstones: a delete removes the entry from the
    owner and its current replicas, and any copy that missed the message
    ages out with its lease. A [get] racing that window can transiently
    resurrect the value — the trade-off is documented, not hidden. *)

(** {2 Substrates} *)

type substrate = {
  sub_name : string;  (** ["chord"] or ["hieras"] — report labels *)
  engine : Simnet.Engine.t;
  space : Hashid.Id.space;
  lookup : origin:int -> key:Hashid.Id.t -> (int option -> unit) -> unit;
      (** route to the owner's address; [None] after protocol retries *)
  node_id : int -> Hashid.Id.t;
  predecessor : int -> int option;  (** global-ring predecessor *)
  successors : int -> int list;  (** global-ring successor list *)
  is_member : int -> bool;
  live_members : unit -> int list;
}
(** Uniform view of a message protocol, so the store is written once and
    instantiated over both the flat and the layered overlay (the
    conformance contract). *)

val chord_substrate : Chord.Protocol.t -> substrate
val hieras_substrate : Hieras.Hprotocol.t -> substrate
(** Both read the protocol's rings alike: the global ring's pointers, since
    ownership is a global-ring notion, and {!Chord.Ring.lookup} over every
    ring. *)

(** {2 Configuration} *)

type config = {
  replication : int;  (** r >= 1: the owner plus [r - 1] successor copies *)
  repair_every : float;  (** ms between re-replication scans *)
  lease_rounds : int;  (** scans without a refresh before a replica is pruned *)
  rpc_timeout : float;  (** ms before a store RPC leg is considered lost *)
  rpc_retries : int;  (** client-side retries of a whole routed operation *)
}

val default_config : config
(** r 3, 1 s scans, 4-round leases, 2 s timeouts, 2 retries. *)

val validate : config -> (unit, string) result

(** {2 Store instances} *)

type t

val create : config -> substrate -> t
(** Create the store and start its repair scan on the substrate's
    engine. The scan is a perpetual god-event loop: drive the engine
    with [run ~until], not [run_until_quiet]. *)

val config : t -> config
val substrate : t -> substrate

val track : t -> int -> unit
(** Declare [addr] a storage node (idempotent). Nodes are also tracked
    implicitly when they first receive a store RPC; tracking up front
    merely lets the repair scan see them from the start. *)

(** {2 Versioned entries} *)

type version = { vseq : int; vorigin : int }

val version_newer : version -> version -> bool
(** [version_newer a b]: does [a] supersede [b]? Higher [vseq] wins,
    ties break to the higher [vorigin]. *)

type entry = { value : string; bytes : int; version : version }
(** [bytes] is the nominal object size carried by the workload (the
    cache tier budgets with it); [String.length value] when the caller
    doesn't say. *)

(** {2 Operations}

    All three route to the owner from [origin] (which must be a live
    member), retry [rpc_retries] times on timeout, and deliver exactly
    one callback. *)

type put_result = { p_owner : int; p_replicas : int; p_version : version }
(** [p_replicas] counts the owner plus every replica that acknowledged
    before the owner replied — [min r live] on a healthy network. *)

val put :
  t -> origin:int -> key:Hashid.Id.t -> value:string -> ?bytes:int -> (put_result option -> unit) -> unit
(** The owner stores, pushes to its first [r - 1] live successors, and
    acknowledges only once every pushed replica answered (or timed out)
    — an acknowledged put is durably replicated, which the availability
    property relies on. [None] after all retries fail. *)

type get_result = { g_value : string; g_bytes : int; g_version : version; g_owner : int }

type get_outcome =
  | Found of get_result
  | Absent  (** the owner answered: no such key *)
  | Unreachable  (** routing or RPC failure after all retries *)

val get : t -> origin:int -> key:Hashid.Id.t -> (get_outcome -> unit) -> unit
(** The owner serves its copy and then read-repairs: replicas are
    probed, stale or missing ones re-pushed, and a probe revealing a
    {e newer} version than the owner's is adopted. An owner that lacks
    the key entirely probes its replicas {e before} answering, so a
    freshly promoted owner serves the surviving copies rather than
    [Absent]. *)

val delete : t -> origin:int -> key:Hashid.Id.t -> (bool option -> unit) -> unit
(** [Some existed] once the owner removed its copy and told its
    replicas; [None] on routing/RPC failure. *)

(** {2 Introspection (tests, experiments)} *)

val holders : t -> Hashid.Id.t -> int list
(** Live member addresses currently holding the key, ascending — the
    replica set the property suite compares against the oracle. *)

val entry_on : t -> int -> Hashid.Id.t -> entry option

val items_live : t -> int
(** Entries across live members (a key on three nodes counts three). *)

val forget : t -> int -> Hashid.Id.t -> unit
(** Test hook: silently drop one node's copy (a lost disk block) —
    read-repair and the scan must restore it. *)

val tamper : t -> int -> Hashid.Id.t -> entry -> unit
(** Test hook: overwrite one node's copy verbatim (a stale or corrupt
    replica) — version comparison must repair it. *)

(** {2 Accounting} *)

val puts : t -> int
val puts_acked : t -> int
val gets : t -> int
val replicate_msgs : t -> int
val handoffs : t -> int
val promotions : t -> int
val pruned : t -> int
val read_repairs : t -> int
val repair_rounds : t -> int

val export_metrics : ?prefix:string -> t -> Obs.Metrics.t -> unit
(** Counters [<prefix>.puts], [.puts_acked], [.gets], [.gets_found],
    [.gets_absent], [.gets_failed], [.deletes], [.replicate_msgs],
    [.handoffs], [.promotions], [.pruned], [.read_repairs],
    [.repair_rounds] and gauge [.items_live] (default prefix
    ["store"]). Idempotent. *)
