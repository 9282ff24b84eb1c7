(** Message-level causal tracing for {!Simnet.Engine}: typed RPC spans.

    The per-lookup tracer ({!Trace}) covers the analytic routing paths;
    this module covers the {e message} layer. Every engine send becomes a
    span: a record of which RPC kind crossed the wire, between which
    nodes, at what simulated time, and — crucially — {e caused by} which
    earlier message. The engine threads a current-span register through
    delivery closures, so a send performed while handling a received
    message records that message as its parent. Stabilize cascades, join
    storms and recursive lookup forwarding chains all reconstruct as
    trees; a send from a timer or from top-level driver code starts a
    fresh root, so trees are bounded by the RPC cascades themselves.

    {2 Cost model}

    {!disabled} is the default on every engine. The enabled check is one
    branch per send and the disabled path allocates nothing beyond what
    the untraced engine always allocated — the same contract as {!Trace}.

    {2 Sampling}

    Million-node runs send far too many messages to record each one. The
    sink carries a sample rate; the keep/drop decision is
    {!Sampler.keep} applied to the {e root} span id of the causal tree,
    so a tree is kept or discarded as a whole: no sampled event ever
    references an unrecorded parent, at any rate, and the output is a
    deterministic subset of the full trace — byte-identical for any
    [--jobs]. Per-kind message counters are exact regardless of the
    sample rate (counted at send time, before the sampling decision), so
    audits can reconcile them against the engine's [sent] counter.

    {2 Event schema (JSONL)}

    One line per message, emitted at send time:
    [{"ev":"msg","ctx":C,"span":N,"parent":P,"kind":K,"bytes":B,"src":S,
    "dst":D,"at":T,"lat":L}] — ["ctx"] omitted when empty, ["parent"]
    omitted on roots; [B] is {!wire_bytes} of the kind, recorded
    explicitly so the analyzer can audit the producer's cost model
    against its own; [T] is the send instant, [L] the link latency the
    message will incur. A message that fails to arrive additionally emits
    [{"ev":"drop","ctx":C,"span":N,"at":T,"why":"dead"|"loss"}] ([T] is
    the send instant for losses, the arrival instant for dead
    destinations). Field-by-field description in DESIGN.md §14. *)

type kind =
  | Stabilize  (** stabilize request (incl. anchor re-entry / crosscheck) *)
  | Notify  (** "I believe I am your predecessor" *)
  | Fix_fingers  (** finger-slot refresh lookup *)
  | Check_pred  (** predecessor liveness ping *)
  | Join  (** join-time bootstrap traffic (landmark fetch, first lookup) *)
  | Ring  (** HIERAS ring-table duty (liveness, refill, replication, migration, refresh) *)
  | Lookup  (** application lookup initiation *)
  | Forward  (** recursive forwarding hop of any cascade *)
  | Reply  (** response leg of any request *)
  | Store_put  (** client-to-owner put request (key + value) *)
  | Store_get  (** client-to-owner get request (key only) *)
  | Store_delete  (** client-to-owner delete request *)
  | Store_replicate  (** owner pushing a full entry to a replica (also handoff) *)
  | Store_repair  (** version probe of a replica during read-repair *)
  | Store_reply  (** value-bearing response leg of a store RPC *)
  | Other  (** untyped sends (engine default) *)

val kind_name : kind -> string
(** Lowercase JSON name: ["stabilize"], ["notify"], ["fix_fingers"],
    ["check_pred"], ["join"], ["ring"], ["lookup"], ["forward"],
    ["reply"], ["store_put"], ["store_get"], ["store_delete"],
    ["store_replicate"], ["store_repair"], ["store_reply"], ["other"]. *)

val kind_of_name : string -> kind option

val all_kinds : kind list
(** Every kind once, in declaration order — the fixed iteration order of
    reports and metrics. *)

val kind_index : kind -> int
(** Dense index in declaration order, [0 .. n_kinds - 1] — for arrays of
    per-kind accumulators. *)

val n_kinds : int

val wire_bytes : kind -> int
(** Nominal on-the-wire size of one message of this kind, in bytes — a
    fixed cost model (header plus a typical payload: peer lists for
    replies, table entries for ring duties), not a measurement. The
    analyzer multiplies per-kind counts by it for bandwidth attribution,
    so relative weights matter, absolute calibration does not. *)

type t

val disabled : t
(** The null sink: {!enabled} is [false], {!next_span} returns 0 without
    consuming an id, every emission is a no-op. *)

val jsonl : ?ctx:string -> ?sample:float -> (string -> unit) -> t
(** Streaming JSONL sink; each event is one ['\n']-terminated line passed
    to the writer. [ctx] (default empty) tags every line — use it to
    disambiguate several engines writing into one file (the soak labels
    cells [<algo>.x<factor>]). [sample] (default 1) is the root-keyed
    keep rate. Raises [Invalid_argument] if [sample] is outside [0, 1]. *)

val enabled : t -> bool

val next_span : t -> int
(** Allocate the next span id (sequential from 0; 0 without allocation on
    the disabled sink). Called by the engine once per traced send. *)

val msg :
  t ->
  span:int ->
  parent:int ->
  root:int ->
  kind:kind ->
  src:int ->
  dst:int ->
  at:float ->
  lat:float ->
  unit
(** Record one send. [parent] is [-1] on a root (then [root = span]).
    Counts the kind exactly; writes the line only when the root is
    sampled in. *)

val drop : t -> span:int -> root:int -> at:float -> why:[ `Dead | `Loss ] -> unit
(** Record that the message of [span] never arrived. Counted exactly;
    written only when its tree is sampled in. *)

(** {2 Exact accounting (independent of sampling)} *)

val kind_count : t -> kind -> int
val messages : t -> int
(** Total sends recorded — equals the sum of {!kind_count} over
    {!all_kinds}, and the engine's [sent] delta since attachment. *)

val drops_dead : t -> int
val drops_loss : t -> int

val export_metrics : ?prefix:string -> t -> Metrics.t -> unit
(** Counters [<prefix>.msgs.<kind>] for every kind (zeros included),
    [<prefix>.msgs.total], [<prefix>.drops.dead] and
    [<prefix>.drops.loss] (default prefix ["netspan"]). Idempotent. *)
