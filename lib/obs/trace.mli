(** Structured per-lookup tracing: span + hop events with pluggable sinks.

    A tracer is passed to the routing entry points (every route of
    [Routing.Walk], among them [Chord.Lookup.route] and
    [Hieras.Hlookup.route]) as an optional argument; every lookup then emits
    one [Start] event, one [Hop] event per traversed overlay edge, and one
    [End] event carrying the final accounting. The per-hop stream is exactly
    the data the paper's Figures 4–7 aggregate — tracing exposes it as a
    machine-readable surface that golden-trace and invariant tests pin down.

    {2 Cost model}

    The {!disabled} tracer is the default everywhere. Instrumented code
    checks {!enabled} once per lookup and skips every event construction when
    it is false, so the disabled path costs one branch per hop and allocates
    nothing — the bench's lookup ns/op budget (< 2% overhead) depends on
    this. Tracers are single-domain objects; the parallel experiment runner
    keeps them out of worker loops.

    {2 Event stream invariants}

    For every traced lookup (enforced by [test/test_obs.ml]):
    - [Hop] events carry consecutive [seq] numbers starting at 0;
    - the hop chain is contiguous: [to_node] of hop [i] equals [from_node]
      of hop [i+1], the first [from_node] is the origin and the last
      [to_node] is the [End] event's [destination] (when there are hops);
    - [End.hops] is the hop count and [End.latency_ms] the sum of the hops'
      [latency_ms] {e plus} the [delay_ms] of every [Recover] event of the
      span, in emission order;
    - [Recover] events are contiguous with the hop chain: their [at_node] is
      the current chain position ([to_node] of the previous hop, or the
      origin before the first hop);
    - [layer] is 1 (the global ring; Chord hops are always layer 1) up to the
      HIERAS hierarchy depth. *)

type rkind = Retry | Fallback | Layer_escape
(** Failure-recovery actions of the failure-aware walk
    ([Routing.Walk.route_resilient], flat or layered):
    - [Retry]: a contact attempt on a dead node timed out (the [delay_ms]
      of the event is the timeout plus the exponential backoff wait charged
      to the lookup);
    - [Fallback]: the router abandoned a dead preferred next hop and picked
      a secondary candidate (next-best finger, or a heartbeat-window entry
      past dead ones);
    - [Layer_escape]: a HIERAS lower-ring loop found no live in-ring route
      and climbed to the next layer early. *)

type event =
  | Start of { lookup : int; algo : string; origin : int; key : string }
      (** [lookup] is a tracer-local sequential id; [key] is the target
          identifier in hex. *)
  | Hop of {
      lookup : int;
      seq : int;
      layer : int;  (** 1 = global ring, >= 2 = lower HIERAS rings *)
      from_node : int;
      to_node : int;
      latency_ms : float;
    }
  | Recover of {
      lookup : int;
      kind : rkind;
      layer : int;  (** layer whose routing state was being consulted *)
      at_node : int;  (** the node performing the recovery — the current hop position *)
      dead_node : int;  (** the contact that was found (or known) dead *)
      delay_ms : float;  (** latency charged to the lookup (0 for pure fallbacks) *)
    }
  | End of {
      lookup : int;
      destination : int;
      hops : int;
      latency_ms : float;
      finished_at_layer : int;  (** 1 for Chord; see [Hieras.Hlookup.result] *)
    }

type t

val disabled : t
(** The null sink: {!enabled} is [false], {!start} returns 0 without
    consuming an id, every emission is a no-op. *)

val ring : capacity:int -> t
(** In-memory ring buffer keeping the most recent [capacity] events —
    the test-suite and flight-recorder sink (never sampled: it is already
    bounded). Raises [Invalid_argument] if [capacity < 1]. *)

val jsonl : ?sample:float -> (string -> unit) -> t
(** Streaming JSONL sink: each event is rendered as one line of JSON
    (fields: see DESIGN.md §8) and passed to the writer, terminated by
    ['\n']. Pass [output_string oc] for a file, [Buffer.add_string buf]
    for memory.

    [sample] (default 1) keeps the events of a deterministic subset of
    lookups: ids are allocated for {e every} lookup and the keep decision
    is {!Sampler.keep} on the id, so the sampled stream is a stable
    subset of the full trace — identical for any [--jobs], and identical
    across runs of the same seed. Raises [Invalid_argument] when outside
    [0, 1]. *)

val enabled : t -> bool

(** {2 Emission} *)

val start : t -> algo:string -> origin:int -> key:string -> int
(** Open a lookup span and return its id (0 on the disabled tracer). *)

val hop :
  t -> lookup:int -> seq:int -> layer:int -> from_node:int -> to_node:int -> latency_ms:float -> unit

val recover :
  t -> lookup:int -> kind:rkind -> layer:int -> at_node:int -> dead_node:int -> delay_ms:float -> unit

val rkind_of_name : string -> rkind option
(** Parses the JSON [kind] field: "retry", "fallback" or "layer_escape". *)

val finish :
  t -> lookup:int -> destination:int -> hops:int -> latency_ms:float -> finished_at_layer:int -> unit

val emit : t -> event -> unit

(** {2 Inspection} *)

val events : t -> event list
(** Ring sink: buffered events, oldest first. Other sinks: []. *)

val clear : t -> unit
(** Ring sink: drop buffered events (lookup ids keep counting). *)
