(** The message-level experiment harness: what {!Soak} and {!Cache} cells
    share.

    A cell brings up one pool — a Transit-Stub topology, an engine with
    optional message loss and span recording, and one message protocol
    ({!Chord.Protocol} or {!Hieras.Hprotocol}) whose initial population
    joins 400 ms apart — and then drives its own timeline through the
    protocol view. Every rng is seeded from [(seed, fi)] alone, [fi] being
    the index of the cell's parameter, so the chord and hieras cells of one
    parameter see the identical topology, loss draw and landmarks, and
    {!run_cells} results are identical for any pool width. *)

type algo = Chord_ring | Hieras_rings

val algo_name : algo -> string
(** ["chord"] or ["hieras"]. *)

val validate : pool:int -> loss:float -> depth:int -> landmarks:int -> (unit, string) result
(** The range checks every message-level spec shares, with CLI-friendly
    messages naming the flag: loss in [\[0, 1)], depth 2..4, and landmarks
    between 1 and the router count of a [pool]-host Transit-Stub
    topology. *)

type proto = {
  sub : Store.Kv.substrate;  (** membership, ids, global-ring pointers, lookup *)
  rings : Chord.Ring.t array;  (** the protocol's rings, index 0 the global one *)
  join : addr:int -> bootstrap:int -> unit;  (** join under the address's own id *)
  fail : int -> unit;  (** silent failure *)
}
(** One view of either protocol. *)

val global_succ : proto -> int -> int option
val maintenance_ops : proto -> int
val convergence : proto -> int * int * float
val converged : proto -> bool
(** Read off the rings: a node's global-ring successor pointer, the
    maintenance RPCs initiated so far, the convergences, disturbances and
    total converging ms summed over every ring, and whether every ring is
    stable. *)

type t = {
  lat : Topology.Latency.t;
  proto : proto;  (** the engine is [proto.sub.engine] *)
  settle_ms : float;
      (** the initial joins plus 15 s of quiet stabilization; the engine has
          not run yet when {!start} returns *)
  net_trace : Buffer.t;
      (** the cell's message-span JSONL, every line ctx-tagged
          [<algo>.<tag>]; stays empty unless [net_sample] was set *)
}

val start :
  ?ts:Obs.Timeseries.t ->
  ?adaptive:bool ->
  ?succ_list_min:int ->
  pool:int ->
  initial:int ->
  loss:float ->
  depth:int ->
  landmarks:int ->
  net_sample:float option ->
  seed:int ->
  fi:int ->
  tag:string ->
  algo ->
  t
(** Bring up a [pool]-address pool: address 0 spawns the ring and
    addresses [1 .. initial - 1] are scheduled to join through it 400 ms
    apart. [ts] receives the engine's and the protocol's series;
    [adaptive] (default false) turns on maintenance backoff;
    [succ_list_min] lengthens the successor lists to at least that many
    entries (a store's replica window). *)

val run_cells :
  Parallel.Pool.t -> 'p list -> (fi:int -> 'p -> algo -> 'c) -> 'c list
(** [run_cells pool params cell] runs [cell ~fi p algo] for every
    parameter [p] (index [fi]) under both algorithms, one cell per
    {!Parallel.Pool.map_chunks} chunk, and returns the cells in fixed
    order: parameter-major, chord then hieras. *)
