(** Experiment configuration.

    Defaults reproduce the paper's setup: GT-ITM Transit-Stub topology,
    two-layer HIERAS with 4 landmarks, 100 000 uniform random routing
    requests, network sizes 1000..10000 (Inet starting at 3000). A [scale]
    factor shrinks sizes and request counts proportionally for quick runs
    (tests and smoke benches).

    A configuration holds what the paper's evaluation varies: topology
    model, size, landmarks, depth, plus the request count and seed. Chord's
    successor-list length is the constant {!succ_list_len}, and the latency
    oracle's storage is {!Topology.Model.build}'s. *)

type t = {
  model : Topology.Model.kind;
  nodes : int;
  landmarks : int;
  depth : int;
  requests : int;
  seed : int;
}

val succ_list_len : int
(** Chord's [r], the successor-list length of every analytic network the
    experiments build (8). *)

val paper_default : t
(** TS, 10000 nodes, 4 landmarks, depth 2, 100 000 requests, seed 2003. *)

val with_model : t -> Topology.Model.kind -> t
val with_nodes : t -> int -> t
val with_landmarks : t -> int -> t
val with_depth : t -> int -> t
val with_requests : t -> int -> t
val with_seed : t -> int -> t

val validate : t -> (unit, string) result
(** Checks the parameter ranges the system supports: [nodes >= 2],
    [landmarks >= 1], [depth] in 2..4 (a depth-1 HIERAS {e is} Chord;
    binning refinement chains are defined to depth 4), [requests >= 1].
    The error message names the offending CLI flag — both CLIs print it and
    exit 2 before building anything. *)

type network = {
  kind : Topology.Model.kind;
  hosts : int;
  own_landmarks : bool;
      (** picks a fixed landmark count of its own rather than [landmarks] *)
}
(** One network a command builds, at its final (scaled) size. *)

val check_networks : t -> network list -> (unit, string) result
(** [check_networks t networks]: [Error] when a network has fewer hosts
    than its model's minimum ({!Topology.Model.min_hosts}), or when [t]
    asks for more landmarks than the routers ({!Topology.Model.routers}) of
    a network that picks [t.landmarks] landmarks. The message names the
    flag to change, for the CLIs to exit 2 before building anything. *)

val table1_nodes : t -> int
(** Hosts in Table 1's network: [nodes], capped at 1000 but never below
    the model's minimum ({!Topology.Model.min_hosts}). *)

val scaled : t -> float -> t
(** [scaled cfg f] multiplies node and request counts by [f] (minimum 64
    nodes / 100 requests) — used for fast test configurations. *)

val network_sizes : t -> int list
(** The paper's sweep 1000..10000 (step 1000), clipped to the model's
    minimum (3000 for Inet), scaled like [scaled]. *)

val pp : Format.formatter -> t -> unit
