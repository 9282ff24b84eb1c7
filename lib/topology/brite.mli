(** BRITE-style topology model (Medina, Lakhina, Matta & Byers, MASCOTS'01).

    BRITE's router-level default combines Barabási–Albert incremental growth
    (preferential connectivity) with node placement on a Euclidean plane;
    link delays are proportional to geometric distance (signal propagation).
    We reproduce exactly that: routers appear one at a time at uniformly
    random plane coordinates, wire {!m} links preferentially by degree, and
    every link's delay is [distance / plane_speed + delay_floor] ms.

    Geometric delays give a smoother latency continuum than transit-stub's
    three discrete scales, which is why the paper's HIERAS gain is smallest
    on BRITE (62% of Chord rather than 52%) — a shape our model preserves. *)

val m : int
(** Links per new router (the BA parameter). *)

val plane_size : float
(** Side of the square placement plane. *)

val plane_speed : float
(** Plane units per ms — converts distance to delay. *)

val delay_floor : float
(** ms added per link (processing/queueing). *)

val router_count : hosts:int -> int
(** Routers {!generate} builds for [hosts] end-hosts: one per eight hosts,
    clamped to [100, 1500]. *)

val generate :
  ?backend:Latency.backend ->
  ?pool:Parallel.Pool.t ->
  hosts:int ->
  Prng.Rng.t ->
  Latency.t
(** [backend] selects the oracle's storage strategy (default eager). *)
