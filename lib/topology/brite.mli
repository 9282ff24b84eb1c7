(** BRITE-style topology model (Medina, Lakhina, Matta & Byers, MASCOTS'01).

    BRITE's router-level default combines Barabási–Albert incremental growth
    (preferential connectivity) with node placement on a Euclidean plane;
    link delays are proportional to geometric distance (signal propagation).
    We reproduce exactly that: routers appear one at a time at uniformly
    random plane coordinates, wire [m] links preferentially by degree, and
    every link's delay is [distance / plane_speed + delay_floor] ms.

    Geometric delays give a smoother latency continuum than transit-stub's
    three discrete scales, which is why the paper's HIERAS gain is smallest
    on BRITE (62% of Chord rather than 52%) — a shape our model preserves. *)

type params = {
  routers_per_host : float;
  m : int;  (** links per new router (BA parameter, BRITE default 2) *)
  plane_size : float;  (** side of the square placement plane *)
  plane_speed : float;  (** plane units per ms — converts distance to delay *)
  delay_floor : float;  (** ms added per link (processing/queueing) *)
  waxman_scale : float;
      (** locality of attachment: a degree-proportional candidate at distance
          [d] is accepted with probability [exp (-d / (waxman_scale *
          plane_size))] — BRITE's Waxman factor *)
  host_access_delay : float;
}

val default_params : params

val router_count : params -> hosts:int -> int
(** Routers {!generate} builds for [hosts] end-hosts: [routers_per_host]
    of them, clamped to [100, 1500]. *)

val generate :
  ?params:params ->
  ?backend:Latency.backend ->
  ?pool:Parallel.Pool.t ->
  hosts:int ->
  Prng.Rng.t ->
  Latency.t
(** [backend] selects the oracle's storage strategy (default eager). *)
