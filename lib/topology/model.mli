(** Facade over the three network models used in the paper's evaluation. *)

type kind = Transit_stub | Inet | Brite

val all : kind list
val name : kind -> string
(** "TS", "Inet", "BRITE" — the labels used in the paper's figures. *)

val of_name : string -> kind option
(** Case-insensitive parse of [name] (also accepts "ts", "transit-stub"). *)

val min_hosts : kind -> int
(** 1 except for Inet (3000), matching the paper's simulation setup. *)

val routers : kind -> hosts:int -> int
(** Routers {!build} makes for [hosts] end-hosts — the most landmarks such a
    network can hold. Never decreases as [hosts] grows. *)

val build : ?pool:Parallel.Pool.t -> kind -> hosts:int -> Prng.Rng.t -> Latency.t
(** Generate a topology of this kind with the given number of DHT
    end-hosts. The latency oracle's storage is {!Latency.Auto}: lazy rows
    above 1024 routers or when the hosts sit on fewer than half of them, the
    eager matrix otherwise. The pool
    parallelizes an eager oracle's Dijkstra precomputation. The topology —
    and every latency the oracle returns — is independent of both the
    storage and the pool width. *)
