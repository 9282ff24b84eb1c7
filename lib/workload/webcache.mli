(** Zipf web-cache request streams for the storage scenario.

    The ROADMAP's web-cache target needs a workload shaped like the web:
    a fixed catalogue of named objects with heavy-tailed sizes, and a
    request stream whose popularity follows a Zipf law with tunable skew
    — the classic web-request finding. The catalogue is a pure function
    of the spec's shape ({!catalogue} never touches the stream rng), so
    two streams with different seeds or skews are over byte-identical
    objects, and a stream is a pure function of [(spec, rng seed)] —
    deterministic across runs and [--jobs], which the property suite
    pins. *)

type obj = { name : string; key : Hashid.Id.t; bytes : int }
(** A catalogue entry: stored under {!Keys.file_key} of its name. *)

type request = { origin : int; obj : int  (** catalogue index *) }

type spec = {
  count : int;  (** requests in the stream *)
  objects : int;  (** catalogue size (>= 1) *)
  alpha : float;  (** Zipf skew; 0 = uniform popularity *)
}

val default_spec : spec
(** 1000 requests over 128 objects, alpha 0.8. *)

val min_bytes : int
(** The smallest object: 512 B. *)

val max_bytes : int
(** The size cap, 64 KiB: object sizes are Pareto-distributed from
    {!min_bytes}, their tail clipped here. *)

val validate : spec -> (unit, string) result

val catalogue : spec -> Hashid.Id.space -> obj array
(** The [objects] catalogue entries, index order — independent of
    [count], [alpha] and the stream rng. *)

val iter : spec -> nodes:int -> Prng.Rng.t -> (request -> unit) -> unit
(** Stream [count] requests: Zipf-popular object, uniform origin in
    [0 .. nodes-1]. Raises [Invalid_argument] on an invalid spec. *)

val to_array : spec -> nodes:int -> Prng.Rng.t -> request array
