(** Routing-request streams: (originating node, key) pairs.

    The paper's standard workload is "100 000 randomly generated routing
    requests": uniform origin, uniform key. *)

type request = { origin : int; key : Hashid.Id.t }

type spec = {
  count : int;
  keys : Keys.t;
  origin_bias : float;
      (** 0 = uniform origins; > 0 skews origins Zipf-like towards
          low-numbered nodes (hot-spot senders) with this exponent *)
}

val paper_default : count:int -> spec
(** Uniform keys and origins, [count] requests. *)

val iter :
  spec -> nodes:int -> space:Hashid.Id.space -> Prng.Rng.t -> (request -> unit) -> unit
(** Stream the requests without materialising them. *)

val to_array : spec -> nodes:int -> space:Hashid.Id.space -> Prng.Rng.t -> request array
(** The requests {!iter} streams, in order, filled into one array. *)
