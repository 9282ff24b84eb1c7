(** Tapestry as a {!Routing.S} substrate: the adapter is Tapestry's only
    route code, and [route] is {!Routing.Walk} over its [step].

    The greedy step is {!Network.next_on_path} along the key's root path,
    so every route ends at {!Network.root_of_key}; fallback candidates are
    the deterministic proximity sample at the current routing level,
    closest first. HIERAS rings are identifier-circle member sets with
    prefix-group shortcuts. [live_owner] is the surrogate root when alive
    and [None] otherwise — surrogate ownership defines no failover owner,
    so Tapestry lookups fail outright when a key's root dies (visible in
    the tournament's resilience column). *)

type t

val make : Network.t -> t
val network : t -> Network.t

include Routing.S with type t := t
