(** Pastry as a {!Routing.S} substrate: the adapter is Pastry's only route
    code, and [route] is {!Routing.Walk} over its [step].

    The greedy step is Pastry's prefix routing (Rowstron & Druschel): the
    key's root when it is in the current node's leaf set, else the
    routing-table cell for the key's next digit, else — the "rare case" —
    any known node sharing at least as long a prefix and numerically
    closer, else the numerically closest leaf. Routes end at
    {!Network.root_of_key}. Fallback candidates are the node's known
    contacts (leaf set + routing table) that are strictly numerically
    closer to the key, closest first. HIERAS rings are identifier-circle
    member sets ({!Routing.Circle}) walked by numerical closeness with
    contact-list shortcuts; the between-layer early exit fires when the
    key's root is already in the current node's leaf set. *)

type t

val make : Network.t -> t
val network : t -> Network.t

include Routing.S with type t := t
