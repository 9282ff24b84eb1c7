(** Library root. [Hieras.Make (R)] layers locality rings over any
    [Routing.BASE] and routes with [Routing.Walk] over them; [Hnetwork] is
    its state over [Chord.Routable]'s packed layers plus ring tables, and
    [Hlookup] names its walk for [Hnetwork] callers. *)

module Cost = Cost
module Hlookup = Hlookup
module Hnetwork = Hnetwork
module Hprotocol = Hprotocol
module Location = Location
module Ring_name = Ring_name
module Ring_table = Ring_table
module Layered = Layered
module Make = Layered.Make
