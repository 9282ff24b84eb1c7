type kind = Transit_stub | Inet | Brite

let all = [ Transit_stub; Inet; Brite ]

let name = function Transit_stub -> "TS" | Inet -> "Inet" | Brite -> "BRITE"

let of_name s =
  match String.lowercase_ascii s with
  | "ts" | "transit-stub" | "transit_stub" | "gt-itm" -> Some Transit_stub
  | "inet" -> Some Inet
  | "brite" -> Some Brite
  | _ -> None

let min_hosts = function Inet -> Inet.min_hosts | Transit_stub | Brite -> 1

let routers kind ~hosts =
  match kind with
  | Transit_stub -> Transit_stub.router_count ~hosts
  | Inet -> Inet.router_count ~hosts
  | Brite -> Brite.router_count ~hosts

let build ?pool kind ~hosts rng =
  let backend = Latency.Auto in
  match kind with
  | Transit_stub -> Transit_stub.generate ~backend ?pool ~hosts rng
  | Inet -> Inet.generate ~backend ?pool ~hosts rng
  | Brite -> Brite.generate ~backend ?pool ~hosts rng
