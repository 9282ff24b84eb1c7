module Id = Hashid.Id

type t = {
  space : Id.space;
  ids : Id.t array; (* sorted ascending *)
  hosts : int array;
  lat : Topology.Latency.t;
  paths : int array array; (* paths.(node) = the root path of the keys it is the root of *)
  (* runs.(node).(2r) and runs.(node).(2r + 1): the bounds [lo, hi) of the
     nodes sharing the first r + 1 digits of the node's root path — ids are
     sorted, so each prefix group is a contiguous run *)
  runs : int array array;
}

(* bounds the proximity sampling among a level's matching nodes *)
let candidates_per_hop = 16

let space t = t.space
let size t = Array.length t.ids
let id t i = t.ids.(i)
let host t i = t.hosts.(i)

let digit t node r = Id.digit4 t.space t.ids.(node) r

let build ~space ~hosts ~lat =
  if Id.bits space mod 4 <> 0 then
    invalid_arg "Tapestry.Network.build: identifier width must be a multiple of 4";
  let n = Array.length hosts in
  if n = 0 then invalid_arg "Tapestry.Network.build: empty network";
  let seen = Hashtbl.create (2 * n) in
  let raw_ids =
    Array.init n (fun i ->
        let rec fresh attempt =
          let id = Id.of_hash space (Printf.sprintf "tapestry-peer:%d:%d" i attempt) in
          if Hashtbl.mem seen id then fresh (attempt + 1)
          else begin
            Hashtbl.replace seen id ();
            id
          end
        in
        fresh 0)
  in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Id.compare raw_ids.(a) raw_ids.(b)) order;
  let ids = Array.map (fun i -> raw_ids.(i)) order in
  let hosts = Array.map (fun i -> hosts.(i)) order in
  let shared a b =
    let rec go r = if Id.digit4 space ids.(a) r = Id.digit4 space ids.(b) r then go (r + 1) else r in
    go 0
  in
  (* adj.(i): the digits node i shares with node i - 1 *)
  let adj = Array.init n (fun i -> if i = 0 then 0 else shared (i - 1) i) in
  (* A root's path is its own digits up to the first singleton prefix
     group: one digit past the longest prefix it shares with a neighbour. *)
  let paths =
    Array.init n (fun i ->
        if n = 1 then [||]
        else
          let next = if i + 1 < n then adj.(i + 1) else 0 in
          Array.init (1 + max adj.(i) next) (Id.digit4 space ids.(i)))
  in
  (* one sweep per level: a run at level r ends where adjacent nodes share
     at most r digits *)
  let runs = Array.map (fun p -> Array.make (2 * Array.length p) 0) paths in
  let levels = Array.fold_left (fun acc p -> max acc (Array.length p)) 0 paths in
  for r = 0 to levels - 1 do
    let lo = ref 0 in
    for i = 1 to n do
      if i = n || adj.(i) <= r then begin
        for j = !lo to i - 1 do
          if r < Array.length paths.(j) then begin
            runs.(j).(2 * r) <- !lo;
            runs.(j).((2 * r) + 1) <- i
          end
        done;
        lo := i
      end
    done
  done;
  { space; ids; hosts; lat; paths; runs }

(* The first index of [lo, hi) whose digit [level] is at least [d]. The
   run shares its first [level] digits, so that digit ascends along it. *)
let lower_bound t ~level ~d lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if digit t mid level < d then lo := mid + 1 else hi := mid
  done;
  !lo

(* Surrogate digit resolution inside the run [lo, hi): the key's digit,
   else the following digit values mod 16 until a populated one — the
   smallest populated digit from [want] up, else the run's smallest. *)
let surrogate_digit t ~level ~want lo hi =
  let i = lower_bound t ~level ~d:want lo hi in
  digit t (if i < hi then i else lo) level

(* Surrogate routing from the run [lo, hi) at [level] down to a singleton. *)
let rec root_in t key ~level lo hi =
  if hi - lo <= 1 then lo
  else
    let d = surrogate_digit t ~level ~want:(Id.digit4 t.space key level) lo hi in
    let l = lower_bound t ~level ~d lo hi in
    root_in t key ~level:(level + 1) l (lower_bound t ~level ~d:(d + 1) l hi)

let root_of_key t key = root_in t key ~level:0 0 (size t)

let root_path t key =
  let rec go level lo hi =
    if hi - lo <= 1 then []
    else
      let d = surrogate_digit t ~level ~want:(Id.digit4 t.space key level) lo hi in
      let l = lower_bound t ~level ~d lo hi in
      d :: go (level + 1) l (lower_bound t ~level ~d:(d + 1) l hi)
  in
  go 0 0 (size t)

let root_path_of t node = t.paths.(node)

(* The [j]-th member of the level-[level] prefix group [lo, hi), in the
   order routes sample it: descending at even levels, ascending at odd
   ones. *)
let member ~level lo hi j = if level land 1 = 0 then hi - 1 - j else lo + j

let link_latency t a b = Topology.Latency.host_latency t.lat t.hosts.(a) t.hosts.(b)

let key_group t ~key ~len =
  (* a singleton run is never split into a deeper prefix group *)
  let rec narrow level lo hi =
    if level = len then Array.init (hi - lo) (member ~level:(len - 1) lo hi)
    else if hi - lo <= 1 then [||]
    else
      let d = Id.digit4 t.space key level in
      let l = lower_bound t ~level ~d lo hi in
      narrow (level + 1) l (lower_bound t ~level ~d:(d + 1) l hi)
  in
  if len = 0 then Array.init (size t) (fun i -> i) else narrow 0 0 (size t)

let shared_digits t a key =
  let rows = Id.digit_count4 t.space in
  let aid = t.ids.(a) in
  let rec go r = if r < rows && Id.digit4 t.space aid r = Id.digit4 t.space key r then go (r + 1) else r in
  go 0

let matched_of_path t ~path node =
  let plen = Array.length path in
  let rec go r = if r < plen && digit t node r = path.(r) then go (r + 1) else r in
  go 0

(* the proximity sample at one routing level: [candidates_per_hop] nodes
   matching one more digit of the owner's root path, evenly strided through
   its run — a pure function of the id set (identical to enumerating the
   whole group when it fits the budget), so routes are deterministic and
   safe to issue from parallel workers *)
let path_sample t ~owner ~cur =
  let r = matched_of_path t ~path:t.paths.(owner) cur in
  let lo = t.runs.(owner).(2 * r) and hi = t.runs.(owner).((2 * r) + 1) in
  let m = hi - lo in
  let tries = min m candidates_per_hop in
  Array.init tries (fun k -> member ~level:r lo hi (k * m / tries))

let next_on_path t ~owner ~cur =
  let cands = path_sample t ~owner ~cur in
  let best = ref cands.(0) and best_d = ref infinity in
  Array.iter
    (fun cand ->
      let d = link_latency t cur cand in
      if d < !best_d then begin
        best := cand;
        best_d := d
      end)
    cands;
  !best

let path_candidates t ~owner ~cur =
  let cands = path_sample t ~owner ~cur in
  (* closest first, sample order on latency ties: the head is exactly
     [next_on_path]'s first-strict-minimum pick *)
  Array.to_list cands
  |> List.mapi (fun k cand -> (link_latency t cur cand, k, cand))
  |> List.sort (fun (da, ka, _) (db, kb, _) ->
         if da <> db then Float.compare da db else Int.compare ka kb)
  |> List.map (fun (_, _, cand) -> cand)
