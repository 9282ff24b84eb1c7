module Id = Hashid.Id

type t = {
  space : Id.space;
  ids : Id.t array; (* sorted ascending *)
  hosts : int array;
  lat : Topology.Latency.t;
  rng : Prng.Rng.t;
  candidates_per_hop : int;
  (* levels.(r) maps an r+1-digit prefix (as a raw byte string of digit
     values) to the nodes whose identifiers start with it *)
  levels : (string, int array) Hashtbl.t array;
  paths : int array array; (* paths.(node) = the root path of the keys it is the root of *)
}

let space t = t.space
let size t = Array.length t.ids
let id t i = t.ids.(i)
let host t i = t.hosts.(i)

let digit t node r = Id.digit4 t.space t.ids.(node) r

let build ~space ~hosts ~lat ~rng ?(candidates_per_hop = 16) ?(salt = "tapestry-peer") () =
  if Id.bits space mod 4 <> 0 then
    invalid_arg "Tapestry.Network.build: identifier width must be a multiple of 4";
  let n = Array.length hosts in
  if n = 0 then invalid_arg "Tapestry.Network.build: empty network";
  let seen = Hashtbl.create (2 * n) in
  let raw_ids =
    Array.init n (fun i ->
        let rec fresh attempt =
          let id = Id.of_hash space (Printf.sprintf "%s:%d:%d" salt i attempt) in
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
  (* build prefix groups level by level until all groups are singletons *)
  let max_rows = Id.digit_count4 space in
  let levels = ref [] in
  let current = ref [ ("", Array.init n (fun i -> i)) ] in
  let depth = ref 0 in
  let continue = ref true in
  while !continue && !depth < max_rows do
    let acc : (string, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let any = ref false in
    List.iter
      (fun (prefix, group) ->
        if Array.length group > 1 then begin
          any := true;
          Array.iter
            (fun node ->
              let key = prefix ^ String.make 1 (Char.chr (Id.digit4 space ids.(node) !depth)) in
              match Hashtbl.find_opt acc key with
              | Some l -> l := node :: !l
              | None -> Hashtbl.replace acc key (ref [ node ]))
            group
        end)
      !current;
    if !any then begin
      let next = Hashtbl.create (Hashtbl.length acc) in
      Hashtbl.iter (fun k l -> Hashtbl.replace next k (Array.of_list !l)) acc;
      levels := next :: !levels;
      current := Hashtbl.fold (fun k v a -> (k, v) :: a) next [];
      incr depth
    end
    else continue := false
  done;
  (* A root's path is its own digits up to the first singleton prefix
     group. Ids are sorted, so that is one digit past the longest prefix it
     shares with a neighbour. *)
  let shared a b =
    let rec go r = if Id.digit4 space ids.(a) r = Id.digit4 space ids.(b) r then go (r + 1) else r in
    if b < 0 || b >= n then 0 else go 0
  in
  let paths =
    Array.init n (fun i ->
        if n = 1 then [||]
        else Array.init (1 + max (shared i (i - 1)) (shared i (i + 1))) (Id.digit4 space ids.(i)))
  in
  {
    space;
    ids;
    hosts;
    lat;
    rng;
    candidates_per_hop;
    levels = Array.of_list (List.rev !levels);
    paths;
  }

(* surrogate digit resolution: at level r with resolved prefix [prefix], try
   the key's digit, then successive digits mod 16, until a populated slot
   appears (one always does — the prefix itself is populated) *)
let surrogate_digit t ~level ~prefix ~want =
  let rec try_digit k =
    if k = 16 then invalid_arg "Tapestry: unpopulated prefix"
    else begin
      let d = (want + k) mod 16 in
      let key = prefix ^ String.make 1 (Char.chr d) in
      match Hashtbl.find_opt t.levels.(level) key with
      | Some _ -> d
      | None -> try_digit (k + 1)
    end
  in
  try_digit 0

(* The key's root path as the prefix it spells: one surrogate digit per
   level until the prefix group is a singleton. *)
let root_prefix t key =
  let rows = Array.length t.levels in
  let rec go level prefix =
    if level >= rows then prefix
    else
      let group_size =
        if level = 0 then size t
        else match Hashtbl.find_opt t.levels.(level - 1) prefix with Some g -> Array.length g | None -> 1
      in
      if group_size <= 1 then prefix
      else
        let d = surrogate_digit t ~level ~prefix ~want:(Id.digit4 t.space key level) in
        go (level + 1) (prefix ^ String.make 1 (Char.chr d))
  in
  go 0 ""

let root_path t key =
  let prefix = root_prefix t key in
  List.init (String.length prefix) (fun i -> Char.code prefix.[i])

let root_path_of t node = t.paths.(node)

let group_at t path_prefix =
  let level = String.length path_prefix - 1 in
  if level < 0 then Array.init (size t) (fun i -> i)
  else
    match Hashtbl.find_opt t.levels.(level) path_prefix with
    | Some g -> g
    | None -> [||]

let root_of_key t key =
  let g = group_at t (root_prefix t key) in
  if Array.length g <> 1 then failwith "Tapestry.root_of_key: root group not a singleton";
  g.(0)

let link_latency t a b = Topology.Latency.host_latency t.lat t.hosts.(a) t.hosts.(b)

let key_group t ~key ~len =
  if len = 0 then Array.init (size t) (fun i -> i)
  else if len - 1 >= Array.length t.levels then [||]
  else
    let prefix = String.init len (fun i -> Char.chr (Id.digit4 t.space key i)) in
    match Hashtbl.find_opt t.levels.(len - 1) prefix with Some g -> g | None -> [||]

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
   matching one more digit of the root path, evenly strided through the
   group — a pure function of the id set (identical to enumerating the whole
   group when it fits the budget), so routes are deterministic and safe to
   issue from parallel workers *)
let path_sample t ~path ~cur =
  let r = matched_of_path t ~path cur in
  let prefix = String.init (r + 1) (fun i -> Char.chr path.(i)) in
  let group = group_at t prefix in
  let m = Array.length group in
  if m = 0 then [||]
  else begin
    let tries = min m t.candidates_per_hop in
    Array.init tries (fun k -> group.(k * m / tries))
  end

let next_on_path t ~path ~cur =
  let cands = path_sample t ~path ~cur in
  if Array.length cands = 0 then failwith "Tapestry.next_on_path: root path group vanished";
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

let path_candidates t ~path ~cur =
  let cands = path_sample t ~path ~cur in
  (* closest first, sample order on latency ties: the head is exactly
     [next_on_path]'s first-strict-minimum pick *)
  Array.to_list cands
  |> List.mapi (fun k cand -> (link_latency t cur cand, k, cand))
  |> List.sort (fun (da, ka, _) (db, kb, _) ->
         if da <> db then Float.compare da db else Int.compare ka kb)
  |> List.map (fun (_, _, cand) -> cand)
