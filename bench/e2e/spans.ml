(* In-memory spans for the traced run. A wall span sits around one call
   from the benchmark into a layer (a build step, a route, an Engine.run
   slice, a store call); a sim span covers one message-level request in
   simulated time (issue -> lookup leg -> callback). Spans of one request
   share its request id. Aggregates (count, total and self time per span
   name) cover every span; the first [cap] spans are also kept as records
   and written out as JSONL when the run ends. *)

type clock = Wall | Sim

type span = {
  id : int;
  parent : int;  (** -1 on a root *)
  name : string;
  req : int;  (** -1 when not tied to a request *)
  clock : clock;
  t0 : float;  (** wall: s since the recorder started; sim: simulated ms *)
  t1 : float;
}

type agg = { mutable count : int; mutable total_ns : int; mutable self_ns : int }
type frame = { fid : int; fname : string; freq : int; ft0 : int; mutable child_ns : int }

type t = {
  mutable on : bool;
  origin_ns : int;
  cap : int;
  mutable kept : span list;  (** newest first *)
  mutable n_kept : int;
  mutable next_id : int;
  mutable stack : frame list;
  aggs : (string, agg) Hashtbl.t;
  mutable names : string list;  (** first-seen order, newest first *)
}

let make ~on ~cap =
  {
    on;
    origin_ns = Meter.now_ns ();
    cap;
    kept = [];
    n_kept = 0;
    next_id = 0;
    stack = [];
    aggs = Hashtbl.create 32;
    names = [];
  }

let off = make ~on:false ~cap:0
let create () = make ~on:true ~cap:50_000
let enabled t = t.on

(* Run [f] with recording paused — the untraced slices of a traced run. *)
let paused t f =
  let was = t.on in
  t.on <- false;
  Fun.protect ~finally:(fun () -> t.on <- was) f

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let keep t s =
  if t.n_kept < t.cap then begin
    t.kept <- s :: t.kept;
    t.n_kept <- t.n_kept + 1
  end

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_ns = 0; self_ns = 0 } in
      Hashtbl.replace t.aggs name a;
      t.names <- name :: t.names;
      a

let parent_id t = match t.stack with f :: _ -> f.fid | [] -> -1

let enter t name ~req =
  let fr = { fid = fresh_id t; fname = name; freq = req; ft0 = Meter.now_ns (); child_ns = 0 } in
  t.stack <- fr :: t.stack

let leave t =
  match t.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | fr :: rest ->
      let t1 = Meter.now_ns () in
      let d = t1 - fr.ft0 in
      t.stack <- rest;
      (match rest with p :: _ -> p.child_ns <- p.child_ns + d | [] -> ());
      let a = agg t fr.fname in
      a.count <- a.count + 1;
      a.total_ns <- a.total_ns + d;
      a.self_ns <- a.self_ns + d - fr.child_ns;
      if t.n_kept < t.cap then
        keep t
          {
            id = fr.fid;
            parent = parent_id t;
            name = fr.fname;
            req = fr.freq;
            clock = Wall;
            t0 = float_of_int (fr.ft0 - t.origin_ns) *. 1e-9;
            t1 = float_of_int (t1 - t.origin_ns) *. 1e-9;
          }

(* Run [f] inside a wall span named [name]; a plain call when tracing is
   off. *)
let span t ?(req = -1) name f =
  if not t.on then f ()
  else begin
    enter t name ~req;
    match f () with
    | v ->
        leave t;
        v
    | exception e ->
        leave t;
        raise e
  end

(* Add [count] calls totalling [total_s] to the aggregates of [name], as
   leaf spans with no record: phases another timer measured (the library's
   own [Obs.Timer]). *)
let add t name ~count ~total_s =
  if t.on then begin
    let a = agg t name and d = int_of_float (total_s *. 1e9) in
    a.count <- a.count + count;
    a.total_ns <- a.total_ns + d;
    a.self_ns <- a.self_ns + d
  end

(* Record a finished sim-time span; [id] comes from {!fresh_id} when a
   child needs it as parent before the parent finishes. *)
let sim t ?id ?(parent = -1) ?(req = -1) name ~t0 ~t1 =
  if t.on then begin
    let id = match id with Some i -> i | None -> fresh_id t in
    keep t { id; parent; name; req; clock = Sim; t0; t1 }
  end

(* Per-name totals in first-seen order: (name, count, total s, self s). *)
let table t =
  List.rev_map
    (fun name ->
      let a = Hashtbl.find t.aggs name in
      (name, a.count, float_of_int a.total_ns *. 1e-9, float_of_int a.self_ns *. 1e-9))
    t.names

let total_s t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> float_of_int a.total_ns *. 1e-9
  | None -> 0.0

let self_s t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> float_of_int a.self_ns *. 1e-9
  | None -> 0.0

(* Self time summed per layer — the span name up to its first '.'. *)
let layer_self t =
  let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  List.fold_left
    (fun acc (name, _, _, self) ->
      let l = layer name in
      match List.assoc_opt l acc with
      | Some s -> (l, s +. self) :: List.remove_assoc l acc
      | None -> (l, self) :: acc)
    [] (table t)
  |> List.rev

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"span\":%d,\"parent\":%d,\"name\":\"%s\",\"req\":%d,\"clock\":\"%s\",\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.parent s.name s.req
            (match s.clock with Wall -> "wall" | Sim -> "sim")
            s.t0 s.t1)
        (List.rev t.kept))
