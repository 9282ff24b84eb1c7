(* Streaming trace analytics. One pass: hop events fold straight into
   per-algo aggregates (layer attribution, forwarding loads, node sets);
   End events close the per-lookup span, audit it against the replayed
   hops, and feed the per-lookup distributions. Only the open spans and
   the aggregates live in memory — never the trace. *)

module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

(* ---- accumulation ------------------------------------------------------ *)

type span = {
  sp_algo : string;
  mutable next_seq : int;
  mutable prev_to : int; (* origin before the first hop *)
  mutable sp_hops : int;
  mutable sp_lat : float;
  mutable chain_ok : bool;
}

type agg = {
  mutable lookups : int;
  hops_sum : Stats.Summary.t;
  lat_sum : Stats.Summary.t;
  hop_hist : Stats.Histogram.t;
  lat_hist : Stats.Histogram.t;
  mutable layer_hops : int Imap.t;
  mutable layer_lat : float Imap.t;
  mutable finished : int Imap.t; (* finished_at_layer -> lookups *)
  mutable forwards : int Imap.t; (* node -> hops it forwarded *)
  mutable nodes : Iset.t; (* every node id seen in this algo's events *)
  mutable retries : int;
  mutable fallbacks : int;
  mutable layer_escapes : int;
  mutable penalty_ms : float; (* recover delay total, part of End latency *)
}

(* Net (message-level) accumulation: one entry per span keyed by (ctx, span)
   — spans from different engines sharing a file are disjoint namespaces.
   Parents are always emitted before their children (a send happens before
   the delivery it causes), so root kind and depth resolve in one pass. *)
type nspan = { nsp_root_kind : Netspan.kind; nsp_depth : int }

type net = {
  nspans : (string * int, nspan) Hashtbl.t;
  kind_counts : int array; (* by Netspan.kind_index *)
  kind_lat : Stats.Summary.t array;
  nlat_hist : Stats.Histogram.t;
  mutable node_msgs : int Imap.t; (* sender -> messages *)
  mutable node_bytes : int Imap.t; (* sender -> nominal wire bytes *)
  mutable nnodes : Iset.t; (* every node seen as src or dst *)
  class_msgs : int array; (* by class index, see class_names *)
  class_bytes : int array;
  kind_bytes_seen : int array; (* first declared "bytes" per kind, -1 = none yet *)
  depth_sum : Stats.Summary.t;
  mutable nroots : int;
  mutable ndrops_dead : int;
  mutable ndrops_loss : int;
}

(* Traffic classes, attributed by the *root* kind of each causal tree: a
   forwarding hop or reply belongs to whatever RPC started the cascade. *)
let class_names = [| "maint"; "lookup"; "join"; "store"; "other" |]

let class_of_kind = function
  | Netspan.Stabilize | Netspan.Notify | Netspan.Fix_fingers | Netspan.Check_pred | Netspan.Ring ->
      0
  | Netspan.Lookup -> 1
  | Netspan.Join -> 2
  | Netspan.Store_put | Netspan.Store_get | Netspan.Store_delete | Netspan.Store_replicate
  | Netspan.Store_repair | Netspan.Store_reply ->
      3
  | Netspan.Forward | Netspan.Reply | Netspan.Other -> 4

type t = {
  top_k : int;
  aggs : (string, agg) Hashtbl.t;
  open_spans : (int, span) Hashtbl.t;
  mutable net : net option; (* created on the first msg/drop event *)
  mutable events : int;
  mutable violations : int;
}

let create ?(top_k = 10) () =
  if top_k < 0 then invalid_arg "Analyze.create: top_k must be >= 0";
  {
    top_k;
    aggs = Hashtbl.create 4;
    open_spans = Hashtbl.create 64;
    net = None;
    events = 0;
    violations = 0;
  }

let net_of t =
  match t.net with
  | Some n -> n
  | None ->
      let n =
        {
          nspans = Hashtbl.create 1024;
          kind_counts = Array.make Netspan.n_kinds 0;
          kind_lat = Array.init Netspan.n_kinds (fun _ -> Stats.Summary.create ());
          nlat_hist = Stats.Histogram.create ~lo:0.0 ~hi:2000.0 ~bins:80;
          node_msgs = Imap.empty;
          node_bytes = Imap.empty;
          nnodes = Iset.empty;
          class_msgs = Array.make (Array.length class_names) 0;
          class_bytes = Array.make (Array.length class_names) 0;
          kind_bytes_seen = Array.make Netspan.n_kinds (-1);
          depth_sum = Stats.Summary.create ();
          nroots = 0;
          ndrops_dead = 0;
          ndrops_loss = 0;
        }
      in
      t.net <- Some n;
      n

let agg_of t algo =
  match Hashtbl.find_opt t.aggs algo with
  | Some a -> a
  | None ->
      let a =
        {
          lookups = 0;
          hops_sum = Stats.Summary.create ();
          lat_sum = Stats.Summary.create ();
          hop_hist = Stats.Histogram.create_ints ~max:63;
          lat_hist = Stats.Histogram.create ~lo:0.0 ~hi:2000.0 ~bins:80;
          layer_hops = Imap.empty;
          layer_lat = Imap.empty;
          finished = Imap.empty;
          forwards = Imap.empty;
          nodes = Iset.empty;
          retries = 0;
          fallbacks = 0;
          layer_escapes = 0;
          penalty_ms = 0.0;
        }
      in
      Hashtbl.add t.aggs algo a;
      a

let bump map key n = Imap.update key (fun v -> Some (Option.value ~default:0 v + n)) map
let bumpf map key x = Imap.update key (fun v -> Some (Option.value ~default:0.0 v +. x)) map

(* Latencies are summed in emission order on both sides of the audit, and
   the JSON float encoding round-trips, so agreement is exact; the epsilon
   only absorbs a different-order reduction from a foreign producer. *)
let lat_agrees a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let feed_event t ev =
  t.events <- t.events + 1;
  match (ev : Trace.event) with
  | Start { lookup; algo; origin; key = _ } ->
      if Hashtbl.mem t.open_spans lookup then t.violations <- t.violations + 1;
      let a = agg_of t algo in
      a.nodes <- Iset.add origin a.nodes;
      Hashtbl.replace t.open_spans lookup
        { sp_algo = algo; next_seq = 0; prev_to = origin; sp_hops = 0; sp_lat = 0.0; chain_ok = true }
  | Hop { lookup; seq; layer; from_node; to_node; latency_ms } -> (
      match Hashtbl.find_opt t.open_spans lookup with
      | None -> t.violations <- t.violations + 1 (* hop outside any span *)
      | Some sp ->
          if seq <> sp.next_seq || from_node <> sp.prev_to then sp.chain_ok <- false;
          sp.next_seq <- seq + 1;
          sp.prev_to <- to_node;
          sp.sp_hops <- sp.sp_hops + 1;
          sp.sp_lat <- sp.sp_lat +. latency_ms;
          let a = agg_of t sp.sp_algo in
          a.layer_hops <- bump a.layer_hops layer 1;
          a.layer_lat <- bumpf a.layer_lat layer latency_ms;
          a.forwards <- bump a.forwards from_node 1;
          a.nodes <- Iset.add from_node (Iset.add to_node a.nodes))
  | Recover { lookup; kind; layer = _; at_node; dead_node = _; delay_ms } -> (
      match Hashtbl.find_opt t.open_spans lookup with
      | None -> t.violations <- t.violations + 1 (* recovery outside any span *)
      | Some sp ->
          (* contiguous with the hop chain: recovery happens at the current
             position; the charged delay is part of the End latency *)
          if at_node <> sp.prev_to then sp.chain_ok <- false;
          sp.sp_lat <- sp.sp_lat +. delay_ms;
          let a = agg_of t sp.sp_algo in
          (match kind with
          | Trace.Retry -> a.retries <- a.retries + 1
          | Trace.Fallback -> a.fallbacks <- a.fallbacks + 1
          | Trace.Layer_escape -> a.layer_escapes <- a.layer_escapes + 1);
          a.penalty_ms <- a.penalty_ms +. delay_ms)
  | End { lookup; destination; hops; latency_ms; finished_at_layer } -> (
      match Hashtbl.find_opt t.open_spans lookup with
      | None -> t.violations <- t.violations + 1
      | Some sp ->
          Hashtbl.remove t.open_spans lookup;
          if
            (not sp.chain_ok) || hops <> sp.sp_hops || destination <> sp.prev_to
            || not (lat_agrees latency_ms sp.sp_lat)
          then t.violations <- t.violations + 1;
          let a = agg_of t sp.sp_algo in
          a.lookups <- a.lookups + 1;
          Stats.Summary.add a.hops_sum (float_of_int hops);
          Stats.Summary.add a.lat_sum latency_ms;
          Stats.Histogram.add a.hop_hist (float_of_int hops);
          Stats.Histogram.add a.lat_hist latency_ms;
          a.finished <- bump a.finished finished_at_layer 1;
          a.nodes <- Iset.add destination a.nodes)

(* Audited invariants of the net stream: span ids are unique per ctx, every
   referenced parent was recorded earlier (root-keyed sampling keeps causal
   trees whole, so this holds at any sample rate), drops name a known
   span, and declared wire bytes are positive and consistent per kind (the
   cost model is a function of the kind; two lines of one kind declaring
   different sizes mean a corrupt or mixed-producer trace). Breaches count
   into [violations] but still accumulate, so a report over a damaged
   trace is flagged rather than silently partial. *)
let feed_msg t ~ctx ~span ~parent ~kind ~src ~dst ~lat ~declared_bytes =
  t.events <- t.events + 1;
  let n = net_of t in
  if Hashtbl.mem n.nspans (ctx, span) then t.violations <- t.violations + 1
  else begin
    let entry =
      if parent < 0 then begin
        n.nroots <- n.nroots + 1;
        { nsp_root_kind = kind; nsp_depth = 0 }
      end
      else
        match Hashtbl.find_opt n.nspans (ctx, parent) with
        | Some p -> { nsp_root_kind = p.nsp_root_kind; nsp_depth = p.nsp_depth + 1 }
        | None ->
            (* orphan parent: flag it, then treat the span as a fresh root so
               the rest of the statistics stay defined *)
            t.violations <- t.violations + 1;
            { nsp_root_kind = kind; nsp_depth = 0 }
    in
    Hashtbl.add n.nspans (ctx, span) entry;
    let ki = Netspan.kind_index kind in
    n.kind_counts.(ki) <- n.kind_counts.(ki) + 1;
    Stats.Summary.add n.kind_lat.(ki) lat;
    Stats.Histogram.add n.nlat_hist lat;
    Stats.Summary.add n.depth_sum (float_of_int entry.nsp_depth);
    let bytes =
      match declared_bytes with
      | None -> Netspan.wire_bytes kind (* pre-bytes-field traces: fall back to the model *)
      | Some b when b <= 0 ->
          t.violations <- t.violations + 1;
          Netspan.wire_bytes kind (* don't let a bad line skew byte sums *)
      | Some b ->
          let seen = n.kind_bytes_seen.(ki) in
          if seen < 0 then n.kind_bytes_seen.(ki) <- b
          else if seen <> b then t.violations <- t.violations + 1;
          b
    in
    n.node_msgs <- bump n.node_msgs src 1;
    n.node_bytes <- bump n.node_bytes src bytes;
    n.nnodes <- Iset.add src (Iset.add dst n.nnodes);
    let c = class_of_kind entry.nsp_root_kind in
    n.class_msgs.(c) <- n.class_msgs.(c) + 1;
    n.class_bytes.(c) <- n.class_bytes.(c) + bytes
  end

let feed_drop t ~ctx ~span ~why =
  t.events <- t.events + 1;
  let n = net_of t in
  if not (Hashtbl.mem n.nspans (ctx, span)) then t.violations <- t.violations + 1;
  match why with
  | `Dead -> n.ndrops_dead <- n.ndrops_dead + 1
  | `Loss -> n.ndrops_loss <- n.ndrops_loss + 1

(* ---- JSONL decoding ---------------------------------------------------- *)

let field name j =
  match Jsonu.member name j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "trace event: missing field %S" name)

let int_field name j =
  match Jsonu.to_float (field name j) with
  | Some f when Float.is_integer f -> int_of_float f
  | _ -> failwith (Printf.sprintf "trace event: field %S is not an integer" name)

let float_field name j =
  match Jsonu.to_float (field name j) with
  | Some f -> f
  | None -> failwith (Printf.sprintf "trace event: field %S is not a number" name)

let str_field name j =
  match Jsonu.to_string (field name j) with
  | Some s -> s
  | None -> failwith (Printf.sprintf "trace event: field %S is not a string" name)

let trace_event_of_json j =
  (
      match str_field "ev" j with
      | "start" ->
          Trace.Start
            {
              lookup = int_field "lookup" j;
              algo = str_field "algo" j;
              origin = int_field "origin" j;
              key = str_field "key" j;
            }
      | "hop" ->
          Trace.Hop
            {
              lookup = int_field "lookup" j;
              seq = int_field "seq" j;
              layer = int_field "layer" j;
              from_node = int_field "from" j;
              to_node = int_field "to" j;
              latency_ms = float_field "lat_ms" j;
            }
      | "recover" ->
          let kind_s = str_field "kind" j in
          let kind =
            match Trace.rkind_of_name kind_s with
            | Some k -> k
            | None -> failwith (Printf.sprintf "trace event: unknown recover kind %S" kind_s)
          in
          Trace.Recover
            {
              lookup = int_field "lookup" j;
              kind;
              layer = int_field "layer" j;
              at_node = int_field "at" j;
              dead_node = int_field "dead" j;
              delay_ms = float_field "delay_ms" j;
            }
      | "end" ->
          Trace.End
            {
              lookup = int_field "lookup" j;
              destination = int_field "dest" j;
              hops = int_field "hops" j;
              latency_ms = float_field "lat_ms" j;
              finished_at_layer = int_field "finished_at_layer" j;
            }
      | ev -> failwith (Printf.sprintf "trace event: unknown kind %S" ev))

(* a net event's optional context; an absent one reads as "" *)
let ctx_field j =
  match Jsonu.member "ctx" j with
  | None -> ""
  | Some v -> (
      match Jsonu.to_string v with
      | Some s -> s
      | None -> failwith "net event: field \"ctx\" is not a string")

(* Both event families share one streaming entry point: lookup traces carry
   ev start/hop/recover/end, net traces carry ev msg/drop. A single file
   (or stdin) can hold either; the accumulated state decides which report
   is available. *)
let feed_json t j =
  match str_field "ev" j with
  | "msg" ->
      let ctx = ctx_field j in
      let parent = match Jsonu.member "parent" j with Some _ -> int_field "parent" j | None -> -1 in
      let kind_s = str_field "kind" j in
      let kind =
        match Netspan.kind_of_name kind_s with
        | Some k -> k
        | None -> failwith (Printf.sprintf "net event: unknown kind %S" kind_s)
      in
      ignore (float_field "at" j);
      let declared_bytes =
        match Jsonu.member "bytes" j with Some _ -> Some (int_field "bytes" j) | None -> None
      in
      feed_msg t ~ctx ~span:(int_field "span" j) ~parent ~kind ~src:(int_field "src" j)
        ~dst:(int_field "dst" j) ~lat:(float_field "lat" j) ~declared_bytes
  | "drop" ->
      let ctx = ctx_field j in
      ignore (float_field "at" j);
      let why =
        match str_field "why" j with
        | "dead" -> `Dead
        | "loss" -> `Loss
        | s -> failwith (Printf.sprintf "net event: unknown drop reason %S" s)
      in
      feed_drop t ~ctx ~span:(int_field "span" j) ~why
  | _ -> feed_event t (trace_event_of_json j)

let is_blank line = String.for_all (function ' ' | '\t' | '\r' -> true | _ -> false) line

let feed_line t line =
  if not (is_blank line) then
    match Jsonu.parse line with
    | Error msg -> failwith (Printf.sprintf "trace line: %s" msg)
    | Ok j -> feed_json t j

let of_file ?top_k path =
  let t = create ?top_k () in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          feed_line t (input_line ic)
        done;
        assert false
      with End_of_file -> t)

(* ---- report ------------------------------------------------------------ *)

type layer_stat = {
  layer : int;
  l_hops : int;
  hop_share : float;
  l_latency_ms : float;
  latency_share : float;
}

type hotspot = { node : int; forwards : int; fwd_share : float }

type recover_stat = { retries : int; fallbacks : int; layer_escapes : int; penalty_ms : float }

type algo_report = {
  algo : string;
  lookups : int;
  hops_mean : float;
  hops_max : float;
  latency_mean_ms : float;
  latency_max_ms : float;
  hop_hist : Stats.Histogram.t;
  latency_hist : Stats.Histogram.t;
  layers : layer_stat list;
  finished_at : (int * int) list;
  nodes_seen : int;
  forwarders : int;
  gini : float;
  imbalance : float;
  hotspots : hotspot list;
  recover : recover_stat;
}

type report = { events : int; spans_open : int; violations : int; algos : algo_report list }

(* G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n over ascending x,
   1-based i; 0 when every count is zero or there is at most one node. *)
let gini_of counts =
  let n = Array.length counts in
  let total = Array.fold_left ( +. ) 0.0 counts in
  if n < 2 || total <= 0.0 then 0.0
  else begin
    let sorted = Array.copy counts in
    Array.sort Float.compare sorted;
    let weighted = ref 0.0 in
    Array.iteri (fun i x -> weighted := !weighted +. (float_of_int (i + 1) *. x)) sorted;
    (2.0 *. !weighted /. (float_of_int n *. total)) -. (float_of_int (n + 1) /. float_of_int n)
  end

let algo_report_of top_k algo (a : agg) =
  let total_hops = Imap.fold (fun _ n acc -> acc + n) a.layer_hops 0 in
  let total_lat = Imap.fold (fun _ x acc -> acc +. x) a.layer_lat 0.0 in
  let layers =
    Imap.fold
      (fun layer l_hops acc ->
        let l_latency_ms = Option.value ~default:0.0 (Imap.find_opt layer a.layer_lat) in
        {
          layer;
          l_hops;
          hop_share = (if total_hops > 0 then float_of_int l_hops /. float_of_int total_hops else 0.0);
          l_latency_ms;
          latency_share = (if total_lat > 0.0 then l_latency_ms /. total_lat else 0.0);
        }
        :: acc)
      a.layer_hops []
    |> List.rev
  in
  (* Load distribution over every node seen in the algo's events: nodes
     that never forwarded count as zeros — a hotspot is only a hotspot
     relative to the idle rest of the population. *)
  let fwd_of node = Option.value ~default:0 (Imap.find_opt node a.forwards) in
  let counts = Iset.elements a.nodes |> List.map (fun n -> float_of_int (fwd_of n)) |> Array.of_list in
  let nodes_seen = Array.length counts in
  let max_fwd = Array.fold_left Float.max 0.0 counts in
  let mean_fwd = if nodes_seen > 0 then float_of_int total_hops /. float_of_int nodes_seen else 0.0 in
  let hotspots =
    Imap.bindings a.forwards
    |> List.sort (fun (n1, f1) (n2, f2) ->
           match compare f2 f1 with 0 -> compare n1 n2 | c -> c)
    |> List.filteri (fun i _ -> i < top_k)
    |> List.map (fun (node, forwards) ->
           {
             node;
             forwards;
             fwd_share =
               (if total_hops > 0 then float_of_int forwards /. float_of_int total_hops else 0.0);
           })
  in
  {
    algo;
    lookups = a.lookups;
    hops_mean = Stats.Summary.mean a.hops_sum;
    hops_max = (if a.lookups > 0 then Stats.Summary.max_value a.hops_sum else 0.0);
    latency_mean_ms = Stats.Summary.mean a.lat_sum;
    latency_max_ms = (if a.lookups > 0 then Stats.Summary.max_value a.lat_sum else 0.0);
    hop_hist = a.hop_hist;
    latency_hist = a.lat_hist;
    layers;
    finished_at = Imap.bindings a.finished;
    nodes_seen;
    forwarders = Imap.cardinal a.forwards;
    gini = gini_of counts;
    imbalance = (if mean_fwd > 0.0 then max_fwd /. mean_fwd else 0.0);
    hotspots;
    recover =
      {
        retries = a.retries;
        fallbacks = a.fallbacks;
        layer_escapes = a.layer_escapes;
        penalty_ms = a.penalty_ms;
      };
  }

(* The recover block only renders when a resilient route actually recovered
   from something, so reports from healthy traces keep their exact bytes
   (the committed goldens predate failure-aware routing). *)
let has_recover ar =
  ar.recover.retries + ar.recover.fallbacks + ar.recover.layer_escapes > 0

let report t =
  let algos =
    Hashtbl.fold (fun algo a acc -> (algo, a) :: acc) t.aggs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (algo, a) -> algo_report_of t.top_k algo a)
  in
  { events = t.events; spans_open = Hashtbl.length t.open_spans; violations = t.violations; algos }

(* ---- net report -------------------------------------------------------- *)

type kind_stat = { k_kind : string; k_count : int; k_lat_mean_ms : float; k_lat_max_ms : float }
type class_stat = { c_class : string; c_msgs : int; c_bytes : int; c_byte_share : float }
type band_node = { b_node : int; b_msgs : int; b_bytes : int; b_byte_share : float }

type net_report = {
  n_events : int;
  n_violations : int;
  n_msgs : int;
  n_roots : int;
  n_drops_dead : int;
  n_drops_loss : int;
  n_depth_mean : float;
  n_depth_max : float;
  n_kinds : kind_stat list;
  n_lat_hist : Stats.Histogram.t;
  n_classes : class_stat list;
  n_nodes : int;
  n_senders : int;
  n_gini : float;
  n_imbalance : float;
  n_top : band_node list;
}

let net_report t =
  match t.net with
  | None -> None
  | Some n ->
      let msgs = Array.fold_left ( + ) 0 n.kind_counts in
      let total_bytes = Array.fold_left ( + ) 0 n.class_bytes in
      let kinds =
        List.filter_map
          (fun k ->
            let i = Netspan.kind_index k in
            let c = n.kind_counts.(i) in
            if c = 0 then None
            else
              Some
                {
                  k_kind = Netspan.kind_name k;
                  k_count = c;
                  k_lat_mean_ms = Stats.Summary.mean n.kind_lat.(i);
                  k_lat_max_ms = Stats.Summary.max_value n.kind_lat.(i);
                })
          Netspan.all_kinds
      in
      let classes =
        List.init (Array.length class_names) (fun c ->
            {
              c_class = class_names.(c);
              c_msgs = n.class_msgs.(c);
              c_bytes = n.class_bytes.(c);
              c_byte_share =
                (if total_bytes > 0 then
                   float_of_int n.class_bytes.(c) /. float_of_int total_bytes
                 else 0.0);
            })
      in
      (* Bandwidth distribution over every node seen as sender or receiver:
         silent receivers count as zeros, same convention as the forwarding
         hotspots of the lookup report. *)
      let bytes_of node = Option.value ~default:0 (Imap.find_opt node n.node_bytes) in
      let counts =
        Iset.elements n.nnodes |> List.map (fun nd -> float_of_int (bytes_of nd)) |> Array.of_list
      in
      let nodes = Array.length counts in
      let max_b = Array.fold_left Float.max 0.0 counts in
      let mean_b = if nodes > 0 then float_of_int total_bytes /. float_of_int nodes else 0.0 in
      let top =
        Imap.bindings n.node_bytes
        |> List.sort (fun (n1, b1) (n2, b2) ->
               match compare b2 b1 with 0 -> compare n1 n2 | c -> c)
        |> List.filteri (fun i _ -> i < t.top_k)
        |> List.map (fun (node, bytes) ->
               {
                 b_node = node;
                 b_msgs = Option.value ~default:0 (Imap.find_opt node n.node_msgs);
                 b_bytes = bytes;
                 b_byte_share =
                   (if total_bytes > 0 then float_of_int bytes /. float_of_int total_bytes
                    else 0.0);
               })
      in
      Some
        {
          n_events = t.events;
          n_violations = t.violations;
          n_msgs = msgs;
          n_roots = n.nroots;
          n_drops_dead = n.ndrops_dead;
          n_drops_loss = n.ndrops_loss;
          n_depth_mean = Stats.Summary.mean n.depth_sum;
          n_depth_max = (if msgs > 0 then Stats.Summary.max_value n.depth_sum else 0.0);
          n_kinds = kinds;
          n_lat_hist = n.nlat_hist;
          n_classes = classes;
          n_nodes = nodes;
          n_senders = Imap.cardinal n.node_msgs;
          n_gini = gini_of counts;
          n_imbalance = (if mean_b > 0.0 then max_b /. mean_b else 0.0);
          n_top = top;
        }

(* ---- text rendering ---------------------------------------------------- *)

let fmt_f x = Printf.sprintf "%.3f" x
let fmt_pct x = Printf.sprintf "%.1f%%" (x *. 100.0)

let report_text r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "events: %d  open spans: %d  violations: %d\n" r.events r.spans_open
       r.violations);
  let summary = Stats.Text_table.create [ "algo"; "lookups"; "hops mean"; "hops max"; "lat mean ms"; "lat max ms" ] in
  List.iter
    (fun ar ->
      Stats.Text_table.add_row summary
        [
          ar.algo;
          string_of_int ar.lookups;
          fmt_f ar.hops_mean;
          Printf.sprintf "%.0f" ar.hops_max;
          fmt_f ar.latency_mean_ms;
          fmt_f ar.latency_max_ms;
        ])
    r.algos;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Stats.Text_table.render summary);
  List.iter
    (fun ar ->
      if ar.layers <> [] then begin
        let tbl =
          Stats.Text_table.create [ "layer"; "hops"; "hop share"; "latency ms"; "lat share" ]
        in
        List.iter
          (fun ls ->
            Stats.Text_table.add_row tbl
              [
                string_of_int ls.layer;
                string_of_int ls.l_hops;
                fmt_pct ls.hop_share;
                fmt_f ls.l_latency_ms;
                fmt_pct ls.latency_share;
              ])
          ar.layers;
        Buffer.add_string buf (Printf.sprintf "\n%s: per-layer attribution\n" ar.algo);
        Buffer.add_string buf (Stats.Text_table.render tbl)
      end;
      if ar.finished_at <> [] then begin
        let tbl = Stats.Text_table.create [ "finished at layer"; "lookups"; "share" ] in
        List.iter
          (fun (layer, n) ->
            Stats.Text_table.add_row tbl
              [
                string_of_int layer;
                string_of_int n;
                fmt_pct (if ar.lookups > 0 then float_of_int n /. float_of_int ar.lookups else 0.0);
              ])
          ar.finished_at;
        Buffer.add_string buf (Printf.sprintf "\n%s: ring residency\n" ar.algo);
        Buffer.add_string buf (Stats.Text_table.render tbl)
      end;
      if has_recover ar then
        Buffer.add_string buf
          (Printf.sprintf
             "\n%s: recovery (retries %d, fallbacks %d, layer escapes %d, penalty %s ms)\n"
             ar.algo ar.recover.retries ar.recover.fallbacks ar.recover.layer_escapes
             (fmt_f ar.recover.penalty_ms));
      if ar.hotspots <> [] then begin
        let tbl = Stats.Text_table.create [ "node"; "forwards"; "share of hops" ] in
        List.iter
          (fun h ->
            Stats.Text_table.add_row tbl
              [ string_of_int h.node; string_of_int h.forwards; fmt_pct h.fwd_share ])
          ar.hotspots;
        Buffer.add_string buf
          (Printf.sprintf "\n%s: forwarding hotspots (nodes %d, forwarders %d, gini %s, imbalance %s)\n"
             ar.algo ar.nodes_seen ar.forwarders (fmt_f ar.gini) (fmt_f ar.imbalance));
        Buffer.add_string buf (Stats.Text_table.render tbl)
      end)
    r.algos;
  Buffer.contents buf

let net_report_text r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "net events: %d  violations: %d\n" r.n_events r.n_violations);
  Buffer.add_string buf
    (Printf.sprintf
       "msgs: %d  roots: %d  depth mean %s max %.0f  drops: %d dead, %d loss\n" r.n_msgs
       r.n_roots (fmt_f r.n_depth_mean) r.n_depth_max r.n_drops_dead r.n_drops_loss);
  if r.n_kinds <> [] then begin
    let tbl = Stats.Text_table.create [ "kind"; "msgs"; "lat mean ms"; "lat max ms" ] in
    List.iter
      (fun k ->
        Stats.Text_table.add_row tbl
          [ k.k_kind; string_of_int k.k_count; fmt_f k.k_lat_mean_ms; fmt_f k.k_lat_max_ms ])
      r.n_kinds;
    Buffer.add_string buf "\nper-kind traffic\n";
    Buffer.add_string buf (Stats.Text_table.render tbl)
  end;
  begin
    let tbl = Stats.Text_table.create [ "class"; "msgs"; "bytes"; "byte share" ] in
    List.iter
      (fun c ->
        Stats.Text_table.add_row tbl
          [ c.c_class; string_of_int c.c_msgs; string_of_int c.c_bytes; fmt_pct c.c_byte_share ])
      r.n_classes;
    Buffer.add_string buf "\ntraffic classes (attributed by causal root)\n";
    Buffer.add_string buf (Stats.Text_table.render tbl)
  end;
  if r.n_top <> [] then begin
    let tbl = Stats.Text_table.create [ "node"; "msgs"; "bytes"; "byte share" ] in
    List.iter
      (fun b ->
        Stats.Text_table.add_row tbl
          [ string_of_int b.b_node; string_of_int b.b_msgs; string_of_int b.b_bytes;
            fmt_pct b.b_byte_share ])
      r.n_top;
    Buffer.add_string buf
      (Printf.sprintf "\nbandwidth hotspots (nodes %d, senders %d, gini %s, imbalance %s)\n"
         r.n_nodes r.n_senders (fmt_f r.n_gini) (fmt_f r.n_imbalance));
    Buffer.add_string buf (Stats.Text_table.render tbl)
  end;
  Buffer.contents buf

(* ---- JSON rendering ---------------------------------------------------- *)

(* The gated metrics, all lower-is-better. The four recover quantities are
   gated even when the report omits its recover block, so a healthy base
   still catches a candidate that starts recovering. *)
let report_gated r =
  Gate.metric "violations" "count" (float_of_int r.violations)
  :: List.concat_map
       (fun ar ->
         let m name = Gate.metric (ar.algo ^ "." ^ name) in
         let count name n = m name "count" (float_of_int n) in
         [
           m "hops.mean" "hops" ar.hops_mean;
           m "latency_ms.mean" "ms" ar.latency_mean_ms;
           m "latency_ms.max" "ms" ar.latency_max_ms;
           m "forwarding.gini" "ratio" ar.gini;
           count "recover.retries" ar.recover.retries;
           count "recover.fallbacks" ar.recover.fallbacks;
           count "recover.layer_escapes" ar.recover.layer_escapes;
           m "recover.penalty_ms" "ms" ar.recover.penalty_ms;
         ])
       r.algos

(* Maintenance traffic is the net report's gate: a change that makes upkeep
   chattier shows as a count regression at equal run length. Every kind is
   gated, zero counts included. *)
let net_report_gated r =
  let m = Gate.metric in
  let count name n = m name "count" (float_of_int n) in
  let kind_count k =
    List.fold_left (fun n s -> if s.k_kind = Netspan.kind_name k then s.k_count else n) 0 r.n_kinds
  in
  [
    count "net.violations" r.n_violations;
    count "net.drops.dead" r.n_drops_dead;
    count "net.drops.loss" r.n_drops_loss;
    m "net.depth.mean" "hops" r.n_depth_mean;
    m "net.bandwidth.gini" "ratio" r.n_gini;
    m "net.bandwidth.imbalance" "ratio" r.n_imbalance;
  ]
  @ List.map (fun c -> m ("net.classes." ^ c.c_class ^ ".byte_share") "ratio" c.c_byte_share) r.n_classes
  @ List.map
      (fun k -> count ("net.kinds." ^ Netspan.kind_name k ^ ".count") (kind_count k))
      Netspan.all_kinds

let hist_json h =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '[';
  let first = ref true in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf
          (Printf.sprintf "[%s,%d]" (Jsonu.number (Stats.Histogram.bin_lo h i)) c)
      end)
    (Stats.Histogram.counts h);
  Buffer.add_char buf ']';
  Buffer.contents buf

let report_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf {|{"schema":"hieras-trace-report","events":%d,"spans_open":%d,"violations":%d,"algos":{|}
       r.events r.spans_open r.violations);
  List.iteri
    (fun i ar ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf {|"%s":{|} (Jsonu.escape ar.algo));
      Buffer.add_string buf
        (Printf.sprintf
           {|"lookups":%d,"hops":{"mean":%s,"max":%s,"pdf":%s},"latency_ms":{"mean":%s,"max":%s,"hist":%s}|}
           ar.lookups (Jsonu.number ar.hops_mean) (Jsonu.number ar.hops_max)
           (hist_json ar.hop_hist)
           (Jsonu.number ar.latency_mean_ms)
           (Jsonu.number ar.latency_max_ms)
           (hist_json ar.latency_hist));
      Buffer.add_string buf {|,"layers":[|};
      List.iteri
        (fun j ls ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               {|{"layer":%d,"hops":%d,"hop_share":%s,"latency_ms":%s,"latency_share":%s}|}
               ls.layer ls.l_hops (Jsonu.number ls.hop_share) (Jsonu.number ls.l_latency_ms)
               (Jsonu.number ls.latency_share)))
        ar.layers;
      Buffer.add_string buf {|],"finished_at":[|};
      List.iteri
        (fun j (layer, n) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "[%d,%d]" layer n))
        ar.finished_at;
      Buffer.add_string buf
        (Printf.sprintf {|],"forwarding":{"nodes":%d,"forwarders":%d,"gini":%s,"imbalance":%s,"top":[|}
           ar.nodes_seen ar.forwarders (Jsonu.number ar.gini) (Jsonu.number ar.imbalance));
      List.iteri
        (fun j h ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "[%d,%d,%s]" h.node h.forwards (Jsonu.number h.fwd_share)))
        ar.hotspots;
      Buffer.add_string buf "]}";
      if has_recover ar then
        Buffer.add_string buf
          (Printf.sprintf
             {|,"recover":{"retries":%d,"fallbacks":%d,"layer_escapes":%d,"penalty_ms":%s}|}
             ar.recover.retries ar.recover.fallbacks ar.recover.layer_escapes
             (Jsonu.number ar.recover.penalty_ms));
      Buffer.add_char buf '}')
    r.algos;
  Buffer.add_string buf (Printf.sprintf {|},"gated":%s}|} (Gate.to_json (report_gated r)));
  Buffer.contents buf

let net_report_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"schema":"hieras-netspan","events":%d,"violations":%d,"msgs":%d,"roots":%d,"drops":{"dead":%d,"loss":%d},"depth":{"mean":%s,"max":%s}|}
       r.n_events r.n_violations r.n_msgs r.n_roots r.n_drops_dead r.n_drops_loss
       (Jsonu.number r.n_depth_mean) (Jsonu.number r.n_depth_max));
  Buffer.add_string buf {|,"kinds":{|};
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf {|"%s":{"count":%d,"lat_mean_ms":%s,"lat_max_ms":%s}|}
           (Jsonu.escape k.k_kind) k.k_count (Jsonu.number k.k_lat_mean_ms)
           (Jsonu.number k.k_lat_max_ms)))
    r.n_kinds;
  Buffer.add_string buf (Printf.sprintf {|},"latency_ms_hist":%s,"classes":{|} (hist_json r.n_lat_hist));
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf {|"%s":{"msgs":%d,"bytes":%d,"byte_share":%s}|} c.c_class c.c_msgs
           c.c_bytes (Jsonu.number c.c_byte_share)))
    r.n_classes;
  Buffer.add_string buf
    (Printf.sprintf {|},"bandwidth":{"nodes":%d,"senders":%d,"gini":%s,"imbalance":%s,"top":[|}
       r.n_nodes r.n_senders (Jsonu.number r.n_gini) (Jsonu.number r.n_imbalance));
  List.iteri
    (fun i b ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "[%d,%d,%d,%s]" b.b_node b.b_msgs b.b_bytes (Jsonu.number b.b_byte_share)))
    r.n_top;
  Buffer.add_string buf (Printf.sprintf {|]},"gated":%s}|} (Gate.to_json (net_report_gated r)));
  Buffer.contents buf
