(* The million-node scale experiment (ROADMAP "Million-node scale").

   Instead of generating a 10^6-host router topology (whose build cost and
   memory would dwarf the thing being measured), the experiment runs over a
   synthetic star environment: one router, per-host access delays and
   per-host landmark vectors drawn from per-index seeded generators — every
   quantity is a pure function of (spec.seed, host), so the build is
   deterministic regardless of construction order. Routing behaviour (hop
   sequences, ring structure) never depends on the latency oracle, so the
   analytic hop distributions measured here are exactly those a full
   topology would produce for the same identifier ring and binning orders.

   Lookups run in the analytic mode: [Chord.Lookup.route_hops_only] and
   [Hieras.Hlookup.route_hops_only] walk the packed structures without the
   latency oracle, traces or per-hop allocation. The request stream is
   sharded over the pool in fixed-size chunks, each chunk re-seeded from its
   global start offset — the stream, the chunk layout and the merge order
   are all independent of the pool width, so results are bit-identical for
   any --jobs (the same contract as Runner.measure). *)

module Summary = Stats.Summary
module Histogram = Stats.Histogram
module Pool = Parallel.Pool
module Id = Hashid.Id

type spec = {
  nodes : int;
  requests : int;
  landmarks : int;
  depth : int;
  seed : int;
  cross_check : int;
      (* leading requests replayed through the full simulated routes and
         compared hop-for-hop against the analytic walk; 0 = off *)
}

let default_spec =
  {
    nodes = 1_000_000;
    requests = 1_000_000;
    landmarks = 4;
    depth = 2;
    seed = 2003;
    cross_check = 0;
  }

let validate s =
  if s.nodes < 2 then Error (Printf.sprintf "--nodes must be >= 2 (got %d)" s.nodes)
  else if s.requests < 0 then Error (Printf.sprintf "--requests must be >= 0 (got %d)" s.requests)
  else if s.landmarks < 1 then
    Error (Printf.sprintf "--landmarks must be >= 1 (got %d)" s.landmarks)
  else if s.depth < 2 || s.depth > 4 then
    Error (Printf.sprintf "--depth must be between 2 and 4 (got %d)" s.depth)
  else if s.cross_check < 0 || s.cross_check > s.requests then
    Error
      (Printf.sprintf "--cross-check must be in 0..requests (got %d)" s.cross_check)
  else Ok ()

let space = Hashid.Id.sha1_space

(* per-host access delay and landmark vector: pure functions of (seed, host) *)
let host_rng s ~salt host = Prng.Rng.create ~seed:(s.seed + salt + (host * 2654435761))

let access_delay s host = 0.1 +. Prng.Rng.float (host_rng s ~salt:17 host) 5.0

let landmark_vector s host =
  let rng = host_rng s ~salt:71 host in
  let v = Array.make s.landmarks 0.0 in
  for l = 0 to s.landmarks - 1 do
    v.(l) <- Prng.Rng.float rng 200.0
  done;
  v

let build_env ?(now = fun () -> 0.0) s =
  let n = s.nodes in
  let star = Topology.Graph.freeze (Topology.Graph.builder 1) in
  let lat =
    Topology.Latency.create ~backend:Topology.Latency.Eager ~router_graph:star
      ~host_router:(Array.make n 0)
      ~host_access:(Array.init n (fun h -> access_delay s h))
      ()
  in
  let t0 = now () in
  let chord =
    Chord.Network.build ~space
      ~hosts:(Array.init n (fun i -> i))
      ~succ_list_len:Config.succ_list_len
      ~salt:(Printf.sprintf "scale-%d" s.seed)
      ()
  in
  let t1 = now () in
  let landmarks = Binning.Landmark.of_routers (Array.make s.landmarks 0) in
  let hnet =
    Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth:s.depth
      ~measure:(fun ~host -> landmark_vector s host)
      ()
  in
  let t2 = now () in
  (chord, hnet, t1 -. t0, t2 -. t1)

let networks s =
  (match validate s with Ok () -> () | Error e -> invalid_arg ("Scale.networks: " ^ e));
  let chord, hnet, _, _ = build_env s in
  (chord, hnet)

(* ---- the sharded analytic replay ---------------------------------------- *)

(* Fixed chunk layout (like Runner.chunk_size): boundaries depend only on the
   request count. Each chunk re-seeds its own generator from the global start
   offset, so any worker can produce its slice of the stream independently —
   the streamed, never-materialized equivalent of the runner's pre-generated
   request array. *)
let chunk_size = 8192

let chunk_rng s lo = Prng.Rng.create ~seed:(s.seed + 104729 + lo)

let iter_requests s ~f =
  let nodes = s.nodes in
  let i = ref 0 in
  while !i < s.requests do
    let lo = !i in
    let hi = min s.requests (lo + chunk_size) in
    let rng = chunk_rng s lo in
    for idx = lo to hi - 1 do
      let origin = Prng.Rng.int rng nodes in
      let key = Id.random space rng in
      f idx ~origin ~key
    done;
    i := hi
  done

let hist_max = 63

type acc = {
  chord_hops : Summary.t;
  hieras_hops : Summary.t;
  chord_pdf : Histogram.t;
  hieras_pdf : Histogram.t;
  layer_pdf : Histogram.t array; (* index 0 = layer 1 *)
  layer_hops : float array;
  finished_at : int array; (* index 0 = layer 1 *)
  mutable dest_match : int;
}

let fresh_acc depth =
  {
    chord_hops = Summary.create ();
    hieras_hops = Summary.create ();
    chord_pdf = Histogram.create_ints ~max:hist_max;
    hieras_pdf = Histogram.create_ints ~max:hist_max;
    layer_pdf = Array.init depth (fun _ -> Histogram.create_ints ~max:hist_max);
    layer_hops = Array.make depth 0.0;
    finished_at = Array.make depth 0;
    dest_match = 0;
  }

let merge_acc a b =
  {
    chord_hops = Summary.merge a.chord_hops b.chord_hops;
    hieras_hops = Summary.merge a.hieras_hops b.hieras_hops;
    chord_pdf = Histogram.merge a.chord_pdf b.chord_pdf;
    hieras_pdf = Histogram.merge a.hieras_pdf b.hieras_pdf;
    layer_pdf = Array.mapi (fun k h -> Histogram.merge h b.layer_pdf.(k)) a.layer_pdf;
    layer_hops = Array.mapi (fun k v -> v +. b.layer_hops.(k)) a.layer_hops;
    finished_at = Array.mapi (fun k v -> v + b.finished_at.(k)) a.finished_at;
    dest_match = a.dest_match + b.dest_match;
  }

let measure_one ?scratch chord hnet acc ~origin ~key =
  let c_hops, c_dest = Chord.Lookup.route_hops_only chord ~origin ~key in
  let h_hops, per_layer, h_dest, fin =
    Hieras.Hlookup.route_hops_only ?into:scratch hnet ~origin ~key
  in
  Summary.add acc.chord_hops (float_of_int c_hops);
  Summary.add acc.hieras_hops (float_of_int h_hops);
  Histogram.add acc.chord_pdf (float_of_int c_hops);
  Histogram.add acc.hieras_pdf (float_of_int h_hops);
  Array.iteri
    (fun k h ->
      Histogram.add acc.layer_pdf.(k) (float_of_int h);
      acc.layer_hops.(k) <- acc.layer_hops.(k) +. float_of_int h)
    per_layer;
  acc.finished_at.(fin - 1) <- acc.finished_at.(fin - 1) + 1;
  if c_dest = h_dest then acc.dest_match <- acc.dest_match + 1

type result = {
  spec : spec;
  ring_counts : int array; (* per layer 2 .. depth *)
  chord_segments : int;
  hieras_segments : int array; (* per layer 2 .. depth *)
  chord_bytes : int;
  hieras_bytes : int;
  lookups : int;
  chord_hops_mean : float;
  chord_hops_max : float;
  hieras_hops_mean : float;
  hieras_hops_max : float;
  chord_pdf : int array;
  hieras_pdf : int array;
  layer_pdf : int array array; (* index 0 = layer 1 *)
  layer_hops_mean : float array;
  finished_at : int array;
  dest_match : int;
  cross_checked : int;
  cross_mismatches : int;
  (* wall-clock + process stats: excluded from the deterministic
     [results_json]; recorded by [bench_json] *)
  build_chord_s : float;
  build_hieras_s : float;
  replay_s : float;
  cross_s : float;
  gc_minor_words : float;
  gc_major_words : float;
  gc_top_heap_words : int;
  peak_rss_kb : int;
}

(* VmHWM from /proc/self/status — peak resident set, Linux only; 0 where the
   file or the field is missing. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              let rest = String.trim (String.sub line 6 (String.length line - 6)) in
              let rest =
                match String.index_opt rest ' ' with
                | Some i -> String.sub rest 0 i
                | None -> rest
              in
              int_of_string_opt rest |> Option.value ~default:0
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* replay the first [k] requests through the full simulated routes and
   compare hop-for-hop with the analytic walk *)
let cross_check_run s chord hnet k =
  let mismatches = ref 0 in
  let lat = Hieras.Hnetwork.latency_oracle hnet in
  iter_requests { s with requests = k } ~f:(fun _ ~origin ~key ->
      let c_hops, c_dest = Chord.Lookup.route_hops_only chord ~origin ~key in
      let rc = Chord.Lookup.route chord lat ~origin ~key in
      if rc.Chord.Lookup.hop_count <> c_hops || rc.Chord.Lookup.destination <> c_dest then
        incr mismatches;
      let h_hops, per_layer, h_dest, fin = Hieras.Hlookup.route_hops_only hnet ~origin ~key in
      let rh = Hieras.Hlookup.route hnet ~origin ~key in
      if
        rh.Hieras.Hlookup.hop_count <> h_hops
        || rh.Hieras.Hlookup.destination <> h_dest
        || rh.Hieras.Hlookup.finished_at_layer <> fin
        || rh.Hieras.Hlookup.hops_per_layer <> per_layer
      then incr mismatches);
  !mismatches

(* trim trailing zero bins so the JSON stays compact and size-independent *)
let trim_counts h =
  let c = Histogram.counts h in
  let last = ref (-1) in
  Array.iteri (fun i v -> if v > 0 then last := i) c;
  Array.sub c 0 (!last + 1)

let run ?(pool = Pool.sequential) ?registry ?(now = fun () -> 0.0) s =
  (match validate s with Ok () -> () | Error e -> invalid_arg ("Scale.run: " ^ e));
  let gc0 = Gc.quick_stat () in
  let chord, hnet, build_chord_s, build_hieras_s = build_env ~now s in
  let depth = s.depth in
  let t0 = now () in
  let parts =
    Pool.map_chunks pool ~n:s.requests ~chunk_size (fun ~lo ~hi ->
        let acc = fresh_acc depth in
        let rng = chunk_rng s lo in
        (* per-chunk scratch: the per-layer accumulator is consumed inside
           [measure_one] before the next lookup reuses it *)
        let scratch = Array.make depth 0 in
        for _ = lo to hi - 1 do
          let origin = Prng.Rng.int rng s.nodes in
          let key = Id.random space rng in
          measure_one ~scratch chord hnet acc ~origin ~key
        done;
        acc)
  in
  let acc =
    match parts with [] -> fresh_acc depth | first :: rest -> List.fold_left merge_acc first rest
  in
  let replay_s = now () -. t0 in
  let t1 = now () in
  let cross_mismatches =
    if s.cross_check = 0 then 0 else cross_check_run s chord hnet s.cross_check
  in
  let cross_s = now () -. t1 in
  let gc1 = Gc.quick_stat () in
  let r =
    {
      spec = s;
      ring_counts =
        Array.init (depth - 1) (fun k -> Hieras.Hnetwork.ring_count hnet ~layer:(k + 2));
      chord_segments = Chord.Network.total_finger_segments chord;
      hieras_segments =
        Array.init (depth - 1) (fun k ->
            Hieras.Hnetwork.total_finger_segments hnet ~layer:(k + 2));
      chord_bytes = Chord.Network.bytes_resident chord;
      hieras_bytes = Hieras.Hnetwork.bytes_resident hnet;
      lookups = Summary.count acc.chord_hops;
      chord_hops_mean = Summary.mean acc.chord_hops;
      chord_hops_max =
        (if Summary.count acc.chord_hops = 0 then 0.0 else Summary.max_value acc.chord_hops);
      hieras_hops_mean = Summary.mean acc.hieras_hops;
      hieras_hops_max =
        (if Summary.count acc.hieras_hops = 0 then 0.0
         else Summary.max_value acc.hieras_hops);
      chord_pdf = trim_counts acc.chord_pdf;
      hieras_pdf = trim_counts acc.hieras_pdf;
      layer_pdf = Array.map trim_counts acc.layer_pdf;
      layer_hops_mean =
        Array.map
          (fun v -> if s.requests = 0 then 0.0 else v /. float_of_int s.requests)
          acc.layer_hops;
      finished_at = acc.finished_at;
      dest_match = acc.dest_match;
      cross_checked = s.cross_check;
      cross_mismatches;
      build_chord_s;
      build_hieras_s;
      replay_s;
      cross_s;
      gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      gc_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
      gc_top_heap_words = gc1.Gc.top_heap_words;
      peak_rss_kb = peak_rss_kb ();
    }
  in
  Option.iter
    (fun reg ->
      let open Obs.Metrics in
      let c name v = set_counter (counter reg name) v in
      let g name v = set (gauge reg name) v in
      c "scale.nodes" s.nodes;
      c "scale.lookups" r.lookups;
      c "scale.dest_match" r.dest_match;
      c "scale.cross.checked" r.cross_checked;
      c "scale.cross.mismatches" r.cross_mismatches;
      g "scale.chord.hops_mean" r.chord_hops_mean;
      g "scale.chord.hops_max" r.chord_hops_max;
      g "scale.hieras.hops_mean" r.hieras_hops_mean;
      g "scale.hieras.hops_max" r.hieras_hops_max;
      c "scale.chord.segments" r.chord_segments;
      c "scale.chord.bytes_resident" r.chord_bytes;
      c "scale.hieras.bytes_resident" r.hieras_bytes;
      Array.iteri
        (fun k v -> g (Printf.sprintf "scale.hieras.layer%d.hops_mean" (k + 1)) v)
        r.layer_hops_mean)
    registry;
  r

(* ---- renderings ---------------------------------------------------------- *)

let ints_json a = "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

let floats_json a =
  "[" ^ String.concat "," (Array.to_list (Array.map Obs.Jsonu.number a)) ^ "]"

(* Gated on the deterministic core only: hop statistics, segment counts,
   resident bytes and agreement rates, never wall clock or RSS. *)
let gated r =
  let m = Obs.Gate.metric in
  let count name n = m name "count" (float_of_int n) in
  [
    m "scale.chord.hops_mean" "hops" r.chord_hops_mean;
    m "scale.chord.hops_max" "hops" r.chord_hops_max;
    count "scale.chord.segments" r.chord_segments;
    m "scale.chord.bytes_resident" "bytes" (float_of_int r.chord_bytes);
    m "scale.hieras.hops_mean" "hops" r.hieras_hops_mean;
    m "scale.hieras.hops_max" "hops" r.hieras_hops_max;
    m "scale.hieras.bytes_resident" "bytes" (float_of_int r.hieras_bytes);
  ]
  @ Obs.Gate.failure_rate "scale.dest_mismatch_rate" ~ok:r.dest_match ~total:r.lookups
  @ [ count "scale.cross.mismatches" r.cross_mismatches ]

(* Deterministic results: structure + analytic distributions only — no wall
   times, no process stats — byte-identical for any --jobs and any machine.
   Golden: test/golden/scale_ts64.json. *)
let results_json r =
  let s = r.spec in
  let n = Obs.Jsonu.number in
  Printf.sprintf
    {|{"schema":"hieras-scale","nodes":%d,"requests":%d,"landmarks":%d,"depth":%d,"succ_list_len":%d,"seed":%d,"ring_counts":%s,"chord":{"segments":%d,"bytes_resident":%d,"hops_mean":%s,"hops_max":%s,"hop_pdf":%s},"hieras":{"segments_per_layer":%s,"bytes_resident":%d,"hops_mean":%s,"hops_max":%s,"hop_pdf":%s,"layer_hop_pdf":[%s],"layer_hops_mean":%s,"finished_at":%s},"lookups":%d,"dest_match":%d,"cross":{"checked":%d,"mismatches":%d},"gated":%s}|}
    s.nodes s.requests s.landmarks s.depth Config.succ_list_len s.seed (ints_json r.ring_counts)
    r.chord_segments r.chord_bytes (n r.chord_hops_mean) (n r.chord_hops_max)
    (ints_json r.chord_pdf)
    (ints_json r.hieras_segments)
    r.hieras_bytes (n r.hieras_hops_mean) (n r.hieras_hops_max)
    (ints_json r.hieras_pdf)
    (String.concat "," (Array.to_list (Array.map ints_json r.layer_pdf)))
    (floats_json r.layer_hops_mean)
    (ints_json r.finished_at)
    r.lookups r.dest_match r.cross_checked r.cross_mismatches
    (Obs.Gate.to_json (gated r))

(* Perf snapshot: the deterministic core plus wall-clock, Gc and peak-RSS
   numbers — the BENCH_scale.json artifact. *)
let bench_json ?(label = "scale") r =
  let n = Obs.Jsonu.number in
  let us_per_op t =
    if r.lookups = 0 then 0.0 else t *. 1e6 /. float_of_int r.lookups
  in
  Printf.sprintf
    {|{"schema":"hieras-scale-bench","label":%s,"build_chord_s":%s,"build_hieras_s":%s,"replay_s":%s,"cross_s":%s,"us_per_op":%s,"gc":{"minor_words":%s,"major_words":%s,"top_heap_words":%d},"peak_rss_kb":%d,"results":%s,"gated":%s}|}
    (Printf.sprintf "%S" label) (n r.build_chord_s) (n r.build_hieras_s) (n r.replay_s)
    (n r.cross_s)
    (n (us_per_op r.replay_s))
    (n r.gc_minor_words) (n r.gc_major_words) r.gc_top_heap_words r.peak_rss_kb
    (results_json r)
    (Obs.Gate.to_json (gated r))

let section r =
  let tbl =
    Stats.Text_table.create
      [ "algo"; "lookups"; "hops mean"; "hops max"; "segments"; "resident MiB" ]
  in
  let mib b = Printf.sprintf "%.1f" (float_of_int b /. 1048576.0) in
  Stats.Text_table.add_row tbl
    [
      "chord";
      string_of_int r.lookups;
      Printf.sprintf "%.3f" r.chord_hops_mean;
      Printf.sprintf "%.0f" r.chord_hops_max;
      string_of_int r.chord_segments;
      mib r.chord_bytes;
    ];
  Stats.Text_table.add_row tbl
    [
      "hieras";
      string_of_int r.lookups;
      Printf.sprintf "%.3f" r.hieras_hops_mean;
      Printf.sprintf "%.0f" r.hieras_hops_max;
      string_of_int (Array.fold_left ( + ) r.chord_segments r.hieras_segments);
      mib r.hieras_bytes;
    ];
  let notes =
    [
      Printf.sprintf "nodes %d, requests %d, depth %d, landmarks %d, seed %d" r.spec.nodes
        r.spec.requests r.spec.depth r.spec.landmarks r.spec.seed;
      Printf.sprintf "rings per layer (2..depth): %s"
        (String.concat ", " (Array.to_list (Array.map string_of_int r.ring_counts)));
      Printf.sprintf "hieras mean hops per layer: %s"
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "%.3f") r.layer_hops_mean)));
      Printf.sprintf "finished at layer (1..depth): %s"
        (String.concat ", " (Array.to_list (Array.map string_of_int r.finished_at)));
      Printf.sprintf "destinations agree on %d/%d lookups" r.dest_match r.lookups;
    ]
    @ (if r.cross_checked = 0 then []
       else
         [
           Printf.sprintf "cross-check vs simulated routes: %d/%d mismatches"
             r.cross_mismatches r.cross_checked;
         ])
    @
    if r.replay_s = 0.0 then []
    else
      [
        Printf.sprintf
          "build %.1fs + %.1fs, analytic replay %.1fs (%.2f µs/lookup), peak RSS %d MiB"
          r.build_chord_s r.build_hieras_s r.replay_s
          (r.replay_s *. 1e6 /. float_of_int (max r.lookups 1))
          (r.peak_rss_kb / 1024);
      ]
  in
  {
    Report.id = "scale";
    title = "Analytic hop distributions at scale (packed representation)";
    table = tbl;
    notes;
  }
