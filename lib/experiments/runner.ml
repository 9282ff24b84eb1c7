module Summary = Stats.Summary
module Histogram = Stats.Histogram
module Pool = Parallel.Pool

type env = {
  cfg : Config.t;
  lat : Topology.Latency.t;
  chord : Chord.Network.t;
}

let space = Hashid.Id.sha1_space

let build_env ?pool ?(timer = Obs.Timer.disabled) cfg =
  let rng = Prng.Rng.create ~seed:cfg.Config.seed in
  let topo_rng = Prng.Rng.split rng in
  let lat =
    Obs.Timer.span timer "topology" (fun () ->
        Topology.Model.build ?pool cfg.Config.model ~hosts:cfg.Config.nodes topo_rng)
  in
  let hosts = Array.init cfg.Config.nodes (fun i -> i) in
  let chord =
    Obs.Timer.span timer "chord-build" (fun () ->
        Chord.Network.build ~space ~hosts ~succ_list_len:Config.succ_list_len
          ~salt:(Printf.sprintf "peer-%d" cfg.Config.seed)
          ())
  in
  { cfg; lat; chord }

let latency_oracle env = env.lat
let chord_network env = env.chord

let build_hieras ?(timer = Obs.Timer.disabled) env cfg =
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 7919) in
  let landmarks =
    Obs.Timer.span timer "binning" (fun () ->
        Binning.Landmark.choose_spread env.lat ~count:cfg.Config.landmarks rng)
  in
  Obs.Timer.span timer "hieras-build" (fun () ->
      Hieras.Hnetwork.build ~chord:env.chord ~lat:env.lat ~landmarks ~depth:cfg.Config.depth ())

type metrics = {
  config : Config.t;
  chord_hops : Summary.t;
  chord_latency : Summary.t;
  hieras_hops : Summary.t;
  hieras_latency : Summary.t;
  lower_hops : Summary.t;
  top_hops : Summary.t;
  lower_latency : Summary.t;
  top_latency : Summary.t;
  chord_hop_pdf : Histogram.t;
  hieras_hop_pdf : Histogram.t;
  lower_hop_pdf : Histogram.t;
  chord_latency_hist : Histogram.t;
  hieras_latency_hist : Histogram.t;
  hops_per_layer : float array;
  latency_per_layer : float array;
}

let fresh_metrics cfg ~depth =
  {
    config = cfg;
    chord_hops = Summary.create ();
    chord_latency = Summary.create ();
    hieras_hops = Summary.create ();
    hieras_latency = Summary.create ();
    lower_hops = Summary.create ();
    top_hops = Summary.create ();
    lower_latency = Summary.create ();
    top_latency = Summary.create ();
    chord_hop_pdf = Histogram.create_ints ~max:31;
    hieras_hop_pdf = Histogram.create_ints ~max:31;
    lower_hop_pdf = Histogram.create_ints ~max:31;
    chord_latency_hist = Histogram.create ~lo:0.0 ~hi:2000.0 ~bins:200;
    hieras_latency_hist = Histogram.create ~lo:0.0 ~hi:2000.0 ~bins:200;
    hops_per_layer = Array.make depth 0.0;
    latency_per_layer = Array.make depth 0.0;
  }

let merge_metrics a b =
  {
    config = a.config;
    chord_hops = Summary.merge a.chord_hops b.chord_hops;
    chord_latency = Summary.merge a.chord_latency b.chord_latency;
    hieras_hops = Summary.merge a.hieras_hops b.hieras_hops;
    hieras_latency = Summary.merge a.hieras_latency b.hieras_latency;
    lower_hops = Summary.merge a.lower_hops b.lower_hops;
    top_hops = Summary.merge a.top_hops b.top_hops;
    lower_latency = Summary.merge a.lower_latency b.lower_latency;
    top_latency = Summary.merge a.top_latency b.top_latency;
    chord_hop_pdf = Histogram.merge a.chord_hop_pdf b.chord_hop_pdf;
    hieras_hop_pdf = Histogram.merge a.hieras_hop_pdf b.hieras_hop_pdf;
    lower_hop_pdf = Histogram.merge a.lower_hop_pdf b.lower_hop_pdf;
    chord_latency_hist = Histogram.merge a.chord_latency_hist b.chord_latency_hist;
    hieras_latency_hist = Histogram.merge a.hieras_latency_hist b.hieras_latency_hist;
    hops_per_layer = Array.mapi (fun k v -> v +. b.hops_per_layer.(k)) a.hops_per_layer;
    latency_per_layer =
      Array.mapi (fun k v -> v +. b.latency_per_layer.(k)) a.latency_per_layer;
  }

let measure_one ~trace env hnet m { Workload.Requests.origin; key } =
  let rc = Chord.Lookup.route ~trace env.chord env.lat ~origin ~key in
  let rh = Hieras.Hlookup.route ~trace hnet ~origin ~key in
  if rc.Chord.Lookup.destination <> rh.Hieras.Hlookup.destination then
    failwith "Runner.measure: HIERAS and Chord disagree on a key's owner";
  Summary.add m.chord_hops (float_of_int rc.Chord.Lookup.hop_count);
  Summary.add m.chord_latency rc.Chord.Lookup.latency;
  Summary.add m.hieras_hops (float_of_int rh.Hieras.Hlookup.hop_count);
  Summary.add m.hieras_latency rh.Hieras.Hlookup.latency;
  let low_h = ref 0 and low_l = ref 0.0 in
  Array.iteri
    (fun k h ->
      m.hops_per_layer.(k) <- m.hops_per_layer.(k) +. float_of_int h;
      m.latency_per_layer.(k) <- m.latency_per_layer.(k) +. rh.Hieras.Hlookup.latency_per_layer.(k);
      if k > 0 then begin
        low_h := !low_h + h;
        low_l := !low_l +. rh.Hieras.Hlookup.latency_per_layer.(k)
      end)
    rh.Hieras.Hlookup.hops_per_layer;
  Summary.add m.lower_hops (float_of_int !low_h);
  Summary.add m.lower_latency !low_l;
  Summary.add m.top_hops (float_of_int rh.Hieras.Hlookup.hops_per_layer.(0));
  Summary.add m.top_latency rh.Hieras.Hlookup.latency_per_layer.(0);
  Histogram.add m.chord_hop_pdf (float_of_int rc.Chord.Lookup.hop_count);
  Histogram.add m.hieras_hop_pdf (float_of_int rh.Hieras.Hlookup.hop_count);
  Histogram.add m.lower_hop_pdf (float_of_int !low_h);
  Histogram.add m.chord_latency_hist rc.Chord.Lookup.latency;
  Histogram.add m.hieras_latency_hist rh.Hieras.Hlookup.latency

(* Registry export happens on the calling domain from the already-merged
   accumulators, never from workers — the snapshot is therefore bit-identical
   for any pool width, which test_parallel.ml pins down. *)
let export_registry reg m =
  let open Obs.Metrics in
  let c name v = set_counter (counter reg name) v in
  let g name v = set (gauge reg name) v in
  c "runner.requests" (Summary.count m.chord_hops);
  g "runner.chord.hops_mean" (Summary.mean m.chord_hops);
  g "runner.chord.hops_max" (Summary.max_value m.chord_hops);
  g "runner.chord.latency_mean_ms" (Summary.mean m.chord_latency);
  g "runner.chord.latency_max_ms" (Summary.max_value m.chord_latency);
  g "runner.hieras.hops_mean" (Summary.mean m.hieras_hops);
  g "runner.hieras.hops_max" (Summary.max_value m.hieras_hops);
  g "runner.hieras.latency_mean_ms" (Summary.mean m.hieras_latency);
  g "runner.hieras.latency_max_ms" (Summary.max_value m.hieras_latency);
  g "runner.hieras.lower_hop_share" (Summary.mean m.lower_hops /. Summary.mean m.hieras_hops);
  g "runner.hieras.lower_latency_share"
    (Summary.mean m.lower_latency /. Summary.mean m.hieras_latency);
  Array.iteri
    (fun k v -> g (Printf.sprintf "runner.hieras.layer%d.hops_mean" (k + 1)) v)
    m.hops_per_layer;
  Array.iteri
    (fun k v -> g (Printf.sprintf "runner.hieras.layer%d.latency_mean_ms" (k + 1)) v)
    m.latency_per_layer

let requests ?(timer = Obs.Timer.disabled) cfg =
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 104729) in
  Obs.Timer.span timer "gen-requests" (fun () ->
      Workload.Requests.to_array
        (Workload.Requests.paper_default ~count:cfg.Config.requests)
        ~nodes:cfg.Config.nodes ~space rng)

(* Requests per accumulation chunk. Fixed — never derived from the pool
   width — so the chunk layout, and therefore every floating-point reduction
   order, is identical for any --jobs value. *)
let chunk_size = 4096

let replay ?(pool = Pool.sequential) ?(trace = Obs.Trace.disabled) requests ~fresh ~merge visit =
  (* tracers are single-domain objects: a traced replay stays on the calling
     domain, over the same chunk layout *)
  let pool = if Obs.Trace.enabled trace then Pool.sequential else pool in
  Pool.map_chunks pool ~n:(Array.length requests) ~chunk_size (fun ~lo ~hi ->
      let acc = fresh () in
      for i = lo to hi - 1 do
        visit acc requests.(i)
      done;
      acc)
  |> List.fold_left merge (fresh ())

let measure ?pool ?registry ?(trace = Obs.Trace.disabled) ?(timer = Obs.Timer.disabled) env hnet
    cfg =
  let depth = Hieras.Hnetwork.depth hnet in
  let requests = requests ~timer cfg in
  let m =
    Obs.Timer.span timer "lookup-replay" (fun () ->
        replay ?pool ~trace requests
          ~fresh:(fun () -> fresh_metrics cfg ~depth)
          ~merge:merge_metrics
          (measure_one ~trace env hnet))
  in
  let req = float_of_int (max cfg.Config.requests 1) in
  Array.iteri (fun k v -> m.hops_per_layer.(k) <- v /. req) (Array.copy m.hops_per_layer);
  Array.iteri (fun k v -> m.latency_per_layer.(k) <- v /. req) (Array.copy m.latency_per_layer);
  Option.iter
    (fun reg ->
      export_registry reg m;
      (* packed-network footprint rides along with every measured run so
         memory regressions surface in the same registry as hop counts *)
      let g name v = Obs.Metrics.set (Obs.Metrics.gauge reg name) v in
      g "runner.chord.bytes_resident" (float_of_int (Chord.Network.bytes_resident env.chord));
      g "runner.hieras.bytes_resident" (float_of_int (Hieras.Hnetwork.bytes_resident hnet)))
    registry;
  m

let run ?pool ?registry ?trace ?timer cfg =
  let env = build_env ?pool ?timer cfg in
  let hnet = build_hieras ?timer env cfg in
  measure ?pool ?registry ?trace ?timer env hnet cfg

let latency_ratio m = Summary.mean m.hieras_latency /. Summary.mean m.chord_latency
let hop_overhead m = (Summary.mean m.hieras_hops /. Summary.mean m.chord_hops) -. 1.0
let lower_hop_share m = Summary.mean m.lower_hops /. Summary.mean m.hieras_hops
let lower_latency_share m = Summary.mean m.lower_latency /. Summary.mean m.hieras_latency

let mean_link_latency_lower m =
  let h = Summary.mean m.lower_hops in
  if h = 0.0 then 0.0 else Summary.mean m.lower_latency /. h

let mean_link_latency_top m =
  let h = Summary.mean m.top_hops in
  if h = 0.0 then 0.0 else Summary.mean m.top_latency /. h
