module Summary = Stats.Summary
module Table = Stats.Text_table

let space = Hashid.Id.sha1_space
let f2 x = Printf.sprintf "%.2f" x
let ms x = Printf.sprintf "%.1f" x

(* ------------------------------------------------------------------ *)
(* Routing algorithms side by side                                     *)
(* ------------------------------------------------------------------ *)

let algorithms ?pool cfg =
  let env = Runner.build_env ?pool cfg in
  let lat = Runner.latency_oracle env in
  let chord = Runner.chord_network env in
  let n = Chord.Network.size chord in
  let hosts = Array.init n (fun i -> i) in
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 7919) in
  let landmarks = Binning.Landmark.choose_spread lat ~count:cfg.Config.landmarks rng in
  let rc = Chord.Routable.make ~net:chord ~lat in
  let hieras depth = Tournament.LChord.build ~base:rc ~lat ~landmarks ~depth () in
  let pastry = Pastry.Network.build ~space ~hosts ~lat ~rng in
  let tapestry = Tapestry.Network.build ~space ~hosts ~lat in
  let can = Can.Routable.make ~net:(Can.Network.build ~space ~hosts ()) ~lat in
  let rows =
    [
      ("Chord", Tournament.C ((module Chord.Routable), rc));
      ("HIERAS (2-layer, Chord)", Tournament.C ((module Tournament.LChord), hieras 2));
      ("HIERAS (3-layer, Chord)", Tournament.C ((module Tournament.LChord), hieras 3));
      ("Pastry (PNS)", Tournament.C ((module Pastry.Routable), Pastry.Routable.make pastry));
      ( "Tapestry (PNS, surrogate roots)",
        Tournament.C ((module Tapestry.Routable), Tapestry.Routable.make tapestry) );
      ("CAN (flat, d=2)", Tournament.C ((module Can.Routable), can));
      ( "HIERAS over CAN (2-layer)",
        Tournament.C
          ((module Tournament.LCan), Tournament.LCan.build ~base:can ~lat ~landmarks ~depth:2 ()) );
    ]
  in
  let stats = List.map (fun _ -> (Summary.create (), Summary.create ())) rows in
  Array.iter
    (fun { Workload.Requests.origin; key } ->
      List.iter2
        (fun (_, Tournament.C ((module X), t)) (hops, latency) ->
          let r = X.route t ~origin ~key in
          Summary.add hops (float_of_int r.Routing.hop_count);
          Summary.add latency r.Routing.latency)
        rows stats)
    (Runner.requests (Config.with_requests cfg (max 100 (cfg.Config.requests / 4))));
  let table = Table.create [ "Algorithm"; "Mean hops"; "Mean ms"; "vs Chord" ] in
  let chord_lat = Summary.mean (snd (List.hd stats)) in
  List.iter2
    (fun (name, _) (hops, latency) ->
      Table.add_row table
        [
          name;
          f2 (Summary.mean hops);
          ms (Summary.mean latency);
          Expected.pct (Summary.mean latency /. chord_lat);
        ])
    rows stats;
  {
    Report.id = "ext-algorithms";
    title =
      Printf.sprintf "Routing algorithms compared (%s model)" (Topology.Model.name cfg.Config.model);
    table;
    notes =
      [
        "Pastry and Tapestry here use oracle-quality proximity neighbor selection \
         (nearest of 16 sampled candidates per hop) — an upper bound on what their \
         heuristics achieve; the paper's future work names both comparisons.";
        "CAN ratios are computed against Chord's latency; flat CAN takes O(n^(1/2)) hops, \
         so the hierarchy helps it even more than it helps Chord (paper §3.2's sketch).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Landmark strategy / measurement-noise ablation                      *)
(* ------------------------------------------------------------------ *)

let landmark_ablation ?pool cfg =
  let env = Runner.build_env ?pool cfg in
  let lat = Runner.latency_oracle env in
  let chord = Runner.chord_network env in
  let table = Table.create [ "Landmark selection"; "Measurement"; "Rings"; "HIERAS/Chord" ] in
  let requests = Runner.requests (Config.with_requests cfg (max 100 (cfg.Config.requests / 5))) in
  let run name landmarks measure =
    let hnet = Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth:2 ?measure () in
    let sl = Summary.create () and cl = Summary.create () in
    Array.iter
      (fun { Workload.Requests.origin; key } ->
        let rc = Chord.Lookup.route chord lat ~origin ~key in
        let rh = Hieras.Hlookup.route hnet ~origin ~key in
        Summary.add cl rc.Chord.Lookup.latency;
        Summary.add sl rh.Hieras.Hlookup.latency)
      requests;
    Table.add_row table
      [
        fst name;
        snd name;
        string_of_int (Hieras.Hnetwork.ring_count hnet ~layer:2);
        Expected.pct (Summary.mean sl /. Summary.mean cl);
      ]
  in
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 7919) in
  let spread = Binning.Landmark.choose_spread lat ~count:cfg.Config.landmarks rng in
  let random = Binning.Landmark.choose_random lat ~count:cfg.Config.landmarks rng in
  run ("spread (farthest-point)", "exact") spread None;
  run ("uniform random", "exact") random None;
  let jitter_rng = Prng.Rng.create ~seed:(cfg.Config.seed + 31) in
  run
    ("spread (farthest-point)", "ping with 20% jitter")
    spread
    (Some
       (fun ~host ->
         Binning.Landmark.measure_jittered lat spread ~host ~rng:jitter_rng ~spread:0.2));
  {
    Report.id = "ext-landmarks";
    title = "Ablation: landmark placement and measurement noise";
    table;
    notes =
      [
        "The paper assumes 'well-known machines spread across the Internet' and notes ping \
         inaccuracy is tolerable (§2.2); this quantifies both claims on our substrate.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Cost-model ablation across hierarchy depths                         *)
(* ------------------------------------------------------------------ *)

let cost_ablation ?pool cfg =
  let env = Runner.build_env ?pool cfg in
  let lat = Runner.latency_oracle env in
  let chord = Runner.chord_network env in
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 7919) in
  let landmarks = Binning.Landmark.choose_spread lat ~count:cfg.Config.landmarks rng in
  let table =
    Table.create
      [
        "Depth";
        "State B/node";
        "vs Chord";
        "Ring tables";
        "Stabilize link ms by layer";
      ]
  in
  List.iter
    (fun depth ->
      let hnet = Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth () in
      let totals = Hieras.Cost.totals hnet ~succ_list_len:Config.succ_list_len in
      Table.add_row table
        [
          string_of_int depth;
          Printf.sprintf "%.0f" totals.Hieras.Cost.mean_state_bytes;
          Printf.sprintf "x%.2f" totals.Hieras.Cost.state_overhead_ratio;
          string_of_int totals.Hieras.Cost.ring_tables;
          String.concat " / "
            (Array.to_list
               (Array.map (Printf.sprintf "%.0f")
                  totals.Hieras.Cost.mean_stabilize_link_latency_per_layer));
        ])
    [ 2; 3; 4 ];
  {
    Report.id = "ext-cost";
    title = "Ablation: HIERAS state and maintenance overhead by hierarchy depth";
    table;
    notes =
      [
        "The paper's §3.4 claims multi-layer tables cost 'hundreds or thousands of bytes' \
         and that lower-layer maintenance is cheap because those peers are close; both \
         claims are quantified here (stabilize link = mean node-to-ring-successor delay).";
      ];
  }

let all ?pool cfg =
  [ algorithms ?pool cfg; landmark_ablation ?pool cfg; cost_ablation ?pool cfg ]
