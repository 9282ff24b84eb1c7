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
  let h2 = Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth:2 () in
  let h3 = Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth:3 () in
  let pastry = Pastry.Network.build ~space ~hosts ~lat ~rng () in
  let tapestry = Tapestry.Network.build ~space ~hosts ~lat ~rng () in
  let flat_can = Can.Network.build ~space ~hosts () in
  let lcan =
    Tournament.LCan.build ~base:(Can.Routable.make ~net:flat_can ~lat) ~lat ~landmarks ~depth:2 ()
  in
  let mk () = (Summary.create (), Summary.create ()) in
  let s_chord = mk () and s_pastry = mk () and s_tapestry = mk () in
  let s_h2 = mk () and s_h3 = mk () in
  let s_can = mk () and s_lcan = mk () in
  let add (sh, sl) hops latency =
    Summary.add sh (float_of_int hops);
    Summary.add sl latency
  in
  let rng2 = Prng.Rng.create ~seed:(cfg.Config.seed + 104729) in
  let requests = max 100 (cfg.Config.requests / 4) in
  for _ = 1 to requests do
    let key = Hashid.Id.random space rng2 in
    let origin = Prng.Rng.int rng2 n in
    let rc = Chord.Lookup.route chord lat ~origin ~key in
    add s_chord rc.Chord.Lookup.hop_count rc.Chord.Lookup.latency;
    let rp = Pastry.Route.route pastry ~origin ~key in
    add s_pastry rp.Pastry.Route.hop_count rp.Pastry.Route.latency;
    let rt = Tapestry.Network.route tapestry ~origin ~key in
    add s_tapestry rt.Tapestry.Network.hop_count rt.Tapestry.Network.latency;
    let r2 = Hieras.Hlookup.route h2 ~origin ~key in
    add s_h2 r2.Hieras.Hlookup.hop_count r2.Hieras.Hlookup.latency;
    let r3 = Hieras.Hlookup.route h3 ~origin ~key in
    add s_h3 r3.Hieras.Hlookup.hop_count r3.Hieras.Hlookup.latency;
    let rcan = Can.Route.route_key flat_can lat ~origin ~key in
    add s_can rcan.Can.Route.hop_count rcan.Can.Route.latency;
    let rl = Tournament.LCan.route lcan ~origin ~key in
    add s_lcan rl.Routing.hop_count rl.Routing.latency
  done;
  let table = Table.create [ "Algorithm"; "Mean hops"; "Mean ms"; "vs Chord" ] in
  let chord_lat = Summary.mean (snd s_chord) in
  let row name (sh, sl) =
    Table.add_row table
      [
        name;
        f2 (Summary.mean sh);
        ms (Summary.mean sl);
        Expected.pct (Summary.mean sl /. chord_lat);
      ]
  in
  row "Chord" s_chord;
  row "HIERAS (2-layer, Chord)" s_h2;
  row "HIERAS (3-layer, Chord)" s_h3;
  row "Pastry (PNS)" s_pastry;
  row "Tapestry (PNS, surrogate roots)" s_tapestry;
  row "CAN (flat, d=2)" s_can;
  row "HIERAS over CAN (2-layer)" s_lcan;
  {
    Report.id = "ext-algorithms";
    title = "Routing algorithms compared (TS model)";
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
  let n = Chord.Network.size chord in
  let table = Table.create [ "Landmark selection"; "Measurement"; "Rings"; "HIERAS/Chord" ] in
  let run name landmarks measure =
    let hnet = Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth:2 ?measure () in
    let sl = Summary.create () and cl = Summary.create () in
    let rng2 = Prng.Rng.create ~seed:(cfg.Config.seed + 104729) in
    let requests = max 100 (cfg.Config.requests / 5) in
    for _ = 1 to requests do
      let key = Hashid.Id.random space rng2 in
      let origin = Prng.Rng.int rng2 n in
      let rc = Chord.Lookup.route chord lat ~origin ~key in
      let rh = Hieras.Hlookup.route hnet ~origin ~key in
      Summary.add cl rc.Chord.Lookup.latency;
      Summary.add sl rh.Hieras.Hlookup.latency
    done;
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
      let totals = Hieras.Cost.totals hnet ~succ_list_len:cfg.Config.succ_list_len in
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
