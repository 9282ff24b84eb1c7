module Summary = Stats.Summary
module Histogram = Stats.Histogram
module Table = Stats.Text_table

type generator =
  ?pool:Parallel.Pool.t ->
  ?registry:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?timer:Obs.Timer.t ->
  Config.t ->
  Report.section list

let f3 x = Printf.sprintf "%.3f" x
let f4 x = Printf.sprintf "%.4f" x
let ms x = Printf.sprintf "%.1f" x

(* ----------------------------------------------------------------- *)
(* Table 1: landmark orders of sample nodes                           *)
(* ----------------------------------------------------------------- *)

let table1 ?pool ?registry:_ ?trace:_ ?timer cfg =
  let cfg = { cfg with Config.nodes = Config.table1_nodes cfg } in
  let env = Runner.build_env ?pool ?timer cfg in
  let lat = Runner.latency_oracle env in
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 7919) in
  let landmarks = Binning.Landmark.choose_spread lat ~count:cfg.Config.landmarks rng in
  let lm_count = Binning.Landmark.count landmarks in
  let headers =
    "Node" :: List.init lm_count (fun i -> Printf.sprintf "Dist-L%d" (i + 1)) @ [ "Order" ]
  in
  let table = Table.create headers in
  let sample = Prng.Dist.sample_without_replacement rng 6 cfg.Config.nodes in
  Array.iteri
    (fun row host ->
      let dists = Binning.Landmark.measure lat landmarks ~host in
      let order = Binning.Scheme.order Binning.Scheme.paper_thresholds dists in
      let cells =
        Printf.sprintf "%c" (Char.chr (Char.code 'A' + row))
        :: (Array.to_list dists |> List.map (fun d -> Printf.sprintf "%.0fms" d))
        @ [ order ]
      in
      Table.add_row table cells)
    sample;
  {
    Report.id = "table1";
    title =
      Printf.sprintf "Sample nodes in a two-layer HIERAS system with %d landmark nodes" lm_count;
    table;
    notes =
      [
        "Levels as in the paper: 0 for [0,20)ms, 1 for [20,100)ms, 2 for >=100ms.";
        "Nodes sharing an order string join the same layer-2 ring.";
      ];
  }

(* ----------------------------------------------------------------- *)
(* Table 2: two-layer finger tables of one node, 8-bit space          *)
(* ----------------------------------------------------------------- *)

let table2_nodes = 24

let table2 ?pool ?registry:_ ?trace:_ ?timer:_ cfg =
  let space = Hashid.Id.space ~bits:8 in
  let nodes = table2_nodes in
  let rng = Prng.Rng.create ~seed:(cfg.Config.seed + 31) in
  let lat = Topology.Transit_stub.generate ?pool ~hosts:nodes rng in
  let hosts = Array.init nodes (fun i -> i) in
  let chord = Chord.Network.build ~space ~hosts ~salt:"table2" () in
  let landmarks = Binning.Landmark.choose_spread lat ~count:3 rng in
  let hnet = Hieras.Hnetwork.build ~chord ~lat ~landmarks ~depth:2 () in
  (* show the node with the most interesting (largest) layer-2 ring *)
  let node =
    let best = ref 0 and best_size = ref 0 in
    for i = 0 to nodes - 1 do
      let s = Hieras.Hnetwork.ring_size_of_node hnet ~layer:2 i in
      if s > !best_size then begin
        best := i;
        best_size := s
      end
    done;
    !best
  in
  let id_int i = Hashid.Id.to_int space (Chord.Network.id chord i) in
  let ring_of i = Hieras.Hnetwork.order_of_node hnet ~layer:2 i in
  let table = Table.create [ "Start"; "Interval"; "Layer-1 successor"; "Layer-2 successor" ] in
  let l1 = Hieras.Hnetwork.finger_table hnet ~layer:1 node in
  let l2 = Hieras.Hnetwork.finger_table hnet ~layer:2 node in
  let nid = Chord.Network.id chord node in
  for i = 0 to Hashid.Id.bits space - 1 do
    let start = Hashid.Id.to_int space (Hashid.Id.add_pow2 space nid i) in
    let next =
      if i = Hashid.Id.bits space - 1 then Hashid.Id.to_int space nid
      else Hashid.Id.to_int space (Hashid.Id.add_pow2 space nid (i + 1))
    in
    let s1 = Chord.Finger_table.finger l1 i and s2 = Chord.Finger_table.finger l2 i in
    Table.add_row table
      [
        string_of_int start;
        Printf.sprintf "[%d,%d)" start next;
        Printf.sprintf "%d (\"%s\")" (id_int s1) (ring_of s1);
        Printf.sprintf "%d (\"%s\")" (id_int s2) (ring_of s2);
      ]
  done;
  {
    Report.id = "table2";
    title =
      Printf.sprintf "Node %d (\"%s\")'s finger tables in a two-layer HIERAS system (8-bit space)"
        (id_int node) (ring_of node);
    table;
    notes =
      [
        "Layer-1 successors may be any peer; layer-2 successors are restricted to the node's ring.";
        "As in the paper's Table 2, consecutive fingers often repeat: the implementation stores them run-length deduplicated.";
      ];
  }

(* ----------------------------------------------------------------- *)
(* Figures 2 and 3: size sweep per model                              *)
(* ----------------------------------------------------------------- *)

(* scaled-down runs can fall below a model's hard minimum (Inet refuses
   fewer than 3000 hosts, as the original tool does) *)
let sweep_sizes cfg =
  List.filter (fun n -> n >= Topology.Model.min_hosts cfg.Config.model) (Config.network_sizes cfg)

(* Average hops (Fig 2) and average latency with the HIERAS/Chord ratio
   (Fig 3) at each network size. *)
let fig2_and_fig3 ?pool ?registry ?trace ?timer cfg =
  let hops_table = Table.create [ "Model"; "Nodes"; "Chord hops"; "HIERAS hops"; "Overhead" ] in
  let lat_table =
    Table.create [ "Model"; "Nodes"; "Chord ms"; "HIERAS ms"; "HIERAS/Chord" ]
  in
  let first_last : (Topology.Model.kind * float * float) list ref = ref [] in
  let overheads = ref [] in
  let ratios = ref [] in
  List.iter
    (fun model ->
      let cfg = Config.with_model cfg model in
      let sizes = sweep_sizes cfg in
      let per_model = ref [] in
      List.iter
        (fun n ->
          let cfg = Config.with_nodes cfg n in
          let m = Runner.run ?pool ?registry ?trace ?timer cfg in
          let ch = Summary.mean m.Runner.chord_hops and hh = Summary.mean m.Runner.hieras_hops in
          let cl = Summary.mean m.Runner.chord_latency
          and hl = Summary.mean m.Runner.hieras_latency in
          Table.add_row hops_table
            [
              Topology.Model.name model;
              string_of_int n;
              f3 ch;
              f3 hh;
              Expected.pct (Runner.hop_overhead m);
            ];
          Table.add_row lat_table
            [
              Topology.Model.name model;
              string_of_int n;
              ms cl;
              ms hl;
              Expected.pct (Runner.latency_ratio m);
            ];
          overheads := Runner.hop_overhead m :: !overheads;
          ratios := (model, Runner.latency_ratio m) :: !ratios;
          per_model := (n, ch) :: !per_model)
        sizes;
      match (List.rev !per_model, !per_model) with
      | (_, first) :: _, (_, last) :: _ -> first_last := (model, first, last) :: !first_last
      | _ -> ())
    Topology.Model.all;
  let lo, hi = Expected.fig2_hop_overhead_range in
  let measured_lo = List.fold_left Float.min infinity !overheads in
  let measured_hi = List.fold_left Float.max neg_infinity !overheads in
  let growth_notes =
    List.rev_map
      (fun (model, first, last) ->
        Printf.sprintf "%s: hops grow %s from smallest to largest network (paper: ~%s)."
          (Topology.Model.name model)
          (Expected.pct ((last /. first) -. 1.0))
          (Expected.pct Expected.fig2_hop_growth_1000_to_10000))
      !first_last
  in
  let fig2 =
    {
      Report.id = "fig2";
      title = "HIERAS and Chord routing performance comparison (routing hops)";
      table = hops_table;
      notes =
        Printf.sprintf "Measured hop overhead across runs: %s .. %s (paper: %s .. %s)."
          (Expected.pct measured_lo) (Expected.pct measured_hi) (Expected.pct lo)
          (Expected.pct hi)
        :: growth_notes;
    }
  in
  let ratio_note model =
    let rs = List.filter_map (fun (m, r) -> if m = model then Some r else None) !ratios in
    if rs = [] then None
    else
      let mean = List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs) in
      Some
        (Printf.sprintf "%s: mean HIERAS/Chord latency ratio %s (paper: %s)."
           (Topology.Model.name model) (Expected.pct mean)
           (Expected.pct (Expected.fig3_latency_ratio model)))
  in
  let fig3 =
    {
      Report.id = "fig3";
      title = "HIERAS and Chord routing performance comparison (average latency)";
      table = lat_table;
      notes = List.filter_map ratio_note Topology.Model.all;
    }
  in
  (fig2, fig3)

(* ----------------------------------------------------------------- *)
(* Figures 4 and 5: hop PDF and latency CDF                           *)
(* ----------------------------------------------------------------- *)

let fig4_and_fig5 ?pool ?registry ?trace ?timer cfg =
  let m = Runner.run ?pool ?registry ?trace ?timer cfg in
  let pdf_c = Histogram.pdf m.Runner.chord_hop_pdf in
  let pdf_h = Histogram.pdf m.Runner.hieras_hop_pdf in
  let pdf_l = Histogram.pdf m.Runner.lower_hop_pdf in
  let pdf_table = Table.create [ "Hops"; "Chord PDF"; "HIERAS PDF"; "HIERAS lower-layer PDF" ] in
  let max_bin =
    let last = ref 0 in
    Array.iteri (fun i v -> if v > 0.0001 || pdf_h.(i) > 0.0001 then last := i) pdf_c;
    !last
  in
  for i = 0 to max_bin do
    Table.add_row pdf_table [ string_of_int i; f4 pdf_c.(i); f4 pdf_h.(i); f4 pdf_l.(i) ]
  done;
  let fig4 =
    {
      Report.id = "fig4";
      title = "PDF distribution of the number of routing hops";
      table = pdf_table;
      notes =
        [
          Printf.sprintf "Mean hops: Chord %s (paper %.4f), HIERAS %s (paper %.4f), overhead %s (paper %s)."
            (f4 (Summary.mean m.Runner.chord_hops))
            Expected.fig4_chord_mean_hops
            (f4 (Summary.mean m.Runner.hieras_hops))
            Expected.fig4_hieras_mean_hops
            (Expected.pct (Runner.hop_overhead m))
            (Expected.pct Expected.fig4_hop_overhead);
          Printf.sprintf "Top-layer hops per request: %s (paper %.3f); lower-layer hop share %s (paper %s)."
            (f3 (Summary.mean m.Runner.top_hops))
            Expected.fig4_top_layer_hops
            (Expected.pct (Runner.lower_hop_share m))
            (Expected.pct Expected.fig4_lower_hop_share);
        ];
    }
  in
  let cdf_c = Histogram.cdf m.Runner.chord_latency_hist in
  let cdf_h = Histogram.cdf m.Runner.hieras_latency_hist in
  let cdf_table = Table.create [ "Latency (ms)"; "Chord CDF"; "HIERAS CDF" ] in
  let bins = Histogram.bin_count m.Runner.chord_latency_hist in
  let step = max 1 (bins / 25) in
  let i = ref 0 in
  while !i < bins do
    let lo = Histogram.bin_lo m.Runner.chord_latency_hist !i in
    Table.add_row cdf_table [ ms lo; f4 cdf_c.(!i); f4 cdf_h.(!i) ];
    i := !i + step
  done;
  let fig5 =
    {
      Report.id = "fig5";
      title = "CDF distribution of the routing latency";
      table = cdf_table;
      notes =
        [
          Printf.sprintf
            "Mean latency: Chord %s ms (paper %.2f), HIERAS %s ms (paper %.2f), ratio %s (paper %s)."
            (ms (Summary.mean m.Runner.chord_latency))
            Expected.fig5_chord_mean_latency
            (ms (Summary.mean m.Runner.hieras_latency))
            Expected.fig5_hieras_mean_latency
            (Expected.pct (Runner.latency_ratio m))
            (Expected.pct Expected.fig5_latency_ratio);
          Printf.sprintf
            "Mean link delay: top layer %s ms (paper %.0f), lower layers %s ms (paper %.3f), lower/top %s (paper 35.23%%)."
            (ms (Runner.mean_link_latency_top m))
            Expected.fig5_top_link_latency
            (ms (Runner.mean_link_latency_lower m))
            Expected.fig5_lower_link_latency
            (Expected.pct (Runner.mean_link_latency_lower m /. Runner.mean_link_latency_top m));
          Printf.sprintf "Lower-layer latency share: %s (paper %s)."
            (Expected.pct (Runner.lower_latency_share m))
            (Expected.pct Expected.fig5_lower_latency_share);
        ];
    }
  in
  (fig4, fig5)

(* ----------------------------------------------------------------- *)
(* Figures 6 and 7: landmark sweep                                    *)
(* ----------------------------------------------------------------- *)

(* Landmark counts 2..12: hops (Fig 6) and latency (Fig 7). *)
let fig6_and_fig7 ?pool ?registry ?trace ?timer cfg =
  let model = Topology.Model.name cfg.Config.model in
  let env = Runner.build_env ?pool ?timer cfg in
  let hops_table =
    Table.create [ "Landmarks"; "Chord hops"; "HIERAS hops"; "Lower-layer hops"; "Overhead" ]
  in
  let lat_table =
    Table.create [ "Landmarks"; "Chord ms"; "HIERAS ms"; "HIERAS/Chord" ]
  in
  let best = ref (0, infinity) in
  let two_lm = ref None in
  List.iter
    (fun lm ->
      let cfg = Config.with_landmarks cfg lm in
      let hnet = Runner.build_hieras ?timer env cfg in
      let m = Runner.measure ?pool ?registry ?trace ?timer env hnet cfg in
      Table.add_row hops_table
        [
          string_of_int lm;
          f3 (Summary.mean m.Runner.chord_hops);
          f3 (Summary.mean m.Runner.hieras_hops);
          f3 (Summary.mean m.Runner.lower_hops);
          Expected.pct (Runner.hop_overhead m);
        ];
      let ratio = Runner.latency_ratio m in
      Table.add_row lat_table
        [
          string_of_int lm;
          ms (Summary.mean m.Runner.chord_latency);
          ms (Summary.mean m.Runner.hieras_latency);
          Expected.pct ratio;
        ];
      if ratio < snd !best then best := (lm, ratio);
      if lm = 2 then two_lm := Some ratio)
    [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ];
  let fig6 =
    {
      Report.id = "fig6";
      title =
        Printf.sprintf "Average number of routing hops vs. number of landmark nodes (%s model)"
          model;
      table = hops_table;
      notes =
        [
          "Paper: hop count changes little with landmark count; lower-layer hops shrink as rings multiply.";
        ];
    }
  in
  let fig7 =
    {
      Report.id = "fig7";
      title =
        Printf.sprintf "Average routing latency vs. number of landmark nodes (%s model)" model;
      table = lat_table;
      notes =
        [
          (match !two_lm with
          | Some r ->
              Printf.sprintf "2 landmarks: HIERAS %s below Chord (paper: only %s below)."
                (Expected.pct (1.0 -. r))
                (Expected.pct Expected.fig7_two_landmark_gain)
          | None -> "2-landmark configuration not measured.");
          Printf.sprintf "Best configuration: %d landmarks at ratio %s (paper: %d landmarks, %s)."
            (fst !best) (Expected.pct (snd !best)) Expected.fig7_best_landmarks
            (Expected.pct Expected.fig7_best_latency_ratio);
        ];
    }
  in
  (fig6, fig7)

(* ----------------------------------------------------------------- *)
(* Figures 8 and 9: hierarchy depth sweep                             *)
(* ----------------------------------------------------------------- *)

(* the paper's 5000..10000 sweep, scaled like [Config.network_sizes] *)
let depth_sweep_sizes cfg =
  let scale = float_of_int cfg.Config.nodes /. 10_000.0 in
  List.init 6 (fun i -> (i + 5) * 1000)
  |> List.map (fun n -> max 64 (int_of_float (float_of_int n *. scale)))

(* Depths 2..4 over sizes 5000..10000 with 6 landmarks: hops (Fig 8) and
   latency (Fig 9). *)
let fig8_and_fig9 ?pool ?registry ?trace ?timer cfg =
  let model = Topology.Model.name cfg.Config.model in
  let cfg = Config.with_landmarks cfg 6 in
  let sizes = depth_sweep_sizes cfg in
  let hops_table = Table.create [ "Nodes"; "depth 2"; "depth 3"; "depth 4"; "4 vs 2" ] in
  let lat_table =
    Table.create [ "Nodes"; "depth 2 ms"; "depth 3 ms"; "depth 4 ms"; "3 vs 2"; "4 vs 3" ]
  in
  List.iter
    (fun n ->
      let cfg = Config.with_nodes cfg n in
      let env = Runner.build_env ?pool ?timer cfg in
      let results =
        List.map
          (fun depth ->
            let cfg = Config.with_depth cfg depth in
            let hnet = Runner.build_hieras ?timer env cfg in
            Runner.measure ?pool ?registry ?trace ?timer env hnet cfg)
          [ 2; 3; 4 ]
      in
      match results with
      | [ d2; d3; d4 ] ->
          let h2 = Summary.mean d2.Runner.hieras_hops
          and h3 = Summary.mean d3.Runner.hieras_hops
          and h4 = Summary.mean d4.Runner.hieras_hops in
          let l2 = Summary.mean d2.Runner.hieras_latency
          and l3 = Summary.mean d3.Runner.hieras_latency
          and l4 = Summary.mean d4.Runner.hieras_latency in
          Table.add_row hops_table
            [
              string_of_int n;
              f3 h2;
              f3 h3;
              f3 h4;
              Expected.pct ((h4 /. h2) -. 1.0);
            ];
          Table.add_row lat_table
            [
              string_of_int n;
              ms l2;
              ms l3;
              ms l4;
              Expected.pct (1.0 -. (l3 /. l2));
              Expected.pct (1.0 -. (l4 /. l3));
            ]
      | _ -> assert false)
    sizes;
  let lo8, hi8 = Expected.fig8_depth_hop_overhead_range in
  let lo9, hi9 = Expected.fig9_depth3_gain_range in
  let lo9', hi9' = Expected.fig9_depth4_gain_range in
  let fig8 =
    {
      Report.id = "fig8";
      title =
        Printf.sprintf "HIERAS performance with different hierarchy depth (average hops, %s model)"
          model;
      table = hops_table;
      notes =
        [
          Printf.sprintf "Paper: 4-layer hops exceed 2-layer by %s .. %s." (Expected.pct lo8)
            (Expected.pct hi8);
        ];
    }
  in
  let fig9 =
    {
      Report.id = "fig9";
      title =
        Printf.sprintf
          "HIERAS performance with different hierarchy depth (average latency, %s model)" model;
      table = lat_table;
      notes =
        [
          Printf.sprintf "Paper: 2->3 layers cuts latency by %s .. %s; 3->4 by %s .. %s."
            (Expected.pct lo9) (Expected.pct hi9) (Expected.pct lo9') (Expected.pct hi9');
          "Our nested-refinement binning yields smaller depth gains than the paper's \
           (unspecified) deep-ring construction; the qualitative conclusion — depth 2-3 \
           suffices, deeper layers add little — is unchanged (see EXPERIMENTS.md).";
        ];
    }
  in
  (fig8, fig9)

(* ----------------------------------------------------------------- *)

(* Each table/figure runs under a span named by its id, so a profiled `all`
   shows where the suite's time goes before descending into Runner phases. *)
let all ?pool ?registry ?trace ?timer cfg =
  let sp id f = Obs.Timer.span (Option.value timer ~default:Obs.Timer.disabled) id f in
  let t1 = sp "table1" (fun () -> table1 ?pool ?registry ?trace ?timer cfg) in
  let t2 = sp "table2" (fun () -> table2 ?pool ?registry ?trace ?timer cfg) in
  let f2, f3 = sp "fig2+3" (fun () -> fig2_and_fig3 ?pool ?registry ?trace ?timer cfg) in
  let f4, f5 = sp "fig4+5" (fun () -> fig4_and_fig5 ?pool ?registry ?trace ?timer cfg) in
  let f6, f7 = sp "fig6+7" (fun () -> fig6_and_fig7 ?pool ?registry ?trace ?timer cfg) in
  let f8, f9 = sp "fig8+9" (fun () -> fig8_and_fig9 ?pool ?registry ?trace ?timer cfg) in
  [ t1; t2; f2; f3; f4; f5; f6; f7; f8; f9 ]

let networks id cfg =
  let net ?(own_landmarks = false) kind hosts = { Config.kind; hosts; own_landmarks } in
  let model = cfg.Config.model in
  match id with
  | "table1" -> [ net model (Config.table1_nodes cfg) ]
  | "table2" -> [ net ~own_landmarks:true Topology.Model.Transit_stub table2_nodes ]
  | "fig2" | "fig3" ->
      List.concat_map
        (fun m -> List.map (net m) (sweep_sizes (Config.with_model cfg m)))
        Topology.Model.all
  | "fig4" | "fig5" -> [ net model cfg.Config.nodes ]
  | "fig6" | "fig7" -> [ net ~own_landmarks:true model cfg.Config.nodes ]
  | "fig8" | "fig9" -> List.map (net ~own_landmarks:true model) (depth_sweep_sizes cfg)
  | _ -> []

let ids =
  [ "table1"; "table2"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9" ]

let by_id = function
  | "table1" -> Some (fun ?pool ?registry ?trace ?timer cfg -> [ table1 ?pool ?registry ?trace ?timer cfg ])
  | "table2" -> Some (fun ?pool ?registry ?trace ?timer cfg -> [ table2 ?pool ?registry ?trace ?timer cfg ])
  | "fig2" | "fig3" ->
      Some
        (fun ?pool ?registry ?trace ?timer cfg ->
          let a, b = fig2_and_fig3 ?pool ?registry ?trace ?timer cfg in
          [ a; b ])
  | "fig4" | "fig5" ->
      Some
        (fun ?pool ?registry ?trace ?timer cfg ->
          let a, b = fig4_and_fig5 ?pool ?registry ?trace ?timer cfg in
          [ a; b ])
  | "fig6" | "fig7" ->
      Some
        (fun ?pool ?registry ?trace ?timer cfg ->
          let a, b = fig6_and_fig7 ?pool ?registry ?trace ?timer cfg in
          [ a; b ])
  | "fig8" | "fig9" ->
      Some
        (fun ?pool ?registry ?trace ?timer cfg ->
          let a, b = fig8_and_fig9 ?pool ?registry ?trace ?timer cfg in
          [ a; b ])
  | _ -> None
