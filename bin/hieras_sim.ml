(* hieras-sim: command-line driver for the HIERAS reproduction.

   Subcommands:
     figure   reproduce one table/figure of the paper
     all      reproduce every table and figure
     topology generate a topology and print its statistics
     cost     print the HIERAS state/maintenance cost model
     lookup   trace a single HIERAS lookup hop by hop
     trace    replay a request stream with structured JSONL tracing
     analyze  analyze a JSONL trace / compare two reports
     soak     long-horizon churn soak: maintenance bandwidth vs churn rate
     cache    replicated key-value store + web-cache scenario over the overlay
     scale    million-node packed-network run with analytic hop counts
     resilience  lookup success/stretch vs failed-node fraction
     tournament  every algorithm x flat/layered on one seeded matrix
     extensions  the beyond-the-paper comparisons: Pastry, CAN, ablations
     bench    every figure run with its wall time and GC words, the
              latency-oracle probe and the bechamel micro-benchmarks

   Exit codes: 0 success, 1 runtime failure (also: regressions found by
   `analyze compare`), 2 invalid command line. *)

open Cmdliner

let exit_err msg =
  prerr_endline ("hieras-sim: " ^ msg);
  exit 1

let exit_usage msg =
  prerr_endline ("hieras-sim: " ^ msg);
  exit 2

(* ---- shared options --------------------------------------------------- *)

let seed_t =
  Arg.(value & opt int 2003 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let nodes_t default =
  Arg.(value & opt int default & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of DHT nodes.")

let model_t =
  let parse s =
    match Topology.Model.of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown model %S (ts | inet | brite)" s))
  in
  let print fmt m = Format.pp_print_string fmt (Topology.Model.name m) in
  Arg.(
    value
    & opt (conv (parse, print)) Topology.Model.Transit_stub
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Topology model: ts, inet or brite.")

let scale_t =
  Arg.(
    value
    & opt float 1.0
    & info [ "scale" ] ~docv:"F"
        ~doc:"Scale factor on node and request counts (0.05 for a quick run).")

let landmarks_t = Arg.(value & opt int 4 & info [ "landmarks" ] ~docv:"L" ~doc:"Landmark count.")

let jobs_t =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Worker domains for the parallel pipeline (0 = all cores). Results \
           are bit-identical for any value.")

(* experiments are deterministic in the pool width, so --jobs only changes
   wall-clock time *)
let with_jobs jobs f =
  let jobs = if jobs <= 0 then Parallel.Pool.default_jobs () else jobs in
  Parallel.Pool.with_pool ~jobs f
let depth_t = Arg.(value & opt int 2 & info [ "depth" ] ~docv:"D" ~doc:"Hierarchy depth (2-4).")

let requests_t =
  Arg.(value & opt int 100_000 & info [ "requests" ] ~docv:"R" ~doc:"Routing requests per run.")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write structured per-lookup trace events (start/hop/end, one JSON \
           object per line) to $(docv). See DESIGN.md §8 for the schema.")

let metrics_t =
  Arg.(
    value
    & flag
    & info [ "metrics" ]
        ~doc:"Print a metrics-registry snapshot (one line per series) after the run.")

let print_metrics reg = print_string (Obs.Metrics.to_text (Obs.Metrics.snapshot reg))

type pool_metrics = { jobs : int; metrics : bool }

let pool_metrics_t = Term.(const (fun jobs metrics -> { jobs; metrics }) $ jobs_t $ metrics_t)

(* Run [f pool registry] on the --jobs pool; with --metrics, [f] fills the
   registry and the snapshot, pool counters included, prints afterwards. *)
let with_pool_metrics pm f =
  with_jobs pm.jobs (fun pool ->
      let registry = if pm.metrics then Some (Obs.Metrics.create ()) else None in
      let r = f pool registry in
      Option.iter
        (fun reg ->
          Parallel.Pool.export_metrics pool reg;
          print_newline ();
          print_metrics reg)
        registry;
      r)

(* Build a tracer over FILE (or the disabled tracer), run [f], and report how
   many events were written. *)
let with_trace_out ?(sample = 1.0) path f =
  match path with
  | None -> f Obs.Trace.disabled
  | Some file ->
      let oc = open_out file in
      let events = ref 0 in
      let tr =
        Obs.Trace.jsonl ~sample (fun line ->
            incr events;
            output_string oc line)
      in
      let r = Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f tr) in
      Printf.printf "wrote %d trace events to %s\n" !events file;
      r

let trace_sample_t =
  Arg.(
    value
    & opt float 1.0
    & info [ "trace-sample" ] ~docv:"R"
        ~doc:
          "With $(b,--trace-out): keep the events of a deterministic fraction \
           $(docv) of lookups (keyed on the lookup id, so the sampled stream \
           is a stable subset of the full trace — identical for any \
           $(b,--jobs)).")

let check_trace_sample r =
  if r < 0.0 || r > 1.0 then
    exit_usage (Printf.sprintf "--trace-sample must be in [0, 1] (got %g)" r)

(* ---- message-level (net) tracing --------------------------------------- *)

let net_trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "net-trace-out" ] ~docv:"FILE"
        ~doc:
          "Write message-level span events (one JSON object per line: every \
           engine send with its RPC kind, src/dst, timing and causal parent, \
           plus drop records; DESIGN.md §14) to $(docv). Analyze with \
           `hieras-sim analyze $(docv)`.")

let net_sample_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "net-sample" ] ~docv:"R"
        ~doc:
          "Sample rate for $(b,--net-trace-out): keep whole causal trees of a \
           deterministic fraction $(docv) of roots (default 1 — everything). \
           Sampling never orphans a parent, and the output is byte-identical \
           for any $(b,--jobs).")

(* Some (FILE, rate) when recording. --net-sample without --net-trace-out
   is a flag with no effect: reject it rather than silently ignore it. *)
let net_t =
  let check net_out net_sample =
    match (net_out, net_sample) with
    | None, Some _ -> exit_usage "--net-sample requires --net-trace-out"
    | _, Some r when r < 0.0 || r > 1.0 ->
        exit_usage (Printf.sprintf "--net-sample must be in [0, 1] (got %g)" r)
    | None, None -> None
    | Some file, r -> Some (file, Option.value ~default:1.0 r)
  in
  Term.(const check $ net_trace_out_t $ net_sample_t)

(* --out of the experiment subcommands: one JSON artifact of [schema] *)
let out_t ?(repeats = "byte-identical for any $(b,--jobs)") schema =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Write the results (schema %s, %s) as one JSON object to $(docv) — comparable \
              with `analyze compare`."
             schema repeats))

(* Write one JSON artifact, newline-terminated, and report it as [what]. *)
let write_json file ~what json =
  Out_channel.with_open_text file (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "wrote %s to %s\n" what file

let timings_t =
  Arg.(
    value
    & flag
    & info [ "timings" ]
        ~doc:"Print a hierarchical wall-clock phase profile after the run.")

let folded_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded" ] ~docv:"FILE"
        ~doc:
          "Write flamegraph-ready folded-stack lines (phase;subphase self-µs) \
           to $(docv). Implies the phase profiler is on.")

(* Run [f] under a wall-clock phase profiler when asked for; print the phase
   table / write the folded stacks afterwards. *)
let with_timer ~timings ~folded f =
  if (not timings) && folded = None then f Obs.Timer.disabled
  else begin
    let tm = Obs.Timer.create ~clock:Unix.gettimeofday in
    let r = f tm in
    if timings then begin
      print_newline ();
      print_string (Obs.Timer.to_text tm)
    end;
    (match folded with
    | None -> ()
    | Some file ->
        Out_channel.with_open_text file (fun oc -> output_string oc (Obs.Timer.folded tm));
        Printf.printf "wrote folded stacks to %s\n" file);
    r
  end

(* what most commands build: one network, of the configured model and size *)
let own_network cfg =
  [
    {
      Experiments.Config.kind = cfg.Experiments.Config.model;
      hosts = cfg.Experiments.Config.nodes;
      own_landmarks = false;
    };
  ]

(* [networks cfg] lists the networks the command builds from the scaled
   [cfg], for the model minimum and the landmark bound *)
let config_of ~networks ~model ~nodes ~landmarks ~depth ~requests ~seed ~scale =
  let cfg = { Experiments.Config.model; nodes; landmarks; depth; requests; seed } in
  if scale <= 0.0 then exit_usage (Printf.sprintf "--scale must be > 0 (got %g)" scale);
  (* reject out-of-range parameters here, with exit code 2, instead of
     failing deep inside the pipeline; validate the raw flags (scaling
     clamps nodes/requests up to a working minimum and would mask them) *)
  (match Experiments.Config.validate cfg with Error msg -> exit_usage msg | Ok () -> ());
  let cfg = if scale = 1.0 then cfg else Experiments.Config.scaled cfg scale in
  (* every network the command builds must meet its model's minimum size,
     and landmarks are routers: none may have fewer *)
  match Experiments.Config.check_networks cfg (networks cfg) with
  | Error msg -> exit_usage msg
  | Ok () -> cfg

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write each printed section's table as $(docv)/ID.csv (creating $(docv)).")

let print_sections csv sections =
  Experiments.Report.print_all sections;
  Option.iter
    (fun dir -> List.iter (fun s -> ignore (Experiments.Report.write_csv s ~dir)) sections)
    csv

(* every network the paper's tables and figures build *)
let figure_networks cfg =
  List.concat_map (fun id -> Experiments.Figures.networks id cfg) Experiments.Figures.ids

(* ---- figure ----------------------------------------------------------- *)

let figure_cmd =
  let id_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id: table1 table2 fig2..fig9.")
  in
  let run id model nodes landmarks depth requests seed scale pm trace_out timings folded csv =
    match Experiments.Figures.by_id id with
    | None ->
        exit_err
          (Printf.sprintf "unknown experiment %S; known: %s" id
             (String.concat " " Experiments.Figures.ids))
    | Some f ->
        let cfg =
          config_of ~networks:(Experiments.Figures.networks id) ~model ~nodes ~landmarks ~depth
            ~requests ~seed ~scale
        in
        with_pool_metrics pm (fun pool registry ->
            with_timer ~timings ~folded (fun timer ->
                with_trace_out trace_out (fun trace ->
                    print_sections csv (f ~pool ?registry ~trace ~timer cfg));
                Option.iter (fun reg -> Obs.Timer.export_metrics timer reg) registry))
  in
  let term =
    Term.(
      const run $ id_t $ model_t $ nodes_t 10_000 $ landmarks_t $ depth_t $ requests_t
      $ seed_t $ scale_t $ pool_metrics_t $ trace_out_t $ timings_t $ folded_t $ csv_t)
  in
  Cmd.v (Cmd.info "figure" ~doc:"Reproduce one table or figure of the paper") term

(* ---- all -------------------------------------------------------------- *)

let all_cmd =
  let run model nodes landmarks depth requests seed scale pm trace_out timings folded csv =
    let cfg =
      config_of ~networks:figure_networks ~model ~nodes ~landmarks ~depth ~requests ~seed ~scale
    in
    with_pool_metrics pm (fun pool registry ->
        with_timer ~timings ~folded (fun timer ->
            with_trace_out trace_out (fun trace ->
                print_sections csv (Experiments.Figures.all ~pool ?registry ~trace ~timer cfg));
            Option.iter (fun reg -> Obs.Timer.export_metrics timer reg) registry))
  in
  let term =
    Term.(
      const run $ model_t $ nodes_t 10_000 $ landmarks_t $ depth_t $ requests_t $ seed_t
      $ scale_t $ pool_metrics_t $ trace_out_t $ timings_t $ folded_t $ csv_t)
  in
  Cmd.v (Cmd.info "all" ~doc:"Reproduce every table and figure") term

(* ---- topology --------------------------------------------------------- *)

let topology_cmd =
  let run model nodes seed pm =
    with_pool_metrics pm @@ fun pool registry ->
    let rng = Prng.Rng.create ~seed in
    let lat =
      try Topology.Model.build ~pool model ~hosts:nodes rng
      with Invalid_argument m -> exit_err m
    in
    let g = Topology.Latency.router_graph lat in
    Printf.printf "model            %s\n" (Topology.Model.name model);
    Printf.printf "hosts            %d\n" (Topology.Latency.hosts lat);
    Printf.printf "routers          %d\n" (Topology.Latency.routers lat);
    Printf.printf "router links     %d\n" (Topology.Graph.edge_count g);
    Printf.printf "mean host-host   %.1f ms\n" (Topology.Latency.mean_host_latency lat rng);
    let st = Topology.Latency.stats lat in
    Printf.printf "oracle           %s: %d/%d rows computed, %d row hits, ~%d KiB resident\n"
      st.Topology.Latency.backend st.Topology.Latency.rows_computed st.Topology.Latency.routers
      st.Topology.Latency.row_hits
      (st.Topology.Latency.resident_bytes / 1024);
    let lm = Binning.Landmark.choose_spread lat ~count:4 rng in
    let counts = Hashtbl.create 16 in
    for h = 0 to Topology.Latency.hosts lat - 1 do
      let o =
        Binning.Scheme.order Binning.Scheme.paper_thresholds
          (Binning.Landmark.measure lat lm ~host:h)
      in
      Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))
    done;
    Printf.printf "layer-2 rings with 4 spread landmarks: %d\n" (Hashtbl.length counts);
    Hashtbl.fold (fun o c acc -> (o, c) :: acc) counts []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.iter (fun (o, c) -> Printf.printf "  ring %-6s %6d nodes\n" o c);
    Option.iter (Topology.Latency.export_metrics lat) registry
  in
  let term = Term.(const run $ model_t $ nodes_t 2000 $ seed_t $ pool_metrics_t) in
  Cmd.v (Cmd.info "topology" ~doc:"Generate a topology and print statistics") term

(* ---- cost ------------------------------------------------------------- *)

let cost_cmd =
  let run model nodes landmarks depth seed jobs =
    let cfg =
      config_of ~networks:own_network ~model ~nodes ~landmarks ~depth ~requests:1 ~seed ~scale:1.0
    in
    with_jobs jobs @@ fun pool ->
    let env = Experiments.Runner.build_env ~pool cfg in
    let hnet = Experiments.Runner.build_hieras env cfg in
    let totals = Hieras.Cost.totals hnet ~succ_list_len:Experiments.Config.succ_list_len in
    Format.printf "%a@." Hieras.Cost.pp_totals totals
  in
  let term =
    Term.(const run $ model_t $ nodes_t 2000 $ landmarks_t $ depth_t $ seed_t $ jobs_t)
  in
  Cmd.v (Cmd.info "cost" ~doc:"Print the HIERAS state and maintenance cost model") term

(* ---- lookup ----------------------------------------------------------- *)

let lookup_cmd =
  let run model nodes landmarks depth seed pm trace_out trace_sample =
    check_trace_sample trace_sample;
    let cfg =
      config_of ~networks:own_network ~model ~nodes ~landmarks ~depth ~requests:1 ~seed ~scale:1.0
    in
    with_pool_metrics pm @@ fun pool registry ->
    let env = Experiments.Runner.build_env ~pool cfg in
    let hnet = Experiments.Runner.build_hieras env cfg in
    let net = Experiments.Runner.chord_network env in
    let rng = Prng.Rng.create ~seed:(seed + 1) in
    let key = Hashid.Id.random Hashid.Id.sha1_space rng in
    let origin = Prng.Rng.int rng nodes in
    let r, rc =
      with_trace_out ~sample:trace_sample trace_out (fun tr ->
          let r = Hieras.Hlookup.route ~trace:tr hnet ~origin ~key in
          let rc =
            Chord.Lookup.route ~trace:tr net (Experiments.Runner.latency_oracle env) ~origin ~key
          in
          (r, rc))
    in
    Printf.printf "key    %s\n" (Hashid.Id.to_hex key);
    Printf.printf "origin node %d (id %s)\n" origin (Hashid.Id.to_hex (Chord.Network.id net origin));
    List.iter
      (fun h ->
        Printf.printf "  L%d  node %-6d -> node %-6d  %7.1f ms\n" h.Hieras.Hlookup.layer
          h.Hieras.Hlookup.from_node h.Hieras.Hlookup.to_node h.Hieras.Hlookup.latency)
      r.Hieras.Hlookup.hops;
    Printf.printf "destination node %d after %d hops, %.1f ms total\n"
      r.Hieras.Hlookup.destination r.Hieras.Hlookup.hop_count r.Hieras.Hlookup.latency;
    Printf.printf "chord baseline: %d hops, %.1f ms\n" rc.Chord.Lookup.hop_count
      rc.Chord.Lookup.latency;
    Option.iter
      (fun reg ->
        let c name v = Obs.Metrics.set_counter (Obs.Metrics.counter reg name) v in
        let g name v = Obs.Metrics.set (Obs.Metrics.gauge reg name) v in
        c "lookup.hieras.hops" r.Hieras.Hlookup.hop_count;
        g "lookup.hieras.latency_ms" r.Hieras.Hlookup.latency;
        c "lookup.hieras.finished_at_layer" r.Hieras.Hlookup.finished_at_layer;
        c "lookup.chord.hops" rc.Chord.Lookup.hop_count;
        g "lookup.chord.latency_ms" rc.Chord.Lookup.latency;
        Topology.Latency.export_metrics (Experiments.Runner.latency_oracle env) reg)
      registry
  in
  let term =
    Term.(
      const run $ model_t $ nodes_t 2000 $ landmarks_t $ depth_t $ seed_t $ pool_metrics_t
      $ trace_out_t $ trace_sample_t)
  in
  Cmd.v (Cmd.info "lookup" ~doc:"Trace one HIERAS lookup hop by hop") term

(* ---- trace ------------------------------------------------------------ *)

let trace_cmd =
  let run model nodes landmarks depth requests seed pm trace_out trace_sample =
    check_trace_sample trace_sample;
    let cfg =
      config_of ~networks:own_network ~model ~nodes ~landmarks ~depth ~requests ~seed ~scale:1.0
    in
    with_pool_metrics pm @@ fun pool registry ->
    let env = Experiments.Runner.build_env ~pool cfg in
    let hnet = Experiments.Runner.build_hieras env cfg in
    let net = Experiments.Runner.chord_network env in
    let lat = Experiments.Runner.latency_oracle env in
    let reg = Option.value registry ~default:(Obs.Metrics.create ()) in
    let lookups = Obs.Metrics.counter reg "trace.lookups" in
    let chord_hops = Obs.Metrics.counter reg "trace.chord.hops" in
    let hieras_hops = Obs.Metrics.counter reg "trace.hieras.hops" in
    let chord_lat = Obs.Metrics.histogram reg "trace.chord.latency_ms" in
    let hieras_lat = Obs.Metrics.histogram reg "trace.hieras.latency_ms" in
    with_trace_out ~sample:trace_sample trace_out (fun tr ->
        Array.iter
          (fun { Workload.Requests.origin; key } ->
            let rc = Chord.Lookup.route ~trace:tr net lat ~origin ~key in
            let rh = Hieras.Hlookup.route ~trace:tr hnet ~origin ~key in
            Obs.Metrics.incr lookups;
            Obs.Metrics.add chord_hops rc.Chord.Lookup.hop_count;
            Obs.Metrics.add hieras_hops rh.Hieras.Hlookup.hop_count;
            Obs.Metrics.observe chord_lat rc.Chord.Lookup.latency;
            Obs.Metrics.observe hieras_lat rh.Hieras.Hlookup.latency)
          (Experiments.Runner.requests cfg));
    Printf.printf "replayed %d paired lookups on %d nodes (%s, depth %d)\n"
      cfg.Experiments.Config.requests cfg.Experiments.Config.nodes
      (Topology.Model.name cfg.Experiments.Config.model)
      cfg.Experiments.Config.depth;
    Option.iter (Topology.Latency.export_metrics lat) registry
  in
  let term =
    Term.(
      const run $ model_t $ nodes_t 2000 $ landmarks_t $ depth_t
      $ Arg.(
          value
          & opt int 100
          & info [ "requests" ] ~docv:"R" ~doc:"Routing requests to replay and trace.")
      $ seed_t $ pool_metrics_t $ trace_out_t $ trace_sample_t)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a request stream through Chord and HIERAS with structured \
          JSONL tracing and a metrics registry")
    term

(* ---- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let args_t =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"ARGS"
          ~doc:
            "Either a JSONL trace file (as written by $(b,--trace-out) or \
             $(b,--net-trace-out); schemas in DESIGN.md §8 and §14; \
             $(b,-) reads from stdin), or $(b,compare) $(i,BASE) $(i,CAND) to \
             diff the gated metrics of two JSON artifacts of one schema \
             (DESIGN.md §9).")
  in
  let json_t =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:
            "Emit the report as deterministic single-line JSON (DESIGN.md §9) \
             instead of text tables.")
  in
  let top_t =
    Arg.(
      value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Forwarding hotspots to list per algorithm.")
  in
  let threshold_t =
    Arg.(
      value
      & opt float 0.2
      & info [ "threshold" ] ~docv:"F"
          ~doc:
            "(compare mode) Relative regression threshold: flag metrics where \
             (cand - base) / base exceeds $(docv) (0.2 = 20%).")
  in
  let analyze_file file json top_k =
    if top_k < 0 then exit_usage (Printf.sprintf "--top must be >= 0 (got %d)" top_k);
    let of_stdin () =
      let t = Obs.Analyze.create ~top_k () in
      (try
         while true do
           Obs.Analyze.feed_line t (input_line stdin)
         done
       with End_of_file -> ());
      t
    in
    let t =
      try if file = "-" then of_stdin () else Obs.Analyze.of_file ~top_k file with
      | Sys_error msg -> exit_err msg
      | Failure msg -> exit_err msg
    in
    (* the stream's own event family picks the report: msg/drop lines make
       a net (message-span) report, start/hop/end lines a lookup report *)
    match Obs.Analyze.net_report t with
    | Some nr ->
        if json then print_endline (Obs.Analyze.net_report_json nr)
        else print_string (Obs.Analyze.net_report_text nr)
    | None ->
        let r = Obs.Analyze.report t in
        if json then print_endline (Obs.Analyze.report_json r)
        else print_string (Obs.Analyze.report_text r)
  in
  let compare_reports base cand threshold =
    if threshold <= 0.0 then
      exit_usage (Printf.sprintf "--threshold must be > 0 (got %g)" threshold);
    match Obs.Gate.compare_files ~base ~cand ~threshold with
    | Error msg -> exit_err msg
    | Ok c ->
        print_string (Obs.Gate.comparison_text c);
        if c.Obs.Gate.regressions <> [] then exit 1
  in
  let run args json top_k threshold =
    match args with
    | [ file ] -> analyze_file file json top_k
    | [ "compare"; base; cand ] -> compare_reports base cand threshold
    | "compare" :: rest ->
        exit_usage
          (Printf.sprintf "analyze compare takes exactly BASE and CAND (got %d argument(s))"
             (List.length rest))
    | _ -> exit_usage "usage: analyze TRACE|- [--json] [--top K] | analyze compare BASE CAND"
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze a JSONL lookup trace (per-layer attribution, distributions, \
          hotspots) or message-span trace (per-kind traffic, bandwidth \
          attribution, causal audit) — `-` reads stdin — or `analyze compare \
          BASE CAND` to diff the gated metrics of two artifacts; exit 1 when \
          any metric regresses beyond the threshold or goes missing")
    Term.(const run $ args_t $ json_t $ top_t $ threshold_t)

(* ---- soak and cache ----------------------------------------------------- *)

(* The tail the message-level experiments share: run the cells, print the
   section, write the --out artifact and the cells' merged span stream. *)
let run_experiment pm ~out ~net ~what ~cells ~section ~results_json ~net_trace run =
  with_pool_metrics pm (fun pool registry ->
      let r = run pool registry in
      Experiments.Report.print (section r);
      Option.iter
        (fun file ->
          write_json file ~what:(Printf.sprintf "%d %s cells" (cells r) what) (results_json r))
        out;
      Option.iter
        (fun (file, _) ->
          let tr = net_trace r in
          Out_channel.with_open_text file (fun oc -> output_string oc tr);
          let lines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 tr in
          Printf.printf "wrote %d net span events to %s\n" lines file)
        net)

let soak_cmd =
  let module Soak = Experiments.Soak in
  let pool_t =
    Arg.(value & opt int 48 & info [ "pool" ] ~docv:"N" ~doc:"Total node address pool.")
  in
  let initial_t =
    Arg.(value & opt int 12 & info [ "initial" ] ~docv:"N" ~doc:"Nodes alive before churn starts.")
  in
  let horizon_t =
    Arg.(value & opt float 60.0 & info [ "horizon" ] ~docv:"S" ~doc:"Churn window length, seconds.")
  in
  let join_rate_t =
    Arg.(
      value
      & opt float 0.25
      & info [ "join-rate" ] ~docv:"R" ~doc:"Expected joins per second at factor 1.")
  in
  let fail_rate_t =
    Arg.(
      value
      & opt float 0.08
      & info [ "fail-rate" ] ~docv:"R" ~doc:"Expected silent failures per second at factor 1.")
  in
  let leave_rate_t =
    Arg.(
      value
      & opt float 0.04
      & info [ "leave-rate" ] ~docv:"R" ~doc:"Expected graceful leaves per second at factor 1.")
  in
  let factors_t =
    Arg.(
      value
      & opt (list float) [ 0.5; 1.0; 2.0 ]
      & info [ "factors" ] ~docv:"F,..."
          ~doc:"Churn-rate multipliers — the x axis of the bandwidth-vs-churn curves.")
  in
  let loss_t =
    Arg.(value & opt float 0.01 & info [ "loss" ] ~docv:"P" ~doc:"Message loss probability.")
  in
  let adaptive_t =
    Arg.(
      value
      & flag
      & info [ "adaptive" ]
          ~doc:
            "Adaptive maintenance: back off stabilize/fix-fingers intervals \
             while the rings are converged, snap back on detected change.")
  in
  let fault_t =
    Arg.(
      value
      & opt string "none"
      & info [ "fault" ] ~docv:"KIND"
          ~doc:
            "Engine-level fault schedule injected at mid-horizon: none, \
             crash, outage or restart.")
  in
  let fault_frac_t =
    Arg.(
      value
      & opt float 0.2
      & info [ "fault-frac" ] ~docv:"F" ~doc:"Fraction for crash/restart faults.")
  in
  let run pool_n initial horizon join_rate fail_rate leave_rate factors loss adaptive fault
      fault_frac landmarks depth seed pm out net =
    let fault =
      match fault with
      | "none" -> None
      | s -> (
          match Experiments.Resilience.schedule_of_name s with
          | Some k -> Some k
          | None ->
              exit_usage
                (Printf.sprintf "unknown fault %S (none | crash | outage | restart)" s))
    in
    let spec =
      {
        Soak.pool = pool_n;
        initial;
        horizon_ms = horizon *. 1000.0;
        join_rate;
        fail_rate;
        leave_rate;
        factors;
        loss;
        depth;
        landmarks;
        adaptive;
        fault;
        fault_frac;
        net_sample = Option.map snd net;
        seed;
      }
    in
    (match Soak.validate spec with Ok () -> () | Error e -> exit_usage e);
    run_experiment pm ~out ~net ~what:"soak"
      ~cells:(fun r -> List.length r.Soak.cells)
      ~section:Soak.section ~results_json:Soak.results_json ~net_trace:Soak.net_trace
      (fun pool registry -> Soak.run ~pool ?registry spec)
  in
  let term =
    Term.(
      const run $ pool_t $ initial_t $ horizon_t $ join_rate_t $ fail_rate_t $ leave_rate_t
      $ factors_t $ loss_t $ adaptive_t $ fault_t $ fault_frac_t
      $ landmarks_t $ depth_t $ seed_t $ pool_metrics_t $ out_t "hieras-soak" $ net_t)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Long-horizon churn soak of the message-level protocols: \
          bandwidth-cost-vs-churn-rate curves for Chord and HIERAS with \
          convergence detection, ring-correctness audits and lookup probes \
          (bit-identical for any --jobs)")
    term

(* ---- cache -------------------------------------------------------------- *)

let cache_cmd =
  let module Cache = Experiments.Cache in
  let d = Cache.default_spec in
  let pool_t =
    Arg.(
      value
      & opt int d.Cache.pool
      & info [ "pool" ] ~docv:"N" ~doc:"Nodes in the ring (all join before the store populates).")
  in
  let objects_t =
    Arg.(
      value
      & opt int d.Cache.objects
      & info [ "objects" ] ~docv:"N" ~doc:"Catalogue size — one put each.")
  in
  let requests_t =
    Arg.(
      value
      & opt int d.Cache.requests
      & info [ "requests" ] ~docv:"R" ~doc:"Zipf read-stream length.")
  in
  let replication_t =
    Arg.(
      value
      & opt (list int) d.Cache.replication
      & info [ "replication" ] ~docv:"R,..."
          ~doc:"Store replication factors to sweep (owner + R-1 successor replicas).")
  in
  let alphas_t =
    Arg.(
      value
      & opt (list float) d.Cache.alphas
      & info [ "alphas" ] ~docv:"A,..." ~doc:"Zipf skews to sweep (0 = uniform popularity).")
  in
  let fault_t =
    Arg.(
      value
      & opt string "none"
      & info [ "fault" ] ~docv:"KIND"
          ~doc:
            "Fault schedule landing between populate and read: none, crash \
             (uniform random kills) or spaced (victims spread through \
             identifier order so every key loses fewer than R replicas).")
  in
  let fault_frac_t =
    Arg.(
      value
      & opt float d.Cache.fault_frac
      & info [ "fault-frac" ] ~docv:"F" ~doc:"Fraction of the pool killed by the fault schedule.")
  in
  let cache_entries_t =
    Arg.(
      value
      & opt int d.Cache.cache_entries
      & info [ "cache-entries" ] ~docv:"N" ~doc:"Per-node cache entry budget.")
  in
  let loss_t =
    Arg.(
      value
      & opt float d.Cache.loss
      & info [ "loss" ] ~docv:"P" ~doc:"Message loss probability.")
  in
  let run pool_n objects requests replication alphas fault fault_frac cache_entries loss
      landmarks depth seed pm out net =
    let fault =
      match Cache.fault_of_name fault with
      | Some f -> f
      | None -> exit_usage (Printf.sprintf "unknown fault %S (none | crash | spaced)" fault)
    in
    let spec =
      {
        Cache.pool = pool_n;
        objects;
        requests;
        replication;
        alphas;
        fault;
        fault_frac;
        cache_entries;
        loss;
        depth;
        landmarks;
        net_sample = Option.map snd net;
        seed;
      }
    in
    (match Cache.validate spec with Ok () -> () | Error e -> exit_usage e);
    run_experiment pm ~out ~net ~what:"cache"
      ~cells:(fun r -> List.length r.Cache.cells)
      ~section:Cache.section ~results_json:Cache.results_json ~net_trace:Cache.net_trace
      (fun pool registry -> Cache.run ~pool ?registry spec)
  in
  let term =
    Term.(
      const run $ pool_t $ objects_t $ requests_t $ replication_t $ alphas_t $ fault_t
      $ fault_frac_t $ cache_entries_t $ loss_t $ landmarks_t
      $ depth_t $ seed_t $ pool_metrics_t $ out_t "hieras-cache" $ net_t)
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Replicated key-value store under a zipf web-cache workload: \
          availability, cache hit rate and fetch latency per replication \
          factor x skew x algorithm cell, with optional fault schedules \
          landing between populate and read (bit-identical for any --jobs)")
    term

(* ---- scale -------------------------------------------------------------- *)

let scale_cmd =
  let module Scale = Experiments.Scale in
  let nodes_t =
    Arg.(
      value
      & opt int Scale.default_spec.Scale.nodes
      & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Network size (>= 2).")
  in
  let requests_t =
    Arg.(
      value
      & opt int Scale.default_spec.Scale.requests
      & info [ "requests" ] ~docv:"R" ~doc:"Analytic lookups to replay.")
  in
  let cross_t =
    Arg.(
      value
      & opt int 0
      & info [ "cross-check" ] ~docv:"K"
          ~doc:
            "Replay the first $(docv) requests through the full simulated \
             routes as well and compare hop-for-hop with the analytic walk \
             (0 = off).")
  in
  let bench_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-json" ] ~docv:"FILE"
          ~doc:
            "Write the perf snapshot (schema hieras-scale-bench: wall times, \
             \xc2\xb5s/lookup, GC words, peak RSS, results embedded) to $(docv) — \
             the BENCH_scale.json artifact.")
  in
  let run nodes requests landmarks depth seed cross_check pm out bench =
    let spec = { Scale.nodes; requests; landmarks; depth; seed; cross_check } in
    (match Scale.validate spec with Ok () -> () | Error e -> exit_usage e);
    with_pool_metrics pm (fun pool registry ->
        let r = Scale.run ~pool ?registry ~now:Unix.gettimeofday spec in
        Experiments.Report.print (Scale.section r);
        if r.Scale.cross_mismatches > 0 then
          exit_err
            (Printf.sprintf "analytic walk disagrees with simulated routes on %d/%d lookups"
               r.Scale.cross_mismatches r.Scale.cross_checked);
        Option.iter (fun file -> write_json file ~what:"scale results" (Scale.results_json r)) out;
        Option.iter
          (fun file -> write_json file ~what:"scale bench snapshot" (Scale.bench_json r))
          bench)
  in
  let term =
    Term.(
      const run $ nodes_t $ requests_t $ landmarks_t $ depth_t $ seed_t $ cross_t
      $ pool_metrics_t $ out_t "hieras-scale" $ bench_t)
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Million-node scale run: build packed Chord and HIERAS networks over \
          a synthetic topology and replay a seeded lookup stream in the \
          analytic hop-count mode, sharded over --jobs (results \
          bit-identical for any width)")
    term

(* ---- resilience --------------------------------------------------------- *)

let resilience_cmd =
  let failures_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "failures" ] ~docv:"F"
          ~doc:
            "Single failure fraction in [0, 0.95] instead of the default \
             0%..50% sweep.")
  in
  let schedule_t =
    Arg.(
      value
      & opt string "crash"
      & info [ "schedule" ] ~docv:"KIND"
          ~doc:
            "Fault schedule: crash (permanent uniform crashes), outage \
             (whole stub domains down) or restart (crash-restart, victims \
             still down at the sample instant).")
  in
  let run model nodes landmarks depth requests seed scale pm failures schedule
      trace_out timings folded =
    let kind =
      match Experiments.Resilience.schedule_of_name schedule with
      | Some k -> k
      | None ->
          exit_usage
            (Printf.sprintf "unknown schedule %S (crash | outage | restart)" schedule)
    in
    let fractions =
      match failures with
      | None -> Experiments.Resilience.default_fractions
      | Some f ->
          if f < 0.0 || f > 0.95 then
            exit_usage (Printf.sprintf "--failures must be in [0, 0.95] (got %g)" f);
          [ f ]
    in
    let cfg =
      config_of ~networks:own_network ~model ~nodes ~landmarks ~depth ~requests ~seed ~scale
    in
    with_pool_metrics pm (fun pool registry ->
        with_timer ~timings ~folded (fun timer ->
            with_trace_out trace_out (fun trace ->
                let r =
                  Experiments.Resilience.run ~pool ?registry ~trace ~timer ~fractions ~kind cfg
                in
                Experiments.Report.print (Experiments.Resilience.section r));
            Option.iter (fun reg -> Obs.Timer.export_metrics timer reg) registry))
  in
  let term =
    Term.(
      const run $ model_t $ nodes_t 2000 $ landmarks_t $ depth_t
      $ Arg.(
          value
          & opt int 10_000
          & info [ "requests" ] ~docv:"R" ~doc:"Routing requests per sweep point.")
      $ seed_t $ scale_t $ pool_metrics_t $ failures_t $ schedule_t $ trace_out_t
      $ timings_t $ folded_t)
  in
  Cmd.v
    (Cmd.info "resilience"
       ~doc:
         "Lookup success rate and latency stretch versus failed-node \
          fraction, Chord against HIERAS, under a deterministic fault \
          schedule")
    term

(* ---- tournament --------------------------------------------------------- *)

let tournament_cmd =
  let module Tournament = Experiments.Tournament in
  let fault_frac_t =
    Arg.(
      value
      & opt float 0.3
      & info [ "fault-frac" ] ~docv:"F"
          ~doc:"Fault fraction in [0, 0.95] sizing both the crash and outage schedules.")
  in
  let run model nodes landmarks depth requests seed scale pm fault_frac out timings folded =
    if fault_frac < 0.0 || fault_frac > 0.95 then
      exit_usage (Printf.sprintf "--fault-frac must be in [0, 0.95] (got %g)" fault_frac);
    let cfg =
      config_of ~networks:own_network ~model ~nodes ~landmarks ~depth ~requests ~seed ~scale
    in
    with_pool_metrics pm (fun pool registry ->
        with_timer ~timings ~folded (fun timer ->
            let r = Tournament.run ~pool ?registry ~timer ~fault_fraction:fault_frac cfg in
            Experiments.Report.print (Tournament.section r);
            Option.iter
              (fun file ->
                write_json file
                  ~what:(Printf.sprintf "%d tournament contestants" (List.length r.Tournament.entries))
                  (Tournament.results_json r))
              out;
            Option.iter (fun reg -> Obs.Timer.export_metrics timer reg) registry))
  in
  let term =
    Term.(
      const run $ model_t $ nodes_t 2000 $ landmarks_t $ depth_t
      $ Arg.(
          value
          & opt int 10_000
          & info [ "requests" ] ~docv:"R" ~doc:"Routing requests replayed per contestant.")
      $ seed_t $ scale_t $ pool_metrics_t $ fault_frac_t $ out_t "hieras-tournament"
      $ timings_t $ folded_t)
  in
  Cmd.v
    (Cmd.info "tournament"
       ~doc:
         "Cross-algorithm tournament: Chord, Pastry, CAN and Tapestry, flat \
          and HIERAS-layered, on one identical seeded request stream and \
          topology — hops, latency, stretch and resilience under crash and \
          outage faults, in one deterministic matrix")
    term

(* ---- extensions -------------------------------------------------------- *)

let extensions_cmd =
  let run model nodes landmarks requests seed scale jobs =
    (* the extensions fix their own hierarchy depths *)
    let depth = Experiments.Config.paper_default.depth in
    let cfg =
      config_of ~networks:own_network ~model ~nodes ~landmarks ~depth ~requests ~seed ~scale
    in
    with_jobs jobs (fun pool ->
        Experiments.Report.print_all (Experiments.Extensions.all ~pool cfg))
  in
  let term =
    Term.(
      const run $ model_t $ nodes_t 2500 $ landmarks_t
      $ Arg.(value & opt int 25_000 & info [ "requests" ] ~docv:"R" ~doc:"Routing requests per run.")
      $ seed_t $ scale_t $ jobs_t)
  in
  Cmd.v
    (Cmd.info "extensions"
       ~doc:"Run the beyond-the-paper comparisons: Pastry, CAN, ablations")
    term

(* ---- bench ------------------------------------------------------------- *)

let bench_cmd =
  let run seed scale pm timings folded out =
    let { Experiments.Config.model; nodes; landmarks; depth; requests; _ } =
      Experiments.Config.paper_default
    in
    let cfg =
      config_of ~networks:figure_networks ~model ~nodes ~landmarks ~depth ~requests ~seed ~scale
    in
    with_pool_metrics pm (fun pool registry ->
        with_timer ~timings ~folded (fun timer ->
            let ledger = Bench.run ~pool ?registry ~timer cfg in
            Option.iter
              (fun file ->
                write_json file ~what:"bench ledger"
                  (Bench.to_json ~scale ~jobs:(Parallel.Pool.jobs pool) cfg ledger))
              out;
            Option.iter (fun reg -> Obs.Timer.export_metrics timer reg) registry))
  in
  let term =
    Term.(
      const run $ seed_t $ scale_t $ pool_metrics_t $ timings_t $ folded_t
      $ out_t ~repeats:"wall times vary; the gated GC counts repeat at one $(b,--jobs)"
          "hieras-bench")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "The paper harness's ledger: print table1, table2 and figures 2-9 as `all` does, \
          each figure run's wall time and GC words, a latency-oracle probe and bechamel \
          micro-benchmarks; $(b,--out) gates only the GC word counts and packed footprints")
    term

let main =
  let doc = "HIERAS: DHT-based hierarchical P2P routing — paper reproduction" in
  Cmd.group (Cmd.info "hieras-sim" ~doc)
    [
      figure_cmd;
      all_cmd;
      topology_cmd;
      cost_cmd;
      lookup_cmd;
      trace_cmd;
      analyze_cmd;
      soak_cmd;
      cache_cmd;
      scale_cmd;
      resilience_cmd;
      tournament_cmd;
      extensions_cmd;
      bench_cmd;
    ]

let () = exit (Cmd.eval main)
