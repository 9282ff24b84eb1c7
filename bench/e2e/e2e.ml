(* The end-to-end benchmark. See README.md in this directory.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
     e2e.exe compare DIR_A DIR_B
     e2e.exe selftest

   A run prints its notes and every metric it measured by name and unit,
   then, as its last line, one JSON object with the metrics BENCHMARK.json
   lists: the end-to-end ones untraced, the per-layer ones traced. It
   exits 1 when a correctness check fails. BENCHMARK.json is read from the
   working directory. *)

let workloads =
  [
    ("route-paper", Route.route_paper);
    ("route-scale", Route.route_scale);
    ("kv-zipf", Kv_zipf.run);
    ("churn-maint", Churn_maint.run);
  ]

let benchmark_json = "BENCHMARK.json"
let spans_dir = Filename.concat "_build" "e2e-spans"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

let load_spec () = match Spec.load benchmark_json with Ok s -> s | Error e -> die "%s" e

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Run one workload; returns the final JSON line, whether every check
   passed, and the failed op count. [print] receives the human-readable
   report. *)
let run_one (spec : Spec.t) ~name ~seed ~seconds ~trace ~quick ~print ~write_spans =
  let f = match List.assoc_opt name workloads with Some f -> f | None -> die "unknown workload %S" name in
  let spans = if trace then Spans.create () else Spans.off in
  let ctx = { Run.seed; seconds; quick; spans } in
  let out = Run.create_out () in
  print (Printf.sprintf "e2e workload=%s seed=%d seconds=%g trace=%d" name seed seconds (Bool.to_int trace));
  f ctx out;
  List.iter (fun n -> print ("note: " ^ n)) (List.rev out.Run.notes);
  List.iter
    (fun (n, v, u) -> print (Printf.sprintf "metric %-36s %16.6g %s" n v u))
    (List.rev out.Run.metrics);
  if trace then begin
    print "self time per layer (traced spans):";
    List.iter (fun (l, s) -> print (Printf.sprintf "  %-16s %10.4f s" l s)) (Spans.layer_self spans);
    print "self time per span:";
    List.iter
      (fun (n, c, tot, self) -> print (Printf.sprintf "  %-28s %9d spans %10.4f s total %10.4f s self" n c tot self))
      (Spans.table spans);
    if write_spans then begin
      mkdir_p spans_dir;
      let path = Filename.concat spans_dir (Printf.sprintf "%s.seed%d.spans.jsonl" name seed) in
      Spans.write_jsonl spans path;
      print ("spans written to " ^ path)
    end
  end;
  let wanted = if trace then spec.Spec.per_layer else spec.Spec.end_to_end in
  let selected =
    List.filter_map
      (fun (m : Spec.metric) ->
        match List.find_opt (fun (n, _, _) -> n = m.name) out.Run.metrics with
        | None ->
            Run.problem out "metric %s was not measured" m.name;
            None
        | Some (_, _, u) when u <> m.unit ->
            Run.problem out "metric %s measured in %s, BENCHMARK.json says %s" m.name u m.unit;
            None
        | Some (_, v, _) when not (Float.is_finite v) ->
            Run.problem out "metric %s is not a number" m.name;
            None
        | Some (_, v, u) -> Some (m.name, v, u))
      wanted
  in
  List.iter (fun p -> print ("PROBLEM: " ^ p)) (List.rev out.Run.problems);
  let ok = out.Run.problems = [] in
  let metrics =
    String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (Layers.json_number v) u)
         selected)
  in
  ( Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" ok
      (max 1 out.Run.attempted) out.Run.failed metrics,
    ok,
    out.Run.failed )

(* The dune runtest check: every workload at tiny sizes, untraced and
   traced, must pass its correctness checks, fail no op, and report every
   metric BENCHMARK.json lists. *)
let selftest () =
  let spec = load_spec () in
  let failures = ref 0 in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let _, checks, failed =
            run_one spec ~name ~seed:7 ~seconds:0.05 ~trace ~quick:true ~print:ignore ~write_spans:false
          in
          let ok = checks && failed = 0 in
          Printf.printf "selftest %-12s trace=%d %s\n%!" name (Bool.to_int trace) (if ok then "ok" else "FAILED");
          if not ok then incr failures)
        [ false; true ])
    spec.Spec.workloads;
  exit (if !failures = 0 then 0 else 1)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "selftest" ] -> selftest ()
  | [ "compare"; a; b ] -> exit (Compare.run (load_spec ()) a b)
  | args ->
      let workload = ref None and seed = ref 2003 and seconds = ref 10.0 and trace = ref false in
      let quick = ref false in
      let int s = match int_of_string_opt s with Some v -> v | None -> die "not an integer: %S" s in
      let rec parse = function
        | [] -> ()
        | "--workload" :: w :: rest ->
            workload := Some w;
            parse rest
        | "--seed" :: s :: rest ->
            seed := int s;
            parse rest
        | "--seconds" :: s :: rest ->
            (seconds := match float_of_string_opt s with Some v when v > 0.0 -> v | _ -> die "bad --seconds %S" s);
            parse rest
        | "--trace" :: t :: rest ->
            (trace := match t with "0" -> false | "1" -> true | _ -> die "--trace takes 0 or 1");
            parse rest
        | "--quick" :: rest ->
            quick := true;
            parse rest
        | a :: _ -> die "unknown argument %S (see bench/e2e/README.md)" a
      in
      parse args;
      let name = match !workload with Some w -> w | None -> die "--workload is required" in
      let spec = load_spec () in
      if not (List.mem name spec.Spec.workloads) then die "workload %S is not in %s" name benchmark_json;
      let line, ok, _ =
        run_one spec ~name ~seed:!seed ~seconds:!seconds ~trace:!trace ~quick:!quick ~print:print_endline
          ~write_spans:true
      in
      print_endline line;
      exit (if ok then 0 else 1)
