(* [e2e.exe compare DIR_A DIR_B]: each directory holds the standard output
   of benchmark runs, one file per run. For every workload and metric it
   prints each set's median and quartiles and a verdict, seen from A to B:
   - the simulated metrics ([*.sim_ms_*], [*.hops_mean]) are exact
     functions of the seed, so on the seeds both sets ran they are compared
     seed by seed: "identical", "better", or "REGRESSION" when any seed got
     worse at all;
   - every other end-to-end metric, and a simulated one without shared
     seeds, is judged against its BENCHMARK.json bound: "same" / "better" /
     "REGRESSION" when both sets' spreads are within the bound, and
     "unresolved" when either set's spread (interquartile range over
     median) is wider than the bound, unless every run of B beats every
     run of A;
   - "info" for per-layer metrics, which have no bound.
   Exits 1 when any metric regressed. *)

type run = { workload : string; trace : bool; seed : int option; values : (string * float) list }

let parse_run path =
  let lines = String.split_on_char '\n' (Spec.read_file path) |> List.filter (fun l -> l <> "") in
  let header =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "e2e" :: fields ->
            let get k =
              List.find_map
                (fun f ->
                  match String.index_opt f '=' with
                  | Some i when String.sub f 0 i = k -> Some (String.sub f (i + 1) (String.length f - i - 1))
                  | _ -> None)
                fields
            in
            Option.bind (get "workload") (fun w ->
                Option.map (fun t -> (w, t = "1", Option.bind (get "seed") int_of_string_opt)) (get "trace"))
        | _ -> None)
      lines
  in
  match (header, List.rev lines) with
  | Some (workload, trace, seed), last :: _ -> (
      match Layers.json_parse last with
      | Ok j -> (
          match Layers.json_member "metrics" j with
          | Some (Layers.Obj ms) ->
              let values =
                List.filter_map
                  (fun (n, m) ->
                    match Layers.json_member "value" m with Some (Layers.Num v) -> Some (n, v) | _ -> None)
                  ms
              in
              Some { workload; trace; seed; values }
          | _ -> None)
      | Error _ -> None)
  | _ -> None

let runs_in dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then None else parse_run p)

let simulated name =
  match String.index_opt name '.' with
  | Some i ->
      let rest = String.sub name (i + 1) (String.length name - i - 1) in
      rest = "hops_mean" || String.starts_with ~prefix:"sim_ms_" rest
  | None -> false

let stats = function
  | [] -> None
  | [ v ] -> Some (v, v, v)
  | vs -> Some (Meter.quartiles vs)

let verdict (m : Spec.metric) a b =
  match (stats a, stats b, m.bound) with
  | None, _, _ | _, None, _ -> "missing"
  | _, _, None -> "info"
  | Some (qa1, ma, qa3), Some (qb1, mb, qb3), Some bound ->
      let worse = (if m.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
      let spread q1 q3 med = (q3 -. q1) /. Float.abs med in
      let beats x y = if m.lower_is_better then x < y else x > y in
      let all_better = List.for_all (fun vb -> List.for_all (fun va -> beats vb va) a) b in
      if spread qa1 qa3 ma > bound || spread qb1 qb3 mb > bound then
        if all_better then "better" else "unresolved"
      else if worse > bound then "REGRESSION"
      else if worse < -.bound then "better"
      else "same"

(* [pairs]: (A, B) values of one simulated metric on each shared seed *)
let exact_verdict (m : Spec.metric) pairs =
  let worse (a, b) = if m.lower_is_better then b > a else b < a in
  if List.for_all (fun (a, b) -> a = b) pairs then Printf.sprintf "identical (%d seeds)" (List.length pairs)
  else if List.exists worse pairs then Printf.sprintf "REGRESSION (exact, %d seeds)" (List.length pairs)
  else Printf.sprintf "better (exact, %d seeds)" (List.length pairs)

let run (spec : Spec.t) dir_a dir_b =
  let ra = runs_in dir_a and rb = runs_in dir_b in
  let regressions = ref 0 in
  let fmt = function
    | None -> Printf.sprintf "%38s" "-"
    | Some (q1, med, q3) -> Printf.sprintf "%12.5g [%11.5g, %11.5g]" med q1 q3
  in
  Printf.printf "%-12s %-30s %-38s %-38s %8s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "B vs A" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (trace, metrics) ->
          let pick runs = List.filter (fun r -> r.workload = w && r.trace = trace) runs in
          let sa = pick ra and sb = pick rb in
          if sa <> [] || sb <> [] then begin
            Printf.printf "%-12s (%s: %d runs in A, %d in B)\n" w
              (if trace then "traced" else "untraced")
              (List.length sa) (List.length sb);
            List.iter
              (fun (m : Spec.metric) ->
                let seeded runs = List.filter_map (fun r -> Option.map (fun v -> (r.seed, v)) (List.assoc_opt m.name r.values)) runs in
                let a = seeded sa and b = seeded sb in
                let pairs =
                  List.filter_map
                    (fun (s, va) ->
                      match s with
                      | Some _ -> Option.map (fun vb -> (va, vb)) (List.assoc_opt s b)
                      | None -> None)
                    a
                in
                let a = List.map snd a and b = List.map snd b in
                let v =
                  if (not trace) && simulated m.name && pairs <> [] then exact_verdict m pairs else verdict m a b
                in
                if String.starts_with ~prefix:"REGRESSION" v then incr regressions;
                let change =
                  match (stats a, stats b) with
                  | Some (_, ma, _), Some (_, mb, _) -> Printf.sprintf "%+7.2f%%" (100.0 *. (mb -. ma) /. Float.abs ma)
                  | _ -> "-"
                in
                Printf.printf "%-12s %-30s %s %s %8s %6s  %s\n" "" m.name (fmt (stats a)) (fmt (stats b)) change
                  (match m.bound with Some b -> Printf.sprintf "%.3g" b | None -> "-")
                  v)
              metrics
          end)
        [ (false, spec.Spec.end_to_end); (true, spec.Spec.per_layer) ])
    spec.Spec.workloads;
  if !regressions = 0 then 0 else 1
