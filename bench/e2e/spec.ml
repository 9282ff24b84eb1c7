(* BENCHMARK.json, the one place that names the workloads and the metrics
   a run reports, with their units, better direction and regression
   bounds. A run selects its final metrics from it; [compare] reads the
   bounds; the self-test checks every run against it. *)

type metric = { name : string; unit : string; lower_is_better : bool; bound : float option }
type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  let ( let* ) = Result.bind in
  let field name j = Option.to_result ~none:(Printf.sprintf "%s: missing %S" path name) (Layers.json_member name j) in
  let str name j = match field name j with Ok (Layers.Str s) -> Ok s | _ -> Error (path ^ ": bad " ^ name) in
  let list name j = match field name j with Ok (Layers.Arr l) -> Ok l | _ -> Error (path ^ ": bad " ^ name) in
  let rec all f = function
    | [] -> Ok []
    | x :: rest ->
        let* y = f x in
        let* ys = all f rest in
        Ok (y :: ys)
  in
  let metric j =
    let* name = str "name" j in
    let* unit = str "unit" j in
    let* better = str "better" j in
    let bound = match Layers.json_member "bound" j with Some (Layers.Num b) -> Some b | _ -> None in
    Ok { name; unit; lower_is_better = better = "lower"; bound }
  in
  let* text = try Ok (read_file path) with Sys_error e -> Error e in
  let* j = Layers.json_parse text in
  let* workloads = list "workloads" j in
  let* workloads = all (str "name") workloads in
  let* e2e = list "end_to_end" j in
  let* end_to_end = all metric e2e in
  let* layer = list "per_layer" j in
  let* per_layer = all metric layer in
  Ok { workloads; end_to_end; per_layer }
