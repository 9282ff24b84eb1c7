(* The gated-metric envelope. Producers append their gated list; compare
   joins two lists by name and knows nothing of any artifact's layout. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let failure_rate name ~ok ~total =
  if total = 0 then [] else [ metric name "ratio" (1.0 -. (float_of_int ok /. float_of_int total)) ]

let to_json gated =
  let entry m =
    Printf.sprintf {|{"name":"%s","value":%s,"better":"lower","unit":"%s"}|} (Jsonu.escape m.name)
      (Jsonu.number m.value) (Jsonu.escape m.unit)
  in
  "[" ^ String.concat "," (List.map entry gated) ^ "]"

(* ---- parsing ----------------------------------------------------------- *)

let str k j = Option.bind (Jsonu.member k j) Jsonu.to_string

let metric_of_json e =
  match (str "name" e, Option.bind (Jsonu.member "value" e) Jsonu.to_float, str "better" e, str "unit" e) with
  | Some name, Some value, Some "lower", Some unit -> Ok { name; value; unit }
  | Some name, _, Some better, _ when better <> "lower" ->
      Error (Printf.sprintf "gated metric %S is better %S; only \"lower\" is gated" name better)
  | _ -> Error "malformed gated entry"

let rec metrics_of_json acc = function
  | [] -> Ok (List.rev acc)
  | e :: rest -> Result.bind (metric_of_json e) (fun m -> metrics_of_json (m :: acc) rest)

(* an artifact's schema and gated list, errors prefixed with [side] *)
let envelope side j =
  Result.map_error (fun e -> side ^ ": " ^ e)
    (match (str "schema" j, Option.bind (Jsonu.member "gated" j) Jsonu.to_list) with
    | None, _ -> Error "no \"schema\" member"
    | _, None -> Error "no \"gated\" list"
    | Some schema, Some entries -> Result.map (fun g -> (schema, g)) (metrics_of_json [] entries))

(* ---- compare ----------------------------------------------------------- *)

type row = { metric : string; base : float; cand : float option; delta : float }
type comparison = { schema : string; threshold : float; rows : row list; regressions : row list }

let delta_of base = function
  | None -> infinity
  | Some cand -> if base = 0.0 then if cand = 0.0 then 0.0 else infinity else (cand -. base) /. base

let compare_sides ~threshold (bside, bj) (cside, cj) =
  match (envelope bside bj, envelope cside cj) with
  | Error e, _ | _, Error e -> Error e
  | Ok (bs, _), Ok (cs, _) when bs <> cs -> Error (Printf.sprintf "cannot compare a %s against a %s" bs cs)
  | Ok (_, []), _ -> Error (bside ^ ": no gated metric")
  | Ok (schema, bg), Ok (_, cg) ->
      let rows =
        List.map
          (fun b ->
            let cand = List.find_map (fun c -> if c.name = b.name then Some c.value else None) cg in
            { metric = b.name; base = b.value; cand; delta = delta_of b.value cand })
          bg
      in
      Ok { schema; threshold; rows; regressions = List.filter (fun r -> r.delta > threshold) rows }

let compare ~threshold ~base ~cand = compare_sides ~threshold ("base", base) ("candidate", cand)

let load_json path =
  match In_channel.with_open_bin path In_channel.input_all |> Jsonu.parse with
  | Ok j -> Ok j
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | exception Sys_error msg -> Error msg

let compare_files ~base ~cand ~threshold =
  match (load_json base, load_json cand) with
  | Error e, _ | _, Error e -> Error e
  | Ok bj, Ok cj -> compare_sides ~threshold (base, bj) (cand, cj)

let comparison_text c =
  let fmt_pct x = Printf.sprintf "%.1f%%" (x *. 100.0) in
  let tbl = Stats.Text_table.create [ "metric"; "base"; "candidate"; "delta"; "" ] in
  List.iter
    (fun r ->
      Stats.Text_table.add_row tbl
        [
          r.metric;
          Printf.sprintf "%.3f" r.base;
          (match r.cand with Some v -> Printf.sprintf "%.3f" v | None -> "missing");
          fmt_pct r.delta;
          (if r.delta > c.threshold then "REGRESSION" else "");
        ])
    c.rows;
  Printf.sprintf "%s comparison (threshold %s)\n%s%d regression(s)\n" c.schema (fmt_pct c.threshold)
    (Stats.Text_table.render tbl) (List.length c.regressions)
