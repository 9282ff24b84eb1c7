(* Tests for the observability layer: the metrics registry, the trace
   sinks, the trace-stream invariants of both routing algorithms (qcheck
   properties over random seeds/topologies), the golden-trace regression,
   and the simulation engine's counter conservation law. *)

module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Lookup = Chord.Lookup
module Hlookup = Hieras.Hlookup

(* --- a minimal JSON validity checker ---------------------------------------
   The repo has no JSON parser dependency; the observability layer only
   emits. This recursive-descent acceptor is enough to assert that every
   emitted line/object is well-formed standalone JSON. *)

let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let fail = ref false in
  let expect c = match peek () with Some x when x = c -> advance () | _ -> fail := true in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail := true);
    skip_ws ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let continue = ref true in
      while !continue && not !fail do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' ->
            advance ();
            continue := false
        | _ ->
            fail := true;
            continue := false
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let continue = ref true in
      while !continue && not !fail do
        value ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' ->
            advance ();
            continue := false
        | _ ->
            fail := true;
            continue := false
      done
    end
  and string_lit () =
    expect '"';
    let closed = ref false in
    while (not !closed) && not !fail do
      match peek () with
      | None -> fail := true
      | Some '\\' ->
          advance ();
          if peek () = None then fail := true else advance ()
      | Some '"' ->
          advance ();
          closed := true
      | Some _ -> advance ()
    done
  and keyword () =
    let kw = [ "true"; "false"; "null" ] in
    match
      List.find_opt (fun k -> !pos + String.length k <= n && String.sub s !pos (String.length k) = k) kw
    with
    | Some k -> pos := !pos + String.length k
    | None -> fail := true
  and number () =
    (* permissive: consume the number-ish characters, float_of_string checks *)
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false
    do
      advance ()
    done;
    if float_of_string_opt (String.sub s start (!pos - start)) = None then fail := true
  in
  value ();
  (not !fail) && !pos = n

(* --- metrics registry ------------------------------------------------------ *)

let test_counter_gauge () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "incr+add" 5 (Metrics.counter_value c);
  (* re-registration returns the same handle *)
  Metrics.incr (Metrics.counter m "a.count");
  Alcotest.(check int) "idempotent registration" 6 (Metrics.counter_value c);
  Metrics.set_counter c 42;
  Alcotest.(check int) "set_counter" 42 (Metrics.counter_value c);
  let g = Metrics.gauge m "a.gauge" in
  Metrics.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value (Metrics.gauge m "a.gauge"));
  ignore (Metrics.gauge_value g)

let test_kind_clash_raises () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics: x is already registered as a counter") (fun () ->
      ignore (Metrics.gauge m "x"));
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument "Metrics: x is already registered as a counter") (fun () ->
      ignore (Metrics.histogram m "x"))

let test_histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0; 100.0 |] m "h" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 5.0; 10.0; 99.0; 100.5; 1e9 ];
  match Metrics.find (Metrics.snapshot m) "h" with
  | Some (Metrics.Hist hs) ->
      Alcotest.(check int) "count" 7 hs.Metrics.count;
      Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 2 |] hs.Metrics.bucket_counts;
      Alcotest.(check (float 1e-9)) "sum" (0.5 +. 1.0 +. 5.0 +. 10.0 +. 99.0 +. 100.5 +. 1e9)
        hs.Metrics.sum
  | _ -> Alcotest.fail "histogram not in snapshot"

let test_histogram_validation () =
  let m = Metrics.create () in
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Metrics.histogram: buckets must be strictly increasing") (fun () ->
      ignore (Metrics.histogram ~buckets:[| 1.0; 1.0 |] m "bad"));
  Alcotest.check_raises "empty" (Invalid_argument "Metrics.histogram: empty buckets") (fun () ->
      ignore (Metrics.histogram ~buckets:[||] m "bad2"))

let test_snapshot_sorted_and_rendering () =
  let m = Metrics.create () in
  Metrics.set (Metrics.gauge m "zz") 1.0;
  Metrics.incr (Metrics.counter m "aa");
  Metrics.observe (Metrics.histogram m "mm") 3.0;
  let snap = Metrics.snapshot m in
  Alcotest.(check (list string)) "sorted names" [ "aa"; "mm"; "zz" ] (List.map fst snap);
  (* snapshot is a frozen copy *)
  Metrics.incr (Metrics.counter m "aa");
  Alcotest.(check bool) "frozen" true (Metrics.find snap "aa" = Some (Metrics.Counter 1));
  let json = Metrics.to_json snap in
  Alcotest.(check bool) ("valid JSON: " ^ json) true (json_valid json);
  let text = Metrics.to_text snap in
  Alcotest.(check int) "one line per series" 3
    (List.length (String.split_on_char '\n' (String.trim text)))

(* --- trace sinks ------------------------------------------------------------ *)

let ev_hop i =
  Trace.Hop { lookup = 0; seq = i; layer = 1; from_node = i; to_node = i + 1; latency_ms = 1.0 }

let test_disabled_tracer () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.disabled);
  Alcotest.(check int) "start is 0" 0
    (Trace.start Trace.disabled ~algo:"chord" ~origin:3 ~key:"ff");
  Trace.hop Trace.disabled ~lookup:0 ~seq:0 ~layer:1 ~from_node:0 ~to_node:1 ~latency_ms:1.0;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events Trace.disabled))

let test_ring_keeps_most_recent () =
  let tr = Trace.ring ~capacity:4 in
  Alcotest.(check bool) "enabled" true (Trace.enabled tr);
  for i = 0 to 9 do
    Trace.emit tr (ev_hop i)
  done;
  let seqs =
    List.map (function Trace.Hop { seq; _ } -> seq | _ -> -1) (Trace.events tr)
  in
  Alcotest.(check (list int)) "last 4, oldest first" [ 6; 7; 8; 9 ] seqs;
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.events tr))

let test_ring_ids_sequential () =
  let tr = Trace.ring ~capacity:16 in
  let a = Trace.start tr ~algo:"chord" ~origin:0 ~key:"00" in
  let b = Trace.start tr ~algo:"hieras" ~origin:1 ~key:"01" in
  Alcotest.(check int) "first id" 0 a;
  Alcotest.(check int) "second id" 1 b

let test_jsonl_sink_lines () =
  let buf = Buffer.create 256 in
  let tr = Trace.jsonl (Buffer.add_string buf) in
  let id = Trace.start tr ~algo:"chord" ~origin:7 ~key:"abcd" in
  Trace.hop tr ~lookup:id ~seq:0 ~layer:1 ~from_node:7 ~to_node:9 ~latency_ms:12.5;
  Trace.finish tr ~lookup:id ~destination:9 ~hops:1 ~latency_ms:12.5 ~finished_at_layer:1;
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Alcotest.(check int) "3 lines + trailing" 4 (List.length lines);
  Alcotest.(check string) "trailing newline" "" (List.nth lines 3);
  List.iteri
    (fun i l ->
      if i < 3 then Alcotest.(check bool) ("line parses: " ^ l) true (json_valid l))
    lines;
  Alcotest.(check bool) "start line tagged" true
    (String.length (List.nth lines 0) > 0
    && String.sub (List.nth lines 0) 0 14 = {|{"ev":"start",|})

(* --- trace-stream invariants (qcheck) --------------------------------------- *)

type scenario = {
  net : Chord.Network.t;
  hnet : Hieras.Hnetwork.t;
  lat : Topology.Latency.t;
  nodes : int;
  depth : int;
}

(* Topology construction dominates; cache scenarios per (seed mod variants). *)
let scenario_cache : (int, scenario) Hashtbl.t = Hashtbl.create 8

let scenario_of_seed seed =
  let variant = abs seed mod 6 in
  match Hashtbl.find_opt scenario_cache variant with
  | Some s -> s
  | None ->
      let rng = Prng.Rng.create ~seed:(1000 + variant) in
      let nodes = 48 + (17 * variant) in
      let depth = 2 + (variant mod 2) in
      let lat = Topology.Transit_stub.generate ~hosts:nodes rng in
      let net =
        Chord.Network.build ~space:Hashid.Id.sha1_space ~hosts:(Array.init nodes (fun i -> i)) ()
      in
      let lm = Binning.Landmark.choose_spread lat ~count:4 rng in
      let hnet = Hieras.Hnetwork.build ~chord:net ~lat ~landmarks:lm ~depth () in
      let s = { net; hnet; lat; nodes; depth } in
      Hashtbl.add scenario_cache variant s;
      s

let close a b = Float.abs (a -. b) <= 1e-9 *. (1.0 +. Float.abs a +. Float.abs b)

(* Inline constructor records can't escape a match, so events are destructured
   into these plain mirrors before checking. *)
type start_ev = { s_origin : int; s_key : string }
type hop_ev = { h_seq : int; h_layer : int; h_from : int; h_to : int; h_lat : float }
type end_ev = { e_dest : int; e_hops : int; e_lat : float; e_flayer : int }

(* Split a ring-buffered event stream back into per-lookup (start, hops, end)
   triples and check every invariant the mli promises. *)
let check_traced_lookup ~what ~origin ~key ~(events : Trace.event list) ~destination ~hop_count
    ~latency ~depth ~finished_at_layer =
  let starts, hops, ends =
    List.fold_left
      (fun (s, h, e) ev ->
        match ev with
        | Trace.Start { origin; key; _ } -> ({ s_origin = origin; s_key = key } :: s, h, e)
        | Trace.Hop { seq; layer; from_node; to_node; latency_ms; _ } ->
            ( s,
              { h_seq = seq; h_layer = layer; h_from = from_node; h_to = to_node; h_lat = latency_ms }
              :: h,
              e )
        | Trace.End { destination; hops; latency_ms; finished_at_layer; _ } ->
            ( s,
              h,
              { e_dest = destination; e_hops = hops; e_lat = latency_ms; e_flayer = finished_at_layer }
              :: e )
        | Trace.Recover _ -> (s, h, e))
      ([], [], []) events
  in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  (match (starts, ends) with
  | [ st ], [ en ] ->
      if st.s_origin <> origin then fail "%s: start origin %d <> %d" what st.s_origin origin;
      if st.s_key <> key then fail "%s: start key mismatch" what;
      if en.e_dest <> destination then
        fail "%s: end destination %d <> %d" what en.e_dest destination;
      if en.e_hops <> hop_count then fail "%s: end hops %d <> %d" what en.e_hops hop_count;
      if not (close en.e_lat latency) then fail "%s: end latency %g <> %g" what en.e_lat latency;
      if en.e_flayer <> finished_at_layer then
        fail "%s: finished_at_layer %d <> %d" what en.e_flayer finished_at_layer
  | _ -> fail "%s: expected exactly one start and one end event" what);
  let hops = List.rev hops in
  if List.length hops <> hop_count then
    fail "%s: %d hop events <> hop_count %d" what (List.length hops) hop_count;
  List.iteri
    (fun i h ->
      if h.h_seq <> i then fail "%s: hop %d has seq %d" what i h.h_seq;
      if h.h_layer < 1 || h.h_layer > depth then
        fail "%s: hop %d layer %d outside 1..%d" what i h.h_layer depth)
    hops;
  (* hop-chain contiguity, anchored at origin and destination *)
  let rec chain prev = function
    | [] -> if prev <> destination then fail "%s: chain ends at %d, not destination %d" what prev destination
    | h :: rest ->
        if h.h_from <> prev then
          fail "%s: hop seq %d from %d, previous node %d" what h.h_seq h.h_from prev;
        chain h.h_to rest
  in
  if hop_count > 0 then chain origin hops
  else if origin <> destination then fail "%s: zero hops but origin <> destination" what;
  (* per-hop latencies sum to the result's total *)
  let sum = List.fold_left (fun acc h -> acc +. h.h_lat) 0.0 hops in
  if not (close sum latency) then fail "%s: hop latencies sum %g <> total %g" what sum latency

let trace_prop seed =
  let s = scenario_of_seed seed in
  let rng = Prng.Rng.create ~seed in
  let tr = Trace.ring ~capacity:8192 in
  for _ = 1 to 5 do
    let key = Hashid.Id.random Hashid.Id.sha1_space rng in
    let origin = Prng.Rng.int rng s.nodes in
    (* chord *)
    Trace.clear tr;
    let rc = Lookup.route ~trace:tr s.net s.lat ~origin ~key in
    check_traced_lookup ~what:"chord" ~origin ~key:(Hashid.Id.to_hex key) ~events:(Trace.events tr)
      ~destination:rc.Lookup.destination ~hop_count:rc.Lookup.hop_count ~latency:rc.Lookup.latency
      ~depth:1 ~finished_at_layer:1;
    (* hieras *)
    Trace.clear tr;
    let rh = Hlookup.route ~trace:tr s.hnet ~origin ~key in
    check_traced_lookup ~what:"hieras" ~origin ~key:(Hashid.Id.to_hex key)
      ~events:(Trace.events tr) ~destination:rh.Hlookup.destination ~hop_count:rh.Hlookup.hop_count
      ~latency:rh.Hlookup.latency ~depth:s.depth ~finished_at_layer:rh.Hlookup.finished_at_layer;
    (* per-layer accounting closes over the totals *)
    let layer_hops = Array.fold_left ( + ) 0 rh.Hlookup.hops_per_layer in
    if layer_hops <> rh.Hlookup.hop_count then
      QCheck.Test.fail_reportf "hops_per_layer sums to %d, hop_count %d" layer_hops
        rh.Hlookup.hop_count;
    let layer_lat = Array.fold_left ( +. ) 0.0 rh.Hlookup.latency_per_layer in
    if not (close layer_lat rh.Hlookup.latency) then
      QCheck.Test.fail_reportf "latency_per_layer sums to %g, latency %g" layer_lat
        rh.Hlookup.latency;
    (* trace layer tags agree with the per-layer hop accounting *)
    let per_layer = Array.make s.depth 0 in
    List.iter
      (function
        | Trace.Hop { layer; _ } -> per_layer.(layer - 1) <- per_layer.(layer - 1) + 1
        | _ -> ())
      (Trace.events tr);
    Array.iteri
      (fun k c ->
        if c <> rh.Hlookup.hops_per_layer.(k) then
          QCheck.Test.fail_reportf "layer %d: %d traced hops, %d accounted" (k + 1) c
            rh.Hlookup.hops_per_layer.(k))
      per_layer
  done;
  true

let test_trace_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"traced lookups satisfy stream invariants" ~count:40
       QCheck.(int_range 0 100_000)
       trace_prop)

(* --- golden trace ----------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_path = Filename.concat "golden" "trace_ts64.jsonl"

let test_golden_trace () =
  let want = read_file golden_path in
  let got = Obs_test_support.Golden.build_trace () in
  let want_lines = String.split_on_char '\n' want in
  let got_lines = String.split_on_char '\n' got in
  Alcotest.(check int)
    "line count (regenerate with: dune exec test/support/gen_golden.exe > test/golden/trace_ts64.jsonl)"
    (List.length want_lines) (List.length got_lines);
  List.iteri
    (fun i w -> Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) w (List.nth got_lines i))
    want_lines;
  Alcotest.(check string) "byte-identical" want got

let test_golden_trace_is_valid_jsonl () =
  read_file golden_path |> String.split_on_char '\n'
  |> List.iteri (fun i line ->
         if line <> "" then
           Alcotest.(check bool) (Printf.sprintf "golden line %d parses" (i + 1)) true
             (json_valid line))

(* --- engine counter conservation (qcheck) ------------------------------------ *)

let engine_prop (seed, loss_centi, nodes, ops) =
  let rng = Prng.Rng.create ~seed in
  let eng =
    Simnet.Engine.create ~latency:(fun a b -> 1.0 +. float_of_int (abs (a - b))) ~nodes
  in
  let rate = float_of_int loss_centi /. 100.0 in
  if rate > 0.0 then Simnet.Engine.set_loss eng ~rate ~rng:(Prng.Rng.create ~seed:(seed + 1));
  (* interleave sends from node 0 (kept alive) with local timers,
     kills/revives of others, plus scheduled mid-flight kills — every drop
     path (message loss, dead destination, dead timer owner) is exercised *)
  for op = 1 to ops do
    match Prng.Rng.int rng 5 with
    | 0 | 1 ->
        Simnet.Engine.send eng ~kind:Obs.Netspan.Other ~src:0 ~dst:(Prng.Rng.int rng nodes)
          (fun () -> ())
    | 2 ->
        (* a cancelled timer still fires, as a no-op, and is counted *)
        let h =
          Simnet.Engine.timer eng ~node:(Prng.Rng.int rng nodes)
            ~delay:(float_of_int (op mod 11))
            (fun () -> ())
        in
        if op mod 3 = 0 then Simnet.Engine.cancel eng h
    | 3 ->
        if nodes > 1 then
          let victim = 1 + Prng.Rng.int rng (nodes - 1) in
          if Prng.Rng.int rng 2 = 0 then Simnet.Engine.kill eng victim
          else Simnet.Engine.revive eng victim
    | _ ->
        if nodes > 1 then
          let victim = 1 + Prng.Rng.int rng (nodes - 1) in
          Simnet.Engine.schedule eng ~delay:(float_of_int (op mod 7))
            (fun () -> Simnet.Engine.kill eng victim)
  done;
  Simnet.Engine.run eng;
  let sent = Simnet.Engine.sent eng
  and delivered = Simnet.Engine.delivered eng
  and dead = Simnet.Engine.dropped_dead eng
  and loss = Simnet.Engine.dropped_loss eng
  and tset = Simnet.Engine.timers_set eng
  and tfired = Simnet.Engine.timers_fired eng in
  if sent + tset <> delivered + tfired + dead + loss then
    QCheck.Test.fail_reportf
      "sent %d + timers_set %d <> delivered %d + timers_fired %d + dropped_dead %d + dropped_loss %d"
      sent tset delivered tfired dead loss;
  (* the registry export mirrors the engine's own fields exactly *)
  let m = Metrics.create () in
  Simnet.Engine.export_metrics eng m;
  let snap = Metrics.snapshot m in
  let check name v =
    match Metrics.find snap name with
    | Some (Metrics.Counter c) when c = v -> ()
    | Some (Metrics.Counter c) -> QCheck.Test.fail_reportf "%s: registry %d <> engine %d" name c v
    | _ -> QCheck.Test.fail_reportf "%s missing from registry snapshot" name
  in
  check "simnet.sent" sent;
  check "simnet.delivered" delivered;
  check "simnet.dropped_dead" dead;
  check "simnet.dropped_loss" loss;
  check "simnet.timers_set" tset;
  check "simnet.timers_fired" tfired;
  check "simnet.pending_events" 0;
  true

let test_engine_conservation =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"sent + timers_set = delivered + timers_fired + dropped_dead + dropped_loss"
       ~count:100
       QCheck.(
         quad (int_range 0 1_000_000) (int_range 0 90) (int_range 1 24) (int_range 0 400))
       engine_prop)

(* --- Jsonu parser ------------------------------------------------------------ *)

let test_jsonu_parse () =
  let open Obs.Jsonu in
  (match parse {| {"a": [1, -2.5, true, null], "b": "xé\n"} |} with
  | Ok (Obj [ ("a", Arr [ Num 1.0; Num -2.5; Bool true; Null ]); ("b", Str s) ]) ->
      Alcotest.(check string) "escapes decoded" "x\xc3\xa9\n" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match parse bad with
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1,}"; "1 2"; "nul"; "\"unterminated"; "{\"a\"}"; "01" ];
  (* numbers round-trip through the emitter's shortest representation *)
  List.iter
    (fun f ->
      match parse (number f) with
      | Ok (Num g) -> Alcotest.(check (float 0.0)) (number f) f g
      | _ -> Alcotest.fail ("number did not round-trip: " ^ number f))
    [ 0.0; -1.5; 3.7499999999999996; 1e-9; 6.02214076e23; -0.0001; 42.0 ]

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.set (Metrics.gauge m "neg") (-123.456789);
  Metrics.set (Metrics.gauge m "tiny") 1.0000000000000002;
  Metrics.set_counter (Metrics.counter m "c") 7;
  let json = Metrics.to_json (Metrics.snapshot m) in
  match Obs.Jsonu.parse json with
  | Error e -> Alcotest.fail ("registry JSON does not parse: " ^ e)
  | Ok j ->
      let value name =
        match Option.bind (Obs.Jsonu.member name j) (Obs.Jsonu.member "value") with
        | Some v -> Option.get (Obs.Jsonu.to_float v)
        | None -> Alcotest.fail (name ^ " missing")
      in
      Alcotest.(check (float 0.0)) "negative gauge exact" (-123.456789) (value "neg");
      Alcotest.(check (float 0.0)) "ulp-precision gauge exact" 1.0000000000000002 (value "tiny");
      Alcotest.(check (float 0.0)) "counter" 7.0 (value "c")

(* --- analyzer ---------------------------------------------------------------- *)

module Analyze = Obs.Analyze

(* Feed the tracer output of real lookups straight into the analyzer and
   check the report against the routing results it summarises. *)
let analyze_prop seed =
  let s = scenario_of_seed seed in
  let rng = Prng.Rng.create ~seed in
  let an = Analyze.create () in
  let tr = Trace.ring ~capacity:65536 in
  let lookups = 8 in
  let chord_hops = ref 0 and chord_lat = ref 0.0 in
  let hieras_hops = ref 0 and hieras_lat = ref 0.0 in
  for _ = 1 to lookups do
    let key = Hashid.Id.random Hashid.Id.sha1_space rng in
    let origin = Prng.Rng.int rng s.nodes in
    let rc = Lookup.route ~trace:tr s.net s.lat ~origin ~key in
    chord_hops := !chord_hops + rc.Lookup.hop_count;
    chord_lat := !chord_lat +. rc.Lookup.latency;
    let rh = Hlookup.route ~trace:tr s.hnet ~origin ~key in
    hieras_hops := !hieras_hops + rh.Hlookup.hop_count;
    hieras_lat := !hieras_lat +. rh.Hlookup.latency
  done;
  List.iter (Analyze.feed_event an) (Trace.events tr);
  let r = Analyze.report an in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  if r.Analyze.violations <> 0 then fail "%d violations on a clean trace" r.Analyze.violations;
  if r.Analyze.spans_open <> 0 then fail "%d open spans" r.Analyze.spans_open;
  if List.length r.Analyze.algos <> 2 then fail "expected 2 algos";
  List.iter
    (fun (a : Analyze.algo_report) ->
      if a.Analyze.lookups <> lookups then
        fail "%s: %d lookups recorded, %d run" a.Analyze.algo a.Analyze.lookups lookups;
      let want_hops, want_lat =
        if a.Analyze.algo = "chord" then (!chord_hops, !chord_lat) else (!hieras_hops, !hieras_lat)
      in
      (* means agree with the End events of the actual routing results *)
      if not (close a.Analyze.hops_mean (float_of_int want_hops /. float_of_int lookups)) then
        fail "%s: hops_mean %g, expected %g" a.Analyze.algo a.Analyze.hops_mean
          (float_of_int want_hops /. float_of_int lookups);
      if not (close a.Analyze.latency_mean_ms (want_lat /. float_of_int lookups)) then
        fail "%s: latency_mean %g, expected %g" a.Analyze.algo a.Analyze.latency_mean_ms
          (want_lat /. float_of_int lookups);
      (* per-layer attribution closes over the totals *)
      (match a.Analyze.layers with
      | [] -> if want_hops > 0 then fail "%s: no layer stats" a.Analyze.algo
      | layers ->
          let hop_share = List.fold_left (fun acc l -> acc +. l.Analyze.hop_share) 0.0 layers in
          let lat_share = List.fold_left (fun acc l -> acc +. l.Analyze.latency_share) 0.0 layers in
          if not (close hop_share 1.0) then fail "%s: hop shares sum to %g" a.Analyze.algo hop_share;
          if not (close lat_share 1.0) then
            fail "%s: latency shares sum to %g" a.Analyze.algo lat_share;
          let l_hops = List.fold_left (fun acc l -> acc + l.Analyze.l_hops) 0 layers in
          if l_hops <> want_hops then
            fail "%s: layer hops %d <> total %d" a.Analyze.algo l_hops want_hops;
          let l_lat = List.fold_left (fun acc l -> acc +. l.Analyze.l_latency_ms) 0.0 layers in
          if not (close l_lat want_lat) then
            fail "%s: layer latency %g <> total %g" a.Analyze.algo l_lat want_lat);
      (* ring residency partitions the lookups *)
      let fin = List.fold_left (fun acc (_, n) -> acc + n) 0 a.Analyze.finished_at in
      if fin <> lookups then fail "%s: finished_at sums to %d" a.Analyze.algo fin;
      (* forwarding shares over the hotspot list never exceed 1 *)
      let fwd = List.fold_left (fun acc h -> acc +. h.Analyze.fwd_share) 0.0 a.Analyze.hotspots in
      if fwd > 1.0 +. 1e-9 then fail "%s: hotspot shares sum to %g > 1" a.Analyze.algo fwd;
      if a.Analyze.gini < 0.0 || a.Analyze.gini > 1.0 then
        fail "%s: gini %g outside [0,1]" a.Analyze.algo a.Analyze.gini)
    r.Analyze.algos;
  (* both renderings are total and the JSON one parses *)
  let json = Analyze.report_json r in
  if not (json_valid json) then fail "report JSON invalid";
  ignore (Analyze.report_text r);
  true

let test_analyze_invariants =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"analyzer report agrees with the routed lookups" ~count:25
       QCheck.(int_range 0 100_000)
       analyze_prop)

let test_analyze_golden_report () =
  let want = read_file (Filename.concat "golden" "report_ts64.json") in
  let got = Obs_test_support.Golden.build_report () in
  Alcotest.(check string)
    "byte-identical (regenerate with: dune exec test/support/gen_golden.exe -- --report > test/golden/report_ts64.json)"
    want got;
  (* and the streaming file path agrees with the in-memory path *)
  let an = Analyze.of_file golden_path in
  Alcotest.(check string) "of_file agrees" want (Analyze.report_json (Analyze.report an) ^ "\n")

let test_analyze_audit_detects_corruption () =
  let feed an lines = List.iter (Analyze.feed_line an) lines in
  (* a well-formed span, but End claims one hop too many *)
  let an = Analyze.create () in
  feed an
    [
      {|{"ev":"start","lookup":0,"algo":"chord","origin":3,"key":"ff"}|};
      {|{"ev":"hop","lookup":0,"seq":0,"layer":1,"from":3,"to":9,"lat_ms":5}|};
      {|{"ev":"end","lookup":0,"dest":9,"hops":2,"lat_ms":5,"finished_at_layer":1}|};
    ];
  Alcotest.(check int) "hop-count mismatch counted" 1 (Analyze.report an).Analyze.violations;
  (* broken hop chain: second hop does not start where the first ended *)
  let an = Analyze.create () in
  feed an
    [
      {|{"ev":"start","lookup":1,"algo":"chord","origin":0,"key":"00"}|};
      {|{"ev":"hop","lookup":1,"seq":0,"layer":1,"from":0,"to":4,"lat_ms":1}|};
      {|{"ev":"hop","lookup":1,"seq":1,"layer":1,"from":5,"to":6,"lat_ms":1}|};
      {|{"ev":"end","lookup":1,"dest":6,"hops":2,"lat_ms":2,"finished_at_layer":1}|};
    ];
  Alcotest.(check int) "chain break counted" 1 (Analyze.report an).Analyze.violations;
  (* an End without a Start *)
  let an = Analyze.create () in
  feed an [ {|{"ev":"end","lookup":9,"dest":1,"hops":0,"lat_ms":0,"finished_at_layer":1}|} ];
  Alcotest.(check int) "orphan end counted" 1 (Analyze.report an).Analyze.violations;
  (* truncated trace: Start without End is open, not a violation *)
  let an = Analyze.create () in
  feed an [ {|{"ev":"start","lookup":2,"algo":"chord","origin":0,"key":"00"}|} ];
  let r = Analyze.report an in
  Alcotest.(check int) "open span" 1 r.Analyze.spans_open;
  Alcotest.(check int) "no violation" 0 r.Analyze.violations;
  (* malformed lines fail loudly *)
  let an = Analyze.create () in
  List.iter
    (fun (what, line) ->
      Alcotest.(check bool) what true
        (try
           Analyze.feed_line an line;
           false
         with Failure _ -> true))
    [
      ("bad line raises", {|{"ev":"frobnicate"}|});
      ("drop with a numeric ctx raises", {|{"ev":"drop","ctx":7,"span":1,"at":2.5,"why":"loss"}|});
      ("drop without at raises", {|{"ev":"drop","span":1,"why":"loss"}|});
    ];
  Analyze.feed_line an "";
  Alcotest.(check int) "blank lines ignored" 0 (Analyze.report an).Analyze.events

module Gate = Obs.Gate
module Golden = Obs_test_support.Golden

let parse_json s = match Obs.Jsonu.parse s with Ok j -> j | Error e -> Alcotest.fail e

let with_temp_file content f =
  let path = Filename.temp_file "analyze_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc content);
      f path)

let test_analyze_compare () =
  let report_of lines =
    let an = Analyze.create () in
    List.iter (Analyze.feed_line an) lines;
    Analyze.report_json (Analyze.report an)
  in
  let span ~lookup ~lat =
    [
      Printf.sprintf {|{"ev":"start","lookup":%d,"algo":"chord","origin":0,"key":"00"}|} lookup;
      Printf.sprintf {|{"ev":"hop","lookup":%d,"seq":0,"layer":1,"from":0,"to":1,"lat_ms":%g}|}
        lookup lat;
      Printf.sprintf
        {|{"ev":"end","lookup":%d,"dest":1,"hops":1,"lat_ms":%g,"finished_at_layer":1}|} lookup lat;
    ]
  in
  let base = report_of (span ~lookup:0 ~lat:100.0) in
  let slower = report_of (span ~lookup:0 ~lat:150.0) in
  with_temp_file base (fun b ->
      with_temp_file slower (fun c ->
          match Gate.compare_files ~base:b ~cand:c ~threshold:0.2 with
          | Error e -> Alcotest.fail e
          | Ok cmp ->
              Alcotest.(check string) "kind" "hieras-trace-report" cmp.Gate.schema;
              let reg = List.map (fun r -> r.Gate.metric) cmp.Gate.regressions in
              Alcotest.(check bool) "latency regression flagged" true
                (List.mem "chord.latency_ms.mean" reg);
              (* the 50% slowdown appears with the right delta *)
              let row =
                List.find (fun r -> r.Gate.metric = "chord.latency_ms.mean") cmp.Gate.rows
              in
              Alcotest.(check (float 1e-9)) "delta" 0.5 row.Gate.delta;
              ignore (Gate.comparison_text cmp));
      (* same file against itself: no regressions *)
      with_temp_file base (fun c ->
          match Gate.compare_files ~base:b ~cand:c ~threshold:0.2 with
          | Error e -> Alcotest.fail e
          | Ok cmp -> Alcotest.(check int) "self-compare clean" 0 (List.length cmp.Gate.regressions)));
  (* mismatched kinds are an error, not a silent empty diff *)
  with_temp_file base (fun b ->
      with_temp_file
        {|{"schema":"hieras-bench","label":"x","micro":[{"name":"op","ns_per_op":5}],"gated":[{"name":"micro.op.ns_per_op","value":5,"better":"lower","unit":"ns"}]}|}
        (fun c ->
          match Gate.compare_files ~base:b ~cand:c ~threshold:0.2 with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "kind mismatch accepted"))

let test_analyze_compare_bench () =
  let bench label ns secs =
    Printf.sprintf
      {|{"schema":"hieras-bench","label":"%s","figures":[{"id":"fig4","seconds":%g}],"micro":[{"name":"op","ns_per_op":%g}],"gated":[{"name":"micro.op.ns_per_op","value":%g,"better":"lower","unit":"ns"},{"name":"figure.fig4.seconds","value":%g,"better":"lower","unit":"s"}]}|}
      label secs ns ns secs
  in
  with_temp_file (bench "a" 100.0 2.0) (fun b ->
      with_temp_file (bench "b" 130.0 2.0) (fun c ->
          match Gate.compare_files ~base:b ~cand:c ~threshold:0.2 with
          | Error e -> Alcotest.fail e
          | Ok cmp ->
              Alcotest.(check string) "kind" "hieras-bench" cmp.Gate.schema;
              Alcotest.(check (list string)) "only the micro regressed" [ "micro.op.ns_per_op" ]
                (List.map (fun r -> r.Gate.metric) cmp.Gate.regressions)))

(* A healthy base gates the recover counts it does not render: the same span
   with one zero-delay retry flags exactly chord.recover.retries. *)
let test_compare_flags_new_recovery () =
  let report_of lines =
    let an = Analyze.create () in
    List.iter (Analyze.feed_line an) lines;
    parse_json (Analyze.report_json (Analyze.report an))
  in
  let start = {|{"ev":"start","lookup":0,"algo":"chord","origin":0,"key":"00"}|} in
  let rest =
    [
      {|{"ev":"hop","lookup":0,"seq":0,"layer":1,"from":0,"to":1,"lat_ms":100}|};
      {|{"ev":"end","lookup":0,"dest":1,"hops":1,"lat_ms":100,"finished_at_layer":1}|};
    ]
  in
  let retry = {|{"ev":"recover","lookup":0,"kind":"retry","layer":1,"at":0,"dead":5,"delay_ms":0}|} in
  match
    Gate.compare ~threshold:0.2 ~base:(report_of (start :: rest))
      ~cand:(report_of (start :: retry :: rest))
  with
  | Error e -> Alcotest.fail e
  | Ok cmp ->
      Alcotest.(check (list string)) "retry flagged" [ "chord.recover.retries" ]
        (List.map (fun r -> r.Gate.metric) cmp.Gate.regressions)

(* A soak run that lost a cell is a regression, not a smaller clean diff. *)
let test_compare_flags_missing_cell () =
  let r = Experiments.Soak.run Golden.soak_spec in
  let cand = Experiments.Soak.results_json { r with Experiments.Soak.cells = List.tl r.Experiments.Soak.cells } in
  match
    Gate.compare ~threshold:0.2
      ~base:(parse_json (read_file (Filename.concat "golden" "soak_ts64.json")))
      ~cand:(parse_json cand)
  with
  | Error e -> Alcotest.fail e
  | Ok cmp ->
      let missing = List.filter (fun r -> r.Gate.cand = None) cmp.Gate.rows in
      Alcotest.(check bool) "missing rows" true (missing <> []);
      Alcotest.(check bool) "missing rows are regressions" true
        (List.for_all (fun r -> List.memq r cmp.Gate.regressions) missing)

(* Every producer's artifact passes the gate against itself, scaling any one
   gated value past the threshold flags exactly that row, and a foreign
   schema, a missing gated list or a direction other than "lower" is an
   error. *)
let test_gate_envelopes () =
  let open Obs.Jsonu in
  let threshold = 0.2 in
  (* rewrite (or, on None, drop) member [k] of an object *)
  let map_member k f = function
    | Obj ms ->
        Obj (List.filter_map (fun (k', v) -> if k' = k then Option.map (fun v -> (k, v)) (f v) else Some (k', v)) ms)
    | j -> j
  in
  let net_report =
    let an = Analyze.create () in
    String.split_on_char '\n' (Golden.build_netspan ()) |> List.iter (Analyze.feed_line an);
    Analyze.net_report_json (Option.get (Analyze.net_report an))
  in
  List.iter
    (fun (what, text) ->
      let base = parse_json text in
      let gated = Option.get (Option.bind (member "gated" base) to_list) in
      let with_gated l = map_member "gated" (fun _ -> Some (Arr l)) base in
      let cmp cand = Gate.compare ~threshold ~base ~cand in
      (match cmp base with
      | Error e -> Alcotest.failf "%s: %s" what e
      | Ok c ->
          Alcotest.(check int) (what ^ ": one row per entry") (List.length gated) (List.length c.Gate.rows);
          Alcotest.(check int) (what ^ ": self-compare clean") 0 (List.length c.Gate.regressions));
      List.iteri
        (fun i e ->
          let name = Option.get (Option.bind (member "name" e) to_string) in
          let v = Option.get (Option.bind (member "value" e) to_float) in
          if v > 0.0 then
            let scaled = map_member "value" (fun _ -> Some (Num (v *. (1.0 +. (2.0 *. threshold))))) e in
            match cmp (with_gated (List.mapi (fun j e -> if j = i then scaled else e) gated)) with
            | Error e -> Alcotest.failf "%s: %s" what e
            | Ok c ->
                Alcotest.(check (list string)) (what ^ ": " ^ name) [ name ]
                  (List.map (fun r -> r.Gate.metric) c.Gate.regressions))
        gated;
      let higher = map_member "better" (fun _ -> Some (Str "higher")) (List.hd gated) in
      List.iter
        (fun (label, cand) ->
          match cmp cand with Ok _ -> Alcotest.failf "%s: %s accepted" what label | Error _ -> ())
        [
          ("another schema", map_member "schema" (fun _ -> Some (Str "hieras-other")) base);
          ("no gated member", map_member "gated" (fun _ -> None) base);
          ("better higher", with_gated (higher :: List.tl gated));
        ])
    [
      ("trace report", Golden.build_report ());
      ("resilience report", Golden.build_resilience ());
      ("soak", Golden.build_soak ());
      ("soak variants", Golden.build_soak_variants ());
      ("scale", Golden.build_scale ());
      ("cache", Golden.build_cache ());
      ("tournament", Golden.build_tournament ());
      ("netspan report", net_report);
      ("scale bench", Experiments.Scale.bench_json (Experiments.Scale.run Golden.scale_spec));
      ("bench", read_file (Filename.concat ".." "BENCH_smoke.json"));
    ]

(* --- phase timer -------------------------------------------------------------- *)

module Timer = Obs.Timer

(* fake clock: each reading advances by 1.0s — a leaf span (entry + exit
   reading) measures exactly 1s, so all renderings are deterministic *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

let test_timer_disabled () =
  Alcotest.(check bool) "disabled" false (Timer.enabled Timer.disabled);
  Alcotest.(check int) "span runs thunk" 41 (Timer.span Timer.disabled "x" (fun () -> 41));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Timer.roots Timer.disabled))

let test_timer_tree () =
  let tm = Timer.create ~clock:(fake_clock ()) in
  Timer.span tm "build" (fun () ->
      Timer.span tm "topology" (fun () -> ());
      Timer.span tm "binning" (fun () -> ()));
  Timer.span tm "replay" (fun () -> ());
  Timer.span tm "replay" (fun () -> ());
  match Timer.roots tm with
  | [ b; r ] ->
      Alcotest.(check string) "first root" "build" b.Timer.name;
      Alcotest.(check (list string)) "children in entry order" [ "topology"; "binning" ]
        (List.map (fun n -> n.Timer.name) b.Timer.children);
      Alcotest.(check string) "second root" "replay" r.Timer.name;
      Alcotest.(check int) "re-entry accumulates" 2 r.Timer.count;
      (* fake clock: a leaf span spans one tick, the parent's entry/exit
         readings bracket both children (entry 0, exits at 2 and 4, exit 5) *)
      Alcotest.(check (float 1e-9)) "child total" 1.0 (List.hd b.Timer.children).Timer.total_s;
      Alcotest.(check (float 1e-9)) "parent self = total - children" (b.Timer.total_s -. 2.0)
        (Timer.self_s b);
      Alcotest.(check (float 1e-9)) "replay total accumulates" 2.0 r.Timer.total_s
  | l -> Alcotest.fail (Printf.sprintf "expected 2 roots, got %d" (List.length l))

let test_timer_raise_still_recorded () =
  let tm = Timer.create ~clock:(fake_clock ()) in
  (try Timer.span tm "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Timer.roots tm with
  | [ n ] ->
      Alcotest.(check string) "recorded" "boom" n.Timer.name;
      Alcotest.(check bool) "time accumulated" true (n.Timer.total_s > 0.0)
  | _ -> Alcotest.fail "span lost on raise"

let test_timer_renderings_deterministic () =
  let build () =
    let tm = Timer.create ~clock:(fake_clock ()) in
    Timer.span tm "a" (fun () -> Timer.span tm "b" (fun () -> ()));
    tm
  in
  let tm = build () in
  Alcotest.(check string) "folded stable" (Timer.folded tm) (Timer.folded (build ()));
  Alcotest.(check string) "text stable" (Timer.to_text tm) (Timer.to_text (build ()));
  Alcotest.(check bool) "folded lines are path space value" true
    (String.split_on_char '\n' (String.trim (Timer.folded tm))
    |> List.for_all (fun l -> String.contains l ' '));
  let m = Metrics.create () in
  Timer.export_metrics tm m;
  let snap = Metrics.snapshot m in
  (match Metrics.find snap "timer.a.b.count" with
  | Some (Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "timer.a.b.count missing");
  match Metrics.find snap "timer.a.total_ms" with
  | Some (Metrics.Gauge g) -> Alcotest.(check (float 1e-9)) "total ms" 3000.0 g
  | _ -> Alcotest.fail "timer.a.total_ms missing"

(* --- time series --------------------------------------------------------------- *)

module Ts = Obs.Timeseries

let test_timeseries_disabled () =
  Alcotest.(check bool) "disabled" false (Ts.enabled Ts.disabled);
  let c = Ts.counter Ts.disabled "x" in
  Ts.add c ~at:5.0 1.0;
  Alcotest.(check int) "no series" 0 (List.length (Ts.names Ts.disabled))

let test_timeseries_bucketing () =
  let ts = Ts.create ~bucket_ms:100.0 () in
  let c = Ts.counter ts "ev" in
  Ts.add c ~at:10.0 1.0;
  Ts.add c ~at:99.0 2.0;
  Ts.add c ~at:100.0 5.0;
  Ts.add c ~at:250.0 1.0;
  let g = Ts.gauge ts "lvl" in
  Ts.set g ~at:10.0 7.0;
  Ts.set g ~at:90.0 9.0;
  (* counter buckets sum, gauge buckets keep the last write *)
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "counter points"
    [ (0.0, 3.0); (100.0, 5.0); (200.0, 1.0) ]
    (List.map (fun p -> (p.Ts.t_ms, p.Ts.v)) (Ts.points ts "ev"));
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "gauge last-write-wins" [ (0.0, 9.0) ]
    (List.map (fun p -> (p.Ts.t_ms, p.Ts.v)) (Ts.points ts "lvl"));
  Alcotest.(check (list string)) "names sorted" [ "ev"; "lvl" ] (Ts.names ts);
  (* kind discipline *)
  Alcotest.(check bool) "set on counter raises" true
    (try
       Ts.set c ~at:0.0 1.0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "kind clash raises" true
    (try
       ignore (Ts.gauge ts "ev");
       false
     with Invalid_argument _ -> true);
  (* renderings parse and are stable *)
  let json = Ts.to_json ts in
  Alcotest.(check bool) ("valid JSON: " ^ json) true (json_valid json);
  Alcotest.(check string) "json stable" json (Ts.to_json ts);
  let m = Metrics.create () in
  Ts.export_metrics ts m;
  let snap = Metrics.snapshot m in
  (match Metrics.find snap "ts.ev.sum" with
  | Some (Metrics.Gauge g) -> Alcotest.(check (float 0.0)) "counter sum" 9.0 g
  | _ -> Alcotest.fail "ts.ev.sum missing");
  match Metrics.find snap "ts.lvl.last" with
  | Some (Metrics.Gauge g) -> Alcotest.(check (float 0.0)) "gauge last" 9.0 g
  | _ -> Alcotest.fail "ts.lvl.last missing"

let test_timeseries_bucket_edges () =
  let ts = Ts.create ~bucket_ms:100.0 () in
  let c = Ts.counter ts "ev" in
  (* a stamp exactly on a bucket edge opens the new bucket, never pads the
     old one *)
  Ts.add c ~at:0.0 1.0;
  Ts.add c ~at:100.0 1.0;
  Ts.add c ~at:200.0 1.0;
  Alcotest.(check (list (float 0.0)))
    "edge stamps open their own buckets" [ 0.0; 100.0; 200.0 ]
    (List.map (fun p -> p.Ts.t_ms) (Ts.points ts "ev"));
  (* equal stamps are fine: same bucket, values accumulate *)
  Ts.add c ~at:200.0 2.0;
  Alcotest.(check (float 0.0)) "equal stamp accumulates" 3.0
    (List.nth (Ts.points ts "ev") 2).Ts.v;
  (* a single-point series has a well-defined horizon *)
  let ts1 = Ts.create ~bucket_ms:100.0 () in
  Ts.set (Ts.gauge ts1 "g") ~at:42.0 1.0;
  Alcotest.(check (list (float 0.0))) "single point" [ 0.0 ]
    (List.map (fun p -> p.Ts.t_ms) (Ts.points ts1 "g"));
  Alcotest.(check bool) ("single-point json parses: " ^ Ts.to_json ts1) true
    (json_valid (Ts.to_json ts1))

let test_timeseries_monotone_stamps () =
  let ts = Ts.create ~bucket_ms:100.0 () in
  let c = Ts.counter ts "ev" in
  let g = Ts.gauge ts "lvl" in
  Ts.add c ~at:250.0 1.0;
  Ts.set g ~at:300.0 5.0;
  (* regressing stamps raise per series, not globally: "ev" is at 250 *)
  Alcotest.check_raises "add regresses"
    (Invalid_argument "Timeseries.add: stamp 249 regresses behind 250") (fun () ->
      Ts.add c ~at:249.0 1.0);
  Alcotest.check_raises "set regresses"
    (Invalid_argument "Timeseries.set: stamp 299 regresses behind 300") (fun () ->
      Ts.set g ~at:299.0 1.0);
  (* equal stamps are allowed, and an independent series has its own clock *)
  Ts.add c ~at:250.0 1.0;
  Ts.set g ~at:300.0 6.0;
  Ts.add (Ts.counter ts "other") ~at:10.0 1.0;
  (* kind discipline is checked before monotonicity: a stale-stamped write
     of the wrong kind reports the kind clash *)
  Alcotest.(check bool) "kind check first" true
    (try
       Ts.set c ~at:0.0 1.0;
       false
     with Invalid_argument m -> m = "Timeseries.set: counter series")

(* --- registry export from the runner ----------------------------------------- *)

let test_runner_registry_export () =
  let cfg =
    let open Experiments.Config in
    let c = paper_default in
    let c = with_nodes c 96 in
    let c = with_requests c 400 in
    with_seed c 11
  in
  let reg = Metrics.create () in
  let m = Experiments.Runner.run ~registry:reg cfg in
  let snap = Metrics.snapshot reg in
  (match Metrics.find snap "runner.requests" with
  | Some (Metrics.Counter c) -> Alcotest.(check int) "request count" 400 c
  | _ -> Alcotest.fail "runner.requests missing");
  (match Metrics.find snap "runner.hieras.hops_mean" with
  | Some (Metrics.Gauge g) ->
      Alcotest.(check (float 0.0)) "hops mean matches metrics" (Stats.Summary.mean m.Experiments.Runner.hieras_hops) g
  | _ -> Alcotest.fail "runner.hieras.hops_mean missing");
  let json = Metrics.to_json snap in
  Alcotest.(check bool) "registry JSON parses" true (json_valid json)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "kind clash raises" `Quick test_kind_clash_raises;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram validation" `Quick test_histogram_validation;
          Alcotest.test_case "snapshot sorted + rendering" `Quick test_snapshot_sorted_and_rendering;
        ] );
      ( "trace-sinks",
        [
          Alcotest.test_case "disabled tracer" `Quick test_disabled_tracer;
          Alcotest.test_case "ring keeps most recent" `Quick test_ring_keeps_most_recent;
          Alcotest.test_case "ring ids sequential" `Quick test_ring_ids_sequential;
          Alcotest.test_case "jsonl one line per event" `Quick test_jsonl_sink_lines;
        ] );
      ("trace-invariants", [ test_trace_invariants ]);
      ( "golden",
        [
          Alcotest.test_case "fixed-seed TS-64 trace is byte-identical" `Quick test_golden_trace;
          Alcotest.test_case "golden file is valid JSONL" `Quick test_golden_trace_is_valid_jsonl;
        ] );
      ( "jsonu",
        [
          Alcotest.test_case "parser accepts/rejects/round-trips" `Quick test_jsonu_parse;
          Alcotest.test_case "registry JSON round-trips floats" `Quick test_metrics_json_roundtrip;
        ] );
      ( "analyze",
        [
          test_analyze_invariants;
          Alcotest.test_case "golden report is byte-identical" `Quick test_analyze_golden_report;
          Alcotest.test_case "audit detects corrupted traces" `Quick
            test_analyze_audit_detects_corruption;
          Alcotest.test_case "compare flags trace-report regressions" `Quick test_analyze_compare;
          Alcotest.test_case "compare flags bench regressions" `Quick test_analyze_compare_bench;
          Alcotest.test_case "compare flags a recovery the base did not render" `Quick
            test_compare_flags_new_recovery;
          Alcotest.test_case "compare flags a missing soak cell" `Quick test_compare_flags_missing_cell;
          Alcotest.test_case "every producer's gated envelope" `Quick test_gate_envelopes;
        ] );
      ( "timer",
        [
          Alcotest.test_case "disabled timer records nothing" `Quick test_timer_disabled;
          Alcotest.test_case "span tree and accumulation" `Quick test_timer_tree;
          Alcotest.test_case "raising span still recorded" `Quick test_timer_raise_still_recorded;
          Alcotest.test_case "renderings deterministic under fake clock" `Quick
            test_timer_renderings_deterministic;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "disabled collector records nothing" `Quick test_timeseries_disabled;
          Alcotest.test_case "bucketing, kinds, renderings" `Quick test_timeseries_bucketing;
          Alcotest.test_case "bucket edges and single points" `Quick test_timeseries_bucket_edges;
          Alcotest.test_case "regressing stamps fail loudly" `Quick
            test_timeseries_monotone_stamps;
        ] );
      ("engine", [ test_engine_conservation ]);
      ("runner", [ Alcotest.test_case "registry export" `Quick test_runner_registry_export ]);
    ]
