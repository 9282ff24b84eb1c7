(* What a workload receives and what it hands back. *)

type ctx = {
  seed : int;  (** draws the requests: origins, keys, op mixes, zipf ranks, clients *)
  seconds : float;  (** wall seconds the measured phase lasts *)
  quick : bool;  (** tiny sizes: the self-test *)
  spans : Spans.t;  (** {!Spans.off} unless the run is traced *)
}

let traced ctx = Spans.enabled ctx.spans

type out = {
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable problems : string list;  (** correctness violations, newest first *)
  mutable notes : string list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create_out () = { metrics = []; problems = []; notes = []; attempted = 0; failed = 0 }
let metric out name unit v = out.metrics <- (name, v, unit) :: out.metrics
let problem out fmt = Printf.ksprintf (fun s -> out.problems <- s :: out.problems) fmt
let note out fmt = Printf.ksprintf (fun s -> out.notes <- s :: out.notes) fmt

let setups = 3

(* Build the workload's state [setups] times and keep the last one;
   [setup_s] is the median build time, so that work moved into set-up
   shows while a single slow build does not. The previous state is
   released and the heap compacted before each rebuild, so the peak
   resident set is that of one state. *)
let repeated_setup out build =
  let last = ref None and times = ref [] in
  for _ = 1 to setups do
    if Option.is_some !last then begin
      last := None;
      Gc.compact ()
    end;
    let v, dt = Meter.time build in
    last := Some v;
    times := dt :: !times
  done;
  metric out "setup_s" "s" (Meter.median !times);
  Option.get !last

(* Slice-timed rate: the median over slices of ops per wall second, robust
   to a slice that lost the CPU. *)
let median_rate slices = Meter.median (List.map (fun (ops, s) -> float_of_int ops /. s) slices)

(* [ops_per_s] is the 90th percentile of the slices' rates: the rate the
   program sustains when nothing else on the machine slows it. On a
   shared host, interference from other tenants comes in bursts of
   seconds that drag down a varying share of a run's slices; the median
   then moved by 8-20% between identical runs, the 90th percentile by
   6-15%. *)
let throughput out slices =
  let s = Meter.sorted (Array.of_list (List.map (fun (ops, w) -> float_of_int ops /. w) slices)) in
  metric out "ops_per_s" "1/s" (Meter.percentile s 0.9);
  note out "ops_per_s over %d slices: p10 %.0f, p50 %.0f, p90 %.0f" (Array.length s) (Meter.percentile s 0.1)
    (Meter.percentile s 0.5) (Meter.percentile s 0.9)

(* Request latency in simulated ms: the median and p99.9, with the sample
   count (every workload gives p99.9 at least ten samples beyond it). *)
let latency_metrics out ~algo samples =
  let s = Meter.sorted samples in
  let n = Array.length s in
  metric out (algo ^ ".sim_ms_p50") "ms" (Meter.percentile s 0.5);
  metric out (algo ^ ".sim_ms_p999") "ms" (Meter.percentile s 0.999);
  note out "%s.sim_ms: %d samples, %d beyond p99.9" algo n (n - int_of_float (ceil (0.999 *. float_of_int n)))
