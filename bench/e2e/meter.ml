(* Clocks, allocation counters and order statistics. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9
let minor_words () = Gc.minor_words ()
let peak_rss_mb () = float_of_int (Layers.peak_rss_kb ()) /. 1024.0

(* Time [f] in seconds. *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, since_s t0)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Percentile [p] in (0, 1) of an already sorted array. Simulated latencies
   sit on the topology's 1 ms grid, so a nearest-rank percentile would
   often not move at all when the distribution shifts; instead the rank
   [p * n] is placed within its run of tied values, which spans from the
   midpoint to the previous distinct value to the midpoint to the next
   (the grouped-data median). Without ties this is the nearest-rank
   value, give or take half a gap to its neighbours. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then nan
  else begin
    let pos = p *. float_of_int n in
    let i = max 0 (min (n - 1) (int_of_float pos)) in
    let v = s.(i) in
    (* the run [a, b) of values equal to v *)
    let rec first lo hi = if lo >= hi then lo else let m = (lo + hi) / 2 in if s.(m) < v then first (m + 1) hi else first lo m in
    let rec past lo hi = if lo >= hi then lo else let m = (lo + hi) / 2 in if s.(m) <= v then past (m + 1) hi else past lo m in
    let a = first 0 i and b = past i n in
    let lo_edge = if a = 0 then v else (s.(a - 1) +. v) /. 2.0 in
    let hi_edge = if b = n then v else (v +. s.(b)) /. 2.0 in
    lo_edge +. ((pos -. float_of_int a) /. float_of_int (b - a) *. (hi_edge -. lo_edge))
  end

let median xs =
  match List.length xs with
  | 0 -> nan
  | n ->
      let s = sorted (Array.of_list xs) in
      if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) gives them — the spread the benchmark's
   acceptance rule is stated in. Needs at least two values. *)
let quartiles xs =
  let d = sorted (Array.of_list xs) in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Meter.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

let mean_int a n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + a.(i)
  done;
  if n = 0 then nan else float_of_int !s /. float_of_int n

(* A growable float buffer: latency samples of an open-ended run. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let to_array t = Array.sub t.a 0 t.n
  let sorted t = sorted (to_array t)

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s
end
