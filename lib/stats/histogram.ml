type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable n : int;
  mutable clamped : int;
}

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if not (hi > lo) then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; width = (hi -. lo) /. float_of_int bins; counts = Array.make bins 0; n = 0; clamped = 0 }

let create_ints ~max =
  create ~lo:(-0.5) ~hi:(float_of_int max +. 0.5) ~bins:(max + 1)

let add t x =
  let bins = Array.length t.counts in
  let raw = int_of_float (floor ((x -. t.lo) /. t.width)) in
  let idx =
    if raw < 0 then begin t.clamped <- t.clamped + 1; 0 end
    else if raw >= bins then begin t.clamped <- t.clamped + 1; bins - 1 end
    else raw
  in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.n <- t.n + 1

let merge a b =
  if
    a.lo <> b.lo || a.hi <> b.hi
    || Array.length a.counts <> Array.length b.counts
  then invalid_arg "Histogram.merge: incompatible bin layouts";
  {
    a with
    counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
    n = a.n + b.n;
    clamped = a.clamped + b.clamped;
  }

let count t = t.n
let clamped t = t.clamped
let bin_count t = Array.length t.counts
let counts t = Array.copy t.counts
let bin_lo t i = t.lo +. (float_of_int i *. t.width)

let pdf t =
  let n = float_of_int (max t.n 1) in
  Array.map (fun c -> float_of_int c /. n) t.counts

let cdf t =
  let p = pdf t in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc)
    p

let quantile t q =
  if t.n = 0 then nan
  else begin
    let target = q *. float_of_int t.n in
    let acc = ref 0.0 and result = ref t.hi in
    (try
       for i = 0 to Array.length t.counts - 1 do
         let next = !acc +. float_of_int t.counts.(i) in
         if next >= target then begin
           let frac =
             if t.counts.(i) = 0 then 0.0
             else (target -. !acc) /. float_of_int t.counts.(i)
           in
           result := bin_lo t i +. (frac *. t.width);
           raise Exit
         end;
         acc := next
       done
     with Exit -> ());
    !result
  end
