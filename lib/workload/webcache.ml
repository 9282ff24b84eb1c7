module Id = Hashid.Id

type obj = { name : string; key : Id.t; bytes : int }
type request = { origin : int; obj : int }

type spec = { count : int; objects : int; alpha : float }

let default_spec = { count = 1_000; objects = 128; alpha = 0.8 }
let min_bytes = 512
let max_bytes = 65_536

let validate s =
  if s.count < 0 then Error "request count must be >= 0"
  else if s.objects < 1 then Error "catalogue must hold at least one object"
  else if s.alpha < 0.0 then Error "zipf alpha must be >= 0"
  else Ok ()

(* The catalogue is a pure function of the spec's shape (never of the
   request stream's rng): object i is the file "obj-<i>", stored under the
   paper's SHA-1 file key, with a Pareto-ish size drawn from a fixed-seed
   rng so two streams over one catalogue agree on every byte count. *)
let catalogue spec space =
  let rng = Prng.Rng.create ~seed:((spec.objects * 2654435761) lxor 0x5ca1ab1e) in
  Array.init spec.objects (fun i ->
      let name = Printf.sprintf "obj-%d" i in
      (* heavy-tailed sizes clipped into [min, max]: most objects are
         small, a few approach the cap — the web's size distribution *)
      let raw = Prng.Dist.pareto rng ~shape:1.2 ~scale:(float_of_int min_bytes) in
      let bytes = min max_bytes (max min_bytes (int_of_float raw)) in
      { name; key = Keys.file_key space name; bytes })

let iter spec ~nodes rng f =
  if nodes < 1 then invalid_arg "Webcache.iter: nodes must be >= 1";
  (match validate spec with Ok () -> () | Error msg -> invalid_arg ("Webcache.iter: " ^ msg));
  let table = Prng.Dist.make_zipf_table ~n:spec.objects ~alpha:spec.alpha in
  for _ = 1 to spec.count do
    let obj = Prng.Dist.zipf_draw rng table in
    let origin = Prng.Rng.int rng nodes in
    f { origin; obj }
  done

let to_array spec ~nodes rng =
  let out = Array.make (max spec.count 1) { origin = 0; obj = 0 } in
  let i = ref 0 in
  iter spec ~nodes rng (fun r ->
      out.(!i) <- r;
      incr i);
  Array.sub out 0 spec.count
