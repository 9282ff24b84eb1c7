type request = { origin : int; key : Hashid.Id.t }
type spec = { count : int; keys : Keys.t; origin_bias : float }

let paper_default ~count = { count; keys = Keys.Uniform; origin_bias = 0.0 }

let iter spec ~nodes ~space rng f =
  if nodes <= 0 then invalid_arg "Requests.iter: no nodes";
  let next_key = Keys.generator spec.keys space rng in
  let next_origin =
    if spec.origin_bias <= 0.0 then fun () -> Prng.Rng.int rng nodes
    else begin
      let table = Prng.Dist.make_zipf_table ~n:nodes ~alpha:spec.origin_bias in
      fun () -> Prng.Dist.zipf_draw rng table
    end
  in
  for _ = 1 to spec.count do
    f { origin = next_origin (); key = next_key () }
  done

let to_array spec ~nodes ~space rng =
  let out = Array.make (max spec.count 0) { origin = 0; key = Hashid.Id.zero space } in
  let i = ref 0 in
  iter spec ~nodes ~space rng (fun r ->
      out.(!i) <- r;
      incr i);
  out
