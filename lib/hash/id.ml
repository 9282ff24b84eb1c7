type space = { bits : int; nbytes : int; top_mask : int; low : int }
(* [low]: the bits below [prefix_int], every byte past the seventh *)
type t = string (* big-endian, length nbytes, top byte masked to top_mask *)

let space ~bits =
  if bits < 1 || bits > 160 then invalid_arg "Id.space: bits must be in [1, 160]";
  let nbytes = (bits + 7) / 8 in
  let rem = bits mod 8 in
  let top_mask = if rem = 0 then 0xFF else (1 lsl rem) - 1 in
  { bits; nbytes; top_mask; low = 8 * Int.max 0 (nbytes - 7) }

let bits sp = sp.bits
let bytes sp = sp.nbytes
let sha1_space = space ~bits:160

let zero sp = String.make sp.nbytes '\000'

let of_bytes_masked sp b =
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land sp.top_mask));
  Bytes.unsafe_to_string b

let of_int sp n =
  if n < 0 then invalid_arg "Id.of_int: negative";
  let b = Bytes.make sp.nbytes '\000' in
  let i = ref (sp.nbytes - 1) and v = ref n in
  while !i >= 0 && !v > 0 do
    Bytes.set b !i (Char.chr (!v land 0xFF));
    v := !v lsr 8;
    decr i
  done;
  of_bytes_masked sp b

let to_int sp (x : t) =
  if sp.bits > 62 then failwith "Id.to_int: space too wide";
  let v = ref 0 in
  for i = 0 to String.length x - 1 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get x i)
  done;
  !v

let of_hash sp s =
  let d = Sha1.digest s in
  let b = Bytes.of_string (String.sub d 0 sp.nbytes) in
  of_bytes_masked sp b

let random sp rng =
  let b = Bytes.init sp.nbytes (fun _ -> Char.chr (Prng.Rng.byte rng)) in
  of_bytes_masked sp b

let compare (a : t) (b : t) = String.compare a b
let equal (a : t) (b : t) = String.equal a b

let prefix_int (x : t) =
  let k = Int.min 7 (String.length x) in
  let v = ref 0 in
  for i = 0 to k - 1 do
    v := (!v lsl 8) lor Char.code (String.unsafe_get x i)
  done;
  !v

let carry_bit sp (x : t) =
  let i = ref 7 in
  while !i < sp.nbytes && String.unsafe_get x !i = '\xff' do
    incr i
  done;
  if !i >= sp.nbytes then -1
  else begin
    let b = Char.code (String.unsafe_get x !i) in
    let k = ref 7 in
    while b land (1 lsl !k) <> 0 do
      decr k
    done;
    (8 * (sp.nbytes - 1 - !i)) + !k
  end

(* Adding 2^i at or above the low bits adds 2^(i - low) to the prefix.
   Below them it carries one into the prefix exactly when bits i .. low-1
   of x are all ones, i.e. when i is above x's highest zero low bit. *)
let prefix_add_pow2 sp ~prefix ~carry_bit i =
  if i < 0 || i >= sp.bits then invalid_arg "Id.prefix_add_pow2: exponent out of range";
  let add = if i >= sp.low then 1 lsl (i - sp.low) else if i > carry_bit then 1 else 0 in
  (prefix + add) land ((1 lsl (sp.bits - sp.low)) - 1)

let add_pow2 sp (x : t) i =
  if i < 0 || i >= sp.bits then invalid_arg "Id.add_pow2: exponent out of range";
  let b = Bytes.of_string x in
  let byte_pos = sp.nbytes - 1 - (i / 8) in
  let bit = 1 lsl (i mod 8) in
  let rec carry_add pos add =
    if pos < 0 || add = 0 then ()
    else begin
      let v = Char.code (Bytes.get b pos) + add in
      Bytes.set b pos (Char.chr (v land 0xFF));
      carry_add (pos - 1) (v lsr 8)
    end
  in
  carry_add byte_pos bit;
  of_bytes_masked sp b

let succ sp x = add_pow2 sp x 0

let pred sp (x : t) =
  let b = Bytes.of_string x in
  (* subtract 1 with borrow; wrap-around handled by the final mask *)
  let rec borrow pos =
    if pos < 0 then ()
    else
      let v = Char.code (Bytes.get b pos) in
      if v > 0 then Bytes.set b pos (Char.chr (v - 1))
      else begin
        Bytes.set b pos '\xFF';
        borrow (pos - 1)
      end
  in
  borrow (Bytes.length b - 1);
  (* wrapping below zero fills with 0xFF; the final mask reduces mod 2^bits *)
  of_bytes_masked sp b

(* Circle interval membership. On the circle, when lo = hi the open interval
   (lo, hi) is everything except lo, and (lo, hi] is the full circle: these
   are Chord's conventions and are required for single-node rings. *)
let in_oo x ~lo ~hi =
  let c_lo = compare lo hi in
  if c_lo < 0 then compare lo x < 0 && compare x hi < 0
  else if c_lo > 0 then compare lo x < 0 || compare x hi < 0
  else not (equal x lo)

let in_oc x ~lo ~hi =
  let c_lo = compare lo hi in
  if c_lo < 0 then compare lo x < 0 && compare x hi <= 0
  else if c_lo > 0 then compare lo x < 0 || compare x hi <= 0
  else true

let in_co x ~lo ~hi =
  let c_lo = compare lo hi in
  if c_lo < 0 then compare lo x <= 0 && compare x hi < 0
  else if c_lo > 0 then compare lo x <= 0 || compare x hi < 0
  else true

let to_float_fraction sp (x : t) =
  (* big-endian expansion into [0,1): only the leading ~7 bytes matter. A
     plain loop keeps both accumulators unboxed; a closure over them would
     box a float per byte. *)
  let acc = ref 0.0 and scale = ref 1.0 in
  let top_bits = if sp.bits mod 8 = 0 then 8 else sp.bits mod 8 in
  for i = 0 to String.length x - 1 do
    let w = if i = 0 then float_of_int (1 lsl top_bits) else 256.0 in
    scale := !scale /. w;
    acc := !acc +. (float_of_int (Char.code (String.unsafe_get x i)) *. !scale)
  done;
  !acc

let distance_cw sp a b =
  let fa = to_float_fraction sp a and fb = to_float_fraction sp b in
  let d = fb -. fa in
  if d < 0.0 then d +. 1.0 else d

let to_hex (x : t) =
  let buf = Buffer.create (2 * String.length x) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) x;
  Buffer.contents buf

let pp fmt (x : t) =
  if String.length x <= 2 then begin
    let v = ref 0 in
    String.iter (fun c -> v := (!v lsl 8) lor Char.code c) x;
    Format.fprintf fmt "%d" !v
  end
  else Format.pp_print_string fmt (to_hex x)

let digit_count4 sp =
  if sp.bits mod 4 <> 0 then invalid_arg "Id.digit_count4: bits must be a multiple of 4";
  sp.bits / 4

let digit4 sp (x : t) i =
  let n = digit_count4 sp in
  if i < 0 || i >= n then invalid_arg "Id.digit4: index out of range";
  (* in odd-nibble-count spaces the first nibble is the low half of byte 0 *)
  let nibble_offset = (2 * sp.nbytes) - n in
  let pos = i + nibble_offset in
  let byte = Char.code (String.unsafe_get x (pos / 2)) in
  if pos mod 2 = 0 then byte lsr 4 else byte land 0xF
