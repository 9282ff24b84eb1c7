(* Tests for the hashid library: SHA-1 against FIPS vectors and ring-id
   arithmetic on the identifier circle. *)

module Sha1 = Hashid.Sha1
module Id = Hashid.Id

(* --- SHA-1 --------------------------------------------------------------- *)

let vectors =
  [
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
    (* FIPS 180 two-block message (112 bytes) *)
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      ^ "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "a49b2446a02c645bf419f995b67091253a04a259" );
    ("The quick brown fox jumps over the lazy dog", "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
    ("The quick brown fox jumps over the lazy cog", "de9f2c7fd25e1b3afad3e85a0bd17d9b100db4b3");
    ("a", "86f7e437faa5a7fce15d1ddcb9eaeaea377667b8");
  ]

let test_sha1_vectors () =
  List.iter (fun (input, expect) -> Alcotest.(check string) input expect (Sha1.hex input)) vectors

let test_sha1_million_a () =
  Alcotest.(check string) "10^6 x 'a'" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'))

let test_sha1_rfc3174_test4 () =
  (* RFC 3174 TEST4: "01234567..." (64 chars) repeated 10 times *)
  let msg = String.concat "" (List.init 10 (fun _ -> "0123456701234567012345670123456701234567012345670123456701234567")) in
  Alcotest.(check string) "RFC 3174 TEST4" "dea356a2cddd90c7a7ecedc5ebb563934f460452"
    (Sha1.hex msg)

let test_sha1_block_boundaries () =
  (* lengths around the 64-byte block boundary must all hash without error
     and injectively (for these inputs) *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun len ->
      let d = Sha1.digest (String.make len 'x') in
      Alcotest.(check int) "20 bytes" 20 (String.length d);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen d);
      Hashtbl.replace seen d ())
    [ 54; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let test_digest_int () =
  Alcotest.(check string) "digest_int = digest of decimal" (Sha1.digest "12345")
    (Sha1.digest_int 12345)

(* --- Id: spaces ----------------------------------------------------------- *)

let test_space_bounds () =
  Alcotest.check_raises "0 bits" (Invalid_argument "Id.space: bits must be in [1, 160]")
    (fun () -> ignore (Id.space ~bits:0));
  Alcotest.check_raises "161 bits" (Invalid_argument "Id.space: bits must be in [1, 160]")
    (fun () -> ignore (Id.space ~bits:161));
  Alcotest.(check int) "sha1 space bits" 160 (Id.bits Id.sha1_space);
  Alcotest.(check int) "sha1 space bytes" 20 (Id.bytes Id.sha1_space);
  Alcotest.(check int) "12-bit space bytes" 2 (Id.bytes (Id.space ~bits:12))

let test_of_int_roundtrip () =
  let sp = Id.space ~bits:8 in
  for v = 0 to 255 do
    Alcotest.(check int) "roundtrip" v (Id.to_int sp (Id.of_int sp v))
  done

let test_of_int_reduces () =
  let sp = Id.space ~bits:8 in
  Alcotest.(check int) "mod 256" 1 (Id.to_int sp (Id.of_int sp 257))

let test_of_int_negative () =
  let sp = Id.space ~bits:8 in
  Alcotest.check_raises "negative" (Invalid_argument "Id.of_int: negative") (fun () ->
      ignore (Id.of_int sp (-1)))

let test_to_int_wide_space () =
  Alcotest.check_raises "160-bit to_int" (Failure "Id.to_int: space too wide") (fun () ->
      ignore (Id.to_int Id.sha1_space (Id.zero Id.sha1_space)))

let test_odd_width_masking () =
  (* a 12-bit space must mask the top nibble *)
  let sp = Id.space ~bits:12 in
  Alcotest.(check int) "4096 wraps to 0" 0 (Id.to_int sp (Id.of_int sp 4096));
  Alcotest.(check int) "4097 wraps to 1" 1 (Id.to_int sp (Id.of_int sp 4097))

(* --- Id: arithmetic -------------------------------------------------------- *)

let test_add_pow2 () =
  let sp = Id.space ~bits:8 in
  let x = Id.of_int sp 121 in
  List.iteri
    (fun i expect -> Alcotest.(check int) (Printf.sprintf "121+2^%d" i) expect
        (Id.to_int sp (Id.add_pow2 sp x i)))
    [ 122; 123; 125; 129; 137; 153; 185; 249 ]

let test_add_pow2_wraps () =
  let sp = Id.space ~bits:8 in
  Alcotest.(check int) "250+8 wraps" 2 (Id.to_int sp (Id.add_pow2 sp (Id.of_int sp 250) 3));
  Alcotest.(check int) "128+128 wraps to 0" 0 (Id.to_int sp (Id.add_pow2 sp (Id.of_int sp 128) 7))

let test_add_pow2_range () =
  let sp = Id.space ~bits:8 in
  Alcotest.check_raises "exponent = bits" (Invalid_argument "Id.add_pow2: exponent out of range")
    (fun () -> ignore (Id.add_pow2 sp (Id.zero sp) 8))

let test_succ_pred () =
  let sp = Id.space ~bits:8 in
  Alcotest.(check int) "succ 255 = 0" 0 (Id.to_int sp (Id.succ sp (Id.of_int sp 255)));
  Alcotest.(check int) "pred 0 = 255" 255 (Id.to_int sp (Id.pred sp (Id.zero sp)));
  for v = 0 to 255 do
    let x = Id.of_int sp v in
    Alcotest.(check bool) "pred/succ inverse" true (Id.equal x (Id.pred sp (Id.succ sp x)))
  done

let test_pred_wide_space_carry () =
  (* pred of zero in the 160-bit space must be all-ones *)
  let sp = Id.sha1_space in
  let max_id = Id.pred sp (Id.zero sp) in
  Alcotest.(check string) "all ff" (String.make 40 'f') (Id.to_hex max_id);
  Alcotest.(check bool) "succ of max = 0" true (Id.equal (Id.zero sp) (Id.succ sp max_id))

let test_compare_order () =
  let sp = Id.space ~bits:16 in
  Alcotest.(check bool) "numeric order" true (Id.compare (Id.of_int sp 100) (Id.of_int sp 200) < 0);
  Alcotest.(check bool) "cross-byte order" true
    (Id.compare (Id.of_int sp 255) (Id.of_int sp 256) < 0)

(* --- Id: intervals ---------------------------------------------------------- *)

let test_in_oo () =
  let sp = Id.space ~bits:8 in
  let i = Id.of_int sp in
  Alcotest.(check bool) "5 in (3,8)" true (Id.in_oo (i 5) ~lo:(i 3) ~hi:(i 8));
  Alcotest.(check bool) "3 not in (3,8)" false (Id.in_oo (i 3) ~lo:(i 3) ~hi:(i 8));
  Alcotest.(check bool) "8 not in (3,8)" false (Id.in_oo (i 8) ~lo:(i 3) ~hi:(i 8));
  (* wrapping interval *)
  Alcotest.(check bool) "250 in (200,10)" true (Id.in_oo (i 250) ~lo:(i 200) ~hi:(i 10));
  Alcotest.(check bool) "5 in (200,10)" true (Id.in_oo (i 5) ~lo:(i 200) ~hi:(i 10));
  Alcotest.(check bool) "100 not in (200,10)" false (Id.in_oo (i 100) ~lo:(i 200) ~hi:(i 10));
  (* degenerate: (a,a) is everything but a *)
  Alcotest.(check bool) "(a,a) excludes a" false (Id.in_oo (i 7) ~lo:(i 7) ~hi:(i 7));
  Alcotest.(check bool) "(a,a) includes others" true (Id.in_oo (i 8) ~lo:(i 7) ~hi:(i 7))

let test_in_oc () =
  let sp = Id.space ~bits:8 in
  let i = Id.of_int sp in
  Alcotest.(check bool) "8 in (3,8]" true (Id.in_oc (i 8) ~lo:(i 3) ~hi:(i 8));
  Alcotest.(check bool) "3 not in (3,8]" false (Id.in_oc (i 3) ~lo:(i 3) ~hi:(i 8));
  Alcotest.(check bool) "wrap: 10 in (200,10]" true (Id.in_oc (i 10) ~lo:(i 200) ~hi:(i 10));
  (* degenerate: (a,a] is the whole circle — the single-node Chord ring *)
  Alcotest.(check bool) "(a,a] is everything" true (Id.in_oc (i 7) ~lo:(i 7) ~hi:(i 7));
  Alcotest.(check bool) "(a,a] includes a" true (Id.in_oc (i 99) ~lo:(i 7) ~hi:(i 7))

let test_in_co () =
  let sp = Id.space ~bits:8 in
  let i = Id.of_int sp in
  Alcotest.(check bool) "3 in [3,8)" true (Id.in_co (i 3) ~lo:(i 3) ~hi:(i 8));
  Alcotest.(check bool) "8 not in [3,8)" false (Id.in_co (i 8) ~lo:(i 3) ~hi:(i 8));
  Alcotest.(check bool) "[a,a) is everything" true (Id.in_co (i 12) ~lo:(i 7) ~hi:(i 7))

let test_distance_cw () =
  let sp = Id.space ~bits:8 in
  let i = Id.of_int sp in
  let d = Id.distance_cw sp (i 10) (i 74) in
  Alcotest.(check (float 1e-9)) "64/256 of the circle" 0.25 d;
  let dw = Id.distance_cw sp (i 200) (i 8) in
  Alcotest.(check (float 1e-9)) "wrapping distance" (64.0 /. 256.0) dw

(* [distance_cw] as it was before its fraction became a plain loop: a
   [String.iteri] closure over two float refs, which boxed a float per byte.
   Kept as the reference the loop must match bit for bit. *)
let ref_distance_cw sp a b =
  let bytes x =
    let h = Id.to_hex x in
    String.init (String.length h / 2) (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))
  in
  let fraction x =
    let acc = ref 0.0 and scale = ref 1.0 in
    let top_bits = if Id.bits sp mod 8 = 0 then 8 else Id.bits sp mod 8 in
    String.iteri
      (fun i c ->
        let w = if i = 0 then float_of_int (1 lsl top_bits) else 256.0 in
        scale := !scale /. w;
        acc := !acc +. (float_of_int (Char.code c) *. !scale))
      (bytes x);
    !acc
  in
  let d = fraction b -. fraction a in
  if d < 0.0 then d +. 1.0 else d

let test_distance_cw_matches_reference () =
  let rng = Prng.Rng.create ~seed:41 in
  List.iter
    (fun bits ->
      let sp = Id.space ~bits in
      for _ = 1 to 2000 do
        let a = Id.random sp rng and b = Id.random sp rng in
        Alcotest.(check int64)
          (Printf.sprintf "%d-bit distance %s -> %s" bits (Id.to_hex a) (Id.to_hex b))
          (Int64.bits_of_float (ref_distance_cw sp a b))
          (Int64.bits_of_float (Id.distance_cw sp a b))
      done)
    [ 160; 32; 13; 8; 1 ];
  (* the closure form allocated 184 words per call on SHA-1 ids; the loop
     allocates only the boxed floats it returns *)
  let sp = Id.sha1_space in
  let pairs = Array.init 1000 (fun _ -> (Id.random sp rng, Id.random sp rng)) in
  let replay () =
    Array.iter (fun (a, b) -> ignore (Sys.opaque_identity (Id.distance_cw sp a b))) pairs
  in
  replay ();
  let before = Gc.minor_words () in
  replay ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "distance_cw stays under 16 words/call (%.0f words over 1000 calls)" words)
    true (words < 16_000.0)

let test_of_hash () =
  let sp = Id.space ~bits:32 in
  let a = Id.of_hash sp "hello" and b = Id.of_hash sp "hello" in
  Alcotest.(check bool) "deterministic" true (Id.equal a b);
  (* truncation takes the big-endian prefix of the digest *)
  let full = Sha1.hex "hello" in
  Alcotest.(check string) "prefix" (String.sub full 0 8) (Id.to_hex a)

let test_random_in_space () =
  let sp = Id.space ~bits:12 in
  let rng = Prng.Rng.create ~seed:31 in
  for _ = 1 to 500 do
    let v = Id.to_int sp (Id.random sp rng) in
    Alcotest.(check bool) "within 2^12" true (v >= 0 && v < 4096)
  done

let test_pp_small_decimal () =
  let sp = Id.space ~bits:8 in
  Alcotest.(check string) "small spaces print decimal" "121"
    (Format.asprintf "%a" Id.pp (Id.of_int sp 121))

(* --- qcheck properties -------------------------------------------------------- *)

let small_id_gen sp = QCheck.map (fun v -> Id.of_int sp (abs v)) QCheck.int

let prop_add_pow2_doubles =
  let sp = Id.space ~bits:16 in
  QCheck.Test.make ~name:"x + 2^i + 2^i = x + 2^(i+1)" ~count:500
    QCheck.(pair (small_id_gen sp) (int_range 0 14))
    (fun (x, i) ->
      Id.equal (Id.add_pow2 sp (Id.add_pow2 sp x i) i) (Id.add_pow2 sp x (i + 1)))

(* [prefix_add_pow2] against the built sum, in every width, on ids whose
   bits below the prefix are all ones (every such exponent carries), all
   ones but one, or random, and whose prefix is all ones (the sum wraps) or
   random *)
let prop_prefix_add_pow2 =
  QCheck.Test.make ~name:"prefix_add_pow2 = prefix_int (add_pow2 x i)" ~count:500
    QCheck.(quad (int_range 1 160) (int_range 0 2) bool (int_range 0 1_000_000))
    (fun (bits, low_kind, top, seed) ->
      let sp = Id.space ~bits in
      let rng = Prng.Rng.create ~seed in
      let low = 8 * max 0 (Id.bytes sp - 7) in
      let zero_bit = if low > 0 then Prng.Rng.int rng low else 0 in
      let x = ref (Id.zero sp) in
      for i = 0 to bits - 1 do
        let set =
          if i >= low then top || Prng.Rng.bool rng
          else match low_kind with 0 -> true | 1 -> i <> zero_bit | _ -> Prng.Rng.bool rng
        in
        if set then x := Id.add_pow2 sp !x i
      done;
      let x = !x in
      let prefix = Id.prefix_int x and carry_bit = Id.carry_bit sp x in
      List.for_all
        (fun i ->
          let s = Id.add_pow2 sp x i in
          let p = Id.prefix_add_pow2 sp ~prefix ~carry_bit i in
          p = Id.prefix_int s && (p < prefix) = (Id.compare s x < 0))
        (List.init bits Fun.id))

let prop_succ_pred_inverse =
  let sp = Id.space ~bits:16 in
  QCheck.Test.make ~name:"succ . pred = id" ~count:500 (small_id_gen sp) (fun x ->
      Id.equal x (Id.succ sp (Id.pred sp x)))

let prop_interval_complement =
  (* for lo <> hi and x not an endpoint: x in (lo,hi) xor x in (hi,lo) *)
  let sp = Id.space ~bits:12 in
  QCheck.Test.make ~name:"(lo,hi) and (hi,lo) partition the circle" ~count:1000
    QCheck.(triple (small_id_gen sp) (small_id_gen sp) (small_id_gen sp))
    (fun (x, lo, hi) ->
      QCheck.assume (not (Id.equal lo hi));
      QCheck.assume (not (Id.equal x lo));
      QCheck.assume (not (Id.equal x hi));
      Bool.not (Id.in_oo x ~lo ~hi = Id.in_oo x ~lo:hi ~hi:lo))

let prop_oc_equals_oo_or_endpoint =
  let sp = Id.space ~bits:12 in
  QCheck.Test.make ~name:"in_oc = in_oo or x = hi" ~count:1000
    QCheck.(triple (small_id_gen sp) (small_id_gen sp) (small_id_gen sp))
    (fun (x, lo, hi) ->
      QCheck.assume (not (Id.equal lo hi));
      Id.in_oc x ~lo ~hi = (Id.in_oo x ~lo ~hi || Id.equal x hi))

let prop_distance_cw_antisymmetric =
  let sp = Id.space ~bits:16 in
  QCheck.Test.make ~name:"d(a,b) + d(b,a) = 1 for a <> b" ~count:500
    QCheck.(pair (small_id_gen sp) (small_id_gen sp))
    (fun (a, b) ->
      QCheck.assume (not (Id.equal a b));
      Float.abs (Id.distance_cw sp a b +. Id.distance_cw sp b a -. 1.0) < 1e-6)

let () =
  Alcotest.run "hashid"
    [
      ( "sha1",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "million a" `Slow test_sha1_million_a;
          Alcotest.test_case "RFC 3174 TEST4" `Quick test_sha1_rfc3174_test4;
          Alcotest.test_case "block boundaries" `Quick test_sha1_block_boundaries;
          Alcotest.test_case "digest_int" `Quick test_digest_int;
        ] );
      ( "id-space",
        [
          Alcotest.test_case "space bounds" `Quick test_space_bounds;
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "of_int reduces" `Quick test_of_int_reduces;
          Alcotest.test_case "of_int negative" `Quick test_of_int_negative;
          Alcotest.test_case "to_int wide" `Quick test_to_int_wide_space;
          Alcotest.test_case "odd-width mask" `Quick test_odd_width_masking;
        ] );
      ( "id-arith",
        [
          Alcotest.test_case "add_pow2 (paper table 2 starts)" `Quick test_add_pow2;
          Alcotest.test_case "add_pow2 wraps" `Quick test_add_pow2_wraps;
          Alcotest.test_case "add_pow2 range" `Quick test_add_pow2_range;
          Alcotest.test_case "succ/pred" `Quick test_succ_pred;
          Alcotest.test_case "pred carries over 160 bits" `Quick test_pred_wide_space_carry;
          Alcotest.test_case "compare" `Quick test_compare_order;
        ] );
      ( "id-intervals",
        [
          Alcotest.test_case "in_oo" `Quick test_in_oo;
          Alcotest.test_case "in_oc" `Quick test_in_oc;
          Alcotest.test_case "in_co" `Quick test_in_co;
          Alcotest.test_case "distance_cw" `Quick test_distance_cw;
          Alcotest.test_case "distance_cw = closure form, unboxed" `Quick
            test_distance_cw_matches_reference;
          Alcotest.test_case "of_hash" `Quick test_of_hash;
          Alcotest.test_case "random in space" `Quick test_random_in_space;
          Alcotest.test_case "pp small" `Quick test_pp_small_decimal;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_pow2_doubles;
            prop_succ_pred_inverse;
            prop_interval_complement;
            prop_oc_equals_oo_or_endpoint;
            prop_distance_cw_antisymmetric;
            prop_prefix_add_pow2;
          ] );
    ]
