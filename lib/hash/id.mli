(** Ring identifiers: fixed-width unsigned integers on the Chord circle.

    A {!space} fixes the identifier width [m] (bits); identifiers live in
    [\[0, 2^m)] and all arithmetic wraps modulo [2^m]. The paper uses the full
    160-bit SHA-1 space for real networks and an 8-bit space for its worked
    examples (Table 2); both are supported by the same representation
    (big-endian byte strings with the top byte masked).

    Interval membership follows Chord's conventions on the circle:
    an interval [(a, a)] (resp. [(a, a\]]) denotes the whole circle — that is
    what makes [find_successor] terminate when only one node exists. *)

type space
(** An identifier space of a given bit width. *)

type t
(** An identifier. Only comparable within the same space. *)

val space : bits:int -> space
(** [space ~bits] with [1 <= bits <= 160]. *)

val bits : space -> int
val bytes : space -> int
(** Number of bytes in the representation: [ceil (bits / 8)]. *)

val sha1_space : space
(** The standard 160-bit space. *)

val zero : space -> t
val of_int : space -> int -> t
(** [of_int sp n] for [0 <= n]; reduced modulo [2^bits]. Allocates only the
    result. *)

val to_int : space -> t -> int
(** Exact value; raises [Failure] if the space has more than 62 bits.
    Allocates nothing. Within a space of at most 62 bits, [to_int] keeps
    {!compare}'s order, so the interval tests below hold of the ints too. *)

val of_hash : space -> string -> t
(** SHA-1 of the argument truncated (big-endian prefix, top bits masked) to
    the space width — the paper's "collision-free" id assignment. *)

val random : space -> Prng.Rng.t -> t
(** Uniform identifier. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val prefix_int : t -> int
(** The identifier's leading [min 56 bits] as a non-negative int — a
    comparison accelerator: within one space,
    [prefix_int a < prefix_int b] implies [compare a b < 0], and equal
    prefixes require a full {!compare} to decide. Packed networks keep a
    flat [prefix_int] array next to the id array so the routing hot path
    resolves almost every comparison with one integer load (two random
    160-bit ids collide on 56 leading bits with probability [2^-56]). *)

val add_pow2 : space -> t -> int -> t
(** [add_pow2 sp x i] is [x + 2^i mod 2^bits]; requires [0 <= i < bits].
    This generates Chord finger starts. *)

val carry_bit : space -> t -> int
(** The position of [x]'s highest zero bit below its {!prefix_int} bits,
    or [-1] when those bits are all ones or the space has none (at most 56
    bits): adding [2^i] with [i] below the prefix carries into it exactly
    when [i > carry_bit sp x]. *)

val prefix_add_pow2 : space -> prefix:int -> carry_bit:int -> int -> int
(** [prefix_add_pow2 sp ~prefix:(prefix_int x) ~carry_bit:(carry_bit sp x) i]
    is [prefix_int (add_pow2 sp x i)], in O(1) and without building the
    identifier; requires [0 <= i < bits]. The sum wrapped past zero exactly
    when the result is below [prefix]. Chord's finger starts of one owner
    are judged this way, building a start only on a prefix tie. *)

val succ : space -> t -> t
(** [x + 1 mod 2^bits]. *)

val pred : space -> t -> t
(** [x - 1 mod 2^bits]. *)

val in_oo : t -> lo:t -> hi:t -> bool
(** Circle membership in the open interval [(lo, hi)]. [(a, a)] is the whole
    circle minus [a]. *)

val in_oc : t -> lo:t -> hi:t -> bool
(** Circle membership in [(lo, hi\]]. [(a, a\]] is the whole circle. *)

val in_co : t -> lo:t -> hi:t -> bool
(** Circle membership in [\[lo, hi)]. [\[a, a)] is the whole circle. *)

val distance_cw : space -> t -> t -> float
(** Clockwise distance from the first to the second id, as a float fraction
    of the circle in [\[0, 1)]. Approximate for wide spaces (53-bit
    mantissa). Pastry's numerical closeness is built on it, so it runs on
    routing paths; it allocates only the floats it returns. *)

val to_hex : t -> string
val pp : Format.formatter -> t -> unit
(** Hex for wide spaces, decimal for spaces of at most 16 bits (matching the
    paper's small worked examples). *)

val digit4 : space -> t -> int -> int
(** [digit4 sp x i] is the [i]-th 4-bit digit of [x], big-endian (digit 0 is
    the most significant nibble) — the digit decomposition Pastry-style
    prefix routing uses. Requires a space whose width is a multiple of 4. *)

val digit_count4 : space -> int
(** Number of 4-bit digits in the space ([bits / 4]). *)
