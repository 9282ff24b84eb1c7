(** Fixed-bin histograms with PDF / CDF extraction.

    The paper reports a PDF of hop counts (Figure 4) and a CDF of routing
    latency (Figure 5); this module produces both from streamed samples. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Bins partition [\[lo, hi)] evenly; samples outside are clamped into the
    first/last bin (and counted in {!clamped}). *)

val create_ints : max:int -> t
(** Unit-width bins for integer-valued samples [0..max] — hop-count PDFs. *)

val add : t -> float -> unit

val merge : t -> t -> t
(** A fresh histogram whose bin counts are the exact sums of both inputs —
    the parallel-reduction step for chunked accumulation. Raises
    [Invalid_argument] unless both share the same [lo]/[hi]/bin count. *)

val count : t -> int
val clamped : t -> int
(** How many samples fell outside [\[lo, hi)] and were clamped. *)

val bin_count : t -> int
val bin_lo : t -> int -> float
(** Lower edge of a bin. *)

val counts : t -> int array
(** A copy of the raw per-bin sample counts. *)

val pdf : t -> float array
(** Fraction of samples per bin; sums to 1 (when non-empty). *)

val cdf : t -> float array
(** Cumulative fraction per bin; last element is 1 (when non-empty). *)

val quantile : t -> float -> float
(** [quantile t q] approximates the [q]-quantile (0..1) by linear
    interpolation within the containing bin. *)
