(** JSON emission and parsing helpers for the observability layer.

    Emission serves the metrics/trace renderers; the parser exists for
    {!Analyze}, which consumes the JSONL trace streams, and {!Gate}, which
    reads the artifacts [analyze compare] diffs. It is a small, strict
    recursive-descent parser over the full JSON grammar — no dependency
    needed. *)

val escape : string -> string
(** Escape a string for embedding between JSON double quotes (the quotes
    themselves are not added). *)

val float_repr : float -> string
(** Shortest decimal representation that round-trips to the same double —
    integers render without an exponent ([42], not [4.2e1]). *)

val number : float -> string
(** {!float_repr}, except non-finite values render as ["null"] (JSON has no
    literal for them). *)

(** {2 Parsing} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list  (** members in source order *)

val parse : string -> (json, string) result
(** Parse one complete JSON value (surrounding whitespace allowed); trailing
    garbage is an error. Escapes (including [\uXXXX], encoded as UTF-8) are
    decoded. *)

val member : string -> json -> json option
(** First member of that name when the value is an object. *)

val to_float : json -> float option
val to_string : json -> string option
val to_list : json -> json list option
