(** The gated-metric envelope and the one regression gate over it.

    Every artifact that [analyze compare] accepts is a JSON object with a
    ["schema"] name and, as its last member, a ["gated"] list:
    [[{"name":N,"value":V,"better":"lower","unit":U}, ...]]. The producer
    builds the list from its own typed result, so the analyzer knows no
    artifact's layout: comparing two artifacts is a join of their lists
    by name (DESIGN.md §9).

    Every gated metric is lower-is-better (latency, hops, failure rates,
    counts of bad events, seconds, words). The direction is still written
    into each entry, and parsing rejects any other value, so an artifact
    that asks for a different direction fails loudly instead of being
    gated the wrong way. *)

type metric = { name : string; value : float; unit : string }
(** One gated entry; rendered with ["better":"lower"]. *)

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

val failure_rate : string -> ok:int -> total:int -> metric list
(** [1 - ok / total] in unit ["ratio"]; [[]] when [total = 0], where the
    rate is undefined. *)

val to_json : metric list -> string
(** The ["gated"] member's value, in list order. *)

(** {2 Compare} *)

type row = {
  metric : string;
  base : float;
  cand : float option;  (** [None]: the candidate lacks the metric *)
  delta : float;
      (** (cand - base) / base; [infinity] when base = 0 < cand or the
          candidate lacks the metric *)
}

type comparison = {
  schema : string;  (** shared by both artifacts *)
  threshold : float;
  rows : row list;  (** one per base metric, in the base's order *)
  regressions : row list;
      (** rows whose [delta] exceeds the threshold — missing metrics
          included *)
}

val compare : threshold:float -> base:Jsonu.json -> cand:Jsonu.json -> (comparison, string) result
(** Join the candidate's ["gated"] list onto the base's by name. A base
    metric the candidate lacks is a [missing] row and a regression;
    candidate-only metrics are ignored. [Error] when the schemas differ,
    when either side has no ["schema"] or ["gated"] member, when an entry
    is malformed or not ["better":"lower"], or when the base gates
    nothing. *)

val compare_files : base:string -> cand:string -> threshold:float -> (comparison, string) result
(** {!compare} over two JSON files; errors name the file. *)

val comparison_text : comparison -> string
(** Aligned table of metric, base, candidate, delta, with regressions
    flagged, and a closing ["N regression(s)"] line. *)
