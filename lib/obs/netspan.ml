type kind =
  | Stabilize
  | Notify
  | Fix_fingers
  | Check_pred
  | Join
  | Ring
  | Lookup
  | Forward
  | Reply
  | Store_put
  | Store_get
  | Store_delete
  | Store_replicate
  | Store_repair
  | Store_reply
  | Other

let kind_name = function
  | Stabilize -> "stabilize"
  | Notify -> "notify"
  | Fix_fingers -> "fix_fingers"
  | Check_pred -> "check_pred"
  | Join -> "join"
  | Ring -> "ring"
  | Lookup -> "lookup"
  | Forward -> "forward"
  | Reply -> "reply"
  | Store_put -> "store_put"
  | Store_get -> "store_get"
  | Store_delete -> "store_delete"
  | Store_replicate -> "store_replicate"
  | Store_repair -> "store_repair"
  | Store_reply -> "store_reply"
  | Other -> "other"

let kind_of_name = function
  | "stabilize" -> Some Stabilize
  | "notify" -> Some Notify
  | "fix_fingers" -> Some Fix_fingers
  | "check_pred" -> Some Check_pred
  | "join" -> Some Join
  | "ring" -> Some Ring
  | "lookup" -> Some Lookup
  | "forward" -> Some Forward
  | "reply" -> Some Reply
  | "store_put" -> Some Store_put
  | "store_get" -> Some Store_get
  | "store_delete" -> Some Store_delete
  | "store_replicate" -> Some Store_replicate
  | "store_repair" -> Some Store_repair
  | "store_reply" -> Some Store_reply
  | "other" -> Some Other
  | _ -> None

let all_kinds =
  [
    Stabilize; Notify; Fix_fingers; Check_pred; Join; Ring; Lookup; Forward; Reply; Store_put;
    Store_get; Store_delete; Store_replicate; Store_repair; Store_reply; Other;
  ]

let kind_index = function
  | Stabilize -> 0
  | Notify -> 1
  | Fix_fingers -> 2
  | Check_pred -> 3
  | Join -> 4
  | Ring -> 5
  | Lookup -> 6
  | Forward -> 7
  | Reply -> 8
  | Store_put -> 9
  | Store_get -> 10
  | Store_delete -> 11
  | Store_replicate -> 12
  | Store_repair -> 13
  | Store_reply -> 14
  | Other -> 15

let n_kinds = 16

(* Nominal per-kind wire sizes: a fixed header (~32 bytes of addressing,
   span id, kind tag) plus a typical payload. Replies carry peer lists,
   ring duties carry table entries; pings carry nothing. Only the relative
   weights matter to the bandwidth attribution. *)
let wire_bytes = function
  | Stabilize -> 40
  | Notify -> 44
  | Fix_fingers -> 52
  | Check_pred -> 32
  | Join -> 56
  | Ring -> 72
  | Lookup -> 52
  | Forward -> 52
  | Reply -> 96
  | Store_put -> 192 (* key + value payload + version *)
  | Store_get -> 48 (* key only *)
  | Store_delete -> 48 (* key only *)
  | Store_replicate -> 192 (* full entry push to a replica *)
  | Store_repair -> 64 (* version probe / lease refresh *)
  | Store_reply -> 160 (* value-bearing response leg *)
  | Other -> 40

type sink = Null | Writer of (string -> unit)

type t = {
  sink : sink;
  ctx : string;
  ctx_json : string; (* pre-rendered ["ctx":"...",] fragment, "" when no ctx *)
  sample : float;
  mutable next_span : int;
  counts : int array; (* by kind_index; exact, sampling-independent *)
  mutable drops_dead : int;
  mutable drops_loss : int;
}

let disabled =
  {
    sink = Null;
    ctx = "";
    ctx_json = "";
    sample = 0.0;
    next_span = 0;
    counts = Array.make n_kinds 0;
    drops_dead = 0;
    drops_loss = 0;
  }

let jsonl ?(ctx = "") ?(sample = 1.0) write =
  if sample < 0.0 || sample > 1.0 then invalid_arg "Netspan.jsonl: sample must be in [0, 1]";
  {
    sink = Writer write;
    ctx;
    ctx_json = (if ctx = "" then "" else Printf.sprintf {|"ctx":"%s",|} (Jsonu.escape ctx));
    sample;
    next_span = 0;
    counts = Array.make n_kinds 0;
    drops_dead = 0;
    drops_loss = 0;
  }

let enabled t = match t.sink with Null -> false | Writer _ -> true

let next_span t =
  match t.sink with
  | Null -> 0
  | Writer _ ->
      let id = t.next_span in
      t.next_span <- id + 1;
      id

let msg t ~span ~parent ~root ~kind ~src ~dst ~at ~lat =
  match t.sink with
  | Null -> ()
  | Writer w ->
      t.counts.(kind_index kind) <- t.counts.(kind_index kind) + 1;
      if Sampler.keep ~rate:t.sample root then
        w
          (if parent < 0 then
             Printf.sprintf
               {|{"ev":"msg",%s"span":%d,"kind":"%s","bytes":%d,"src":%d,"dst":%d,"at":%s,"lat":%s}|}
               t.ctx_json span (kind_name kind) (wire_bytes kind) src dst (Jsonu.number at)
               (Jsonu.number lat)
             ^ "\n"
           else
             Printf.sprintf
               {|{"ev":"msg",%s"span":%d,"parent":%d,"kind":"%s","bytes":%d,"src":%d,"dst":%d,"at":%s,"lat":%s}|}
               t.ctx_json span parent (kind_name kind) (wire_bytes kind) src dst (Jsonu.number at)
               (Jsonu.number lat)
             ^ "\n")

let drop t ~span ~root ~at ~why =
  match t.sink with
  | Null -> ()
  | Writer w ->
      (match why with
      | `Dead -> t.drops_dead <- t.drops_dead + 1
      | `Loss -> t.drops_loss <- t.drops_loss + 1);
      if Sampler.keep ~rate:t.sample root then
        w
          (Printf.sprintf {|{"ev":"drop",%s"span":%d,"at":%s,"why":"%s"}|} t.ctx_json span
             (Jsonu.number at)
             (match why with `Dead -> "dead" | `Loss -> "loss")
          ^ "\n")

let kind_count t k = t.counts.(kind_index k)
let messages t = Array.fold_left ( + ) 0 t.counts
let drops_dead t = t.drops_dead
let drops_loss t = t.drops_loss

let export_metrics ?(prefix = "netspan") t m =
  let c name v = Metrics.set_counter (Metrics.counter m (prefix ^ "." ^ name)) v in
  List.iter (fun k -> c ("msgs." ^ kind_name k) (kind_count t k)) all_kinds;
  c "msgs.total" (messages t);
  c "drops.dead" t.drops_dead;
  c "drops.loss" t.drops_loss
