(** Report sections: one per table/figure of the paper. *)

type section = {
  id : string;  (** "fig2", "table1", ... *)
  title : string;
  table : Stats.Text_table.t;  (** the rows/series the paper plots *)
  notes : string list;  (** paper-vs-measured commentary *)
}

val render : section -> string
val print : section -> unit

val print_all : section list -> unit
(** Render every section separated by blank lines. *)

val write_csv : section -> dir:string -> string
(** Write the section's table as CSV (RFC-4180 quoting; notes become
    trailing comment lines prefixed with [#]) to [<dir>/<id>.csv],
    creating [dir] if needed; returns the path. *)
