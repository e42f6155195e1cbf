(** Persistence heatmap: aggregates per-line write / flush / elide /
    coalesce / evict counts from both memory backends, labeled by
    allocation site and bucketed by owning object, so hot persist lines
    are rankable.  A subscriber of the {!Dssq_memory.Persist_event}
    stream while on; a crash's verdicts count once per line. *)

type row = {
  h_line : int;
  h_label : string;  (** allocation-site name, "" if unnamed *)
  h_object : string;  (** owning-object bucket derived from the label *)
  h_writes : int;
  h_flushes : int;
  h_elides : int;
  h_coalesces : int;
  h_evicts : int;
  h_drops : int;
}

val start : unit -> unit
(** Enable aggregation: subscribe to the persist-event stream.  Does not
    clear previously aggregated state — call {!reset} for a fresh run. *)

val stop : unit -> unit
(** Disable aggregation: unsubscribe.  Aggregated rows stay readable. *)

val is_on : unit -> bool

val reset : unit -> unit
(** Drop every line (labels included). *)

val reset_counts : unit -> unit
(** Zero the event counts but keep line labels — the post-construction
    measurement-window reset. *)

val rows : unit -> row list
(** Aggregated rows, ascending by line id. *)

val top : n:int -> row list -> row list
(** Rank by effective flushes (then writes) descending; keep [n]. *)

val bucket : string -> string
(** Owning-object bucket of a label: the prefix before the first ['.']
    or ['[']; ["?"] for the empty label. *)

val row_to_json : row -> Json.t
val rows_to_json : row list -> Json.t
val pp_rows : Format.formatter -> row list -> unit
