(** Plain-text, chart and CSV rendering of benchmark series — the same
    rows the paper plots in its figures. *)

val figure :
  label:string -> (int -> float list) -> int list -> Dssq_obs.Run_report.series
(** [figure ~label samples xs]: a series of figure data only (no events,
    no latency), one point per x of [xs] with the samples [samples x]. *)

val print_table :
  ?out:Format.formatter ->
  title:string ->
  x_label:string ->
  y_label:string ->
  Dssq_obs.Run_report.series list ->
  unit

val to_csv : x_label:string -> Dssq_obs.Run_report.series list -> string

val print_chart :
  ?out:Format.formatter -> ?height:int -> Dssq_obs.Run_report.series list -> unit
(** Compact ASCII scalability chart, so the figure's shape is visible in
    a terminal. *)
