(** Phase-attributed profiler: per-phase latency histograms and
    persist-event tables scoped by engine phase (announce / exec /
    resolve / recovery-scan / recovery-complete, plus [other] for
    everything unscoped).  Per-phase event counts always sum to the
    backend totals.  Zero-cost when off; instrumented sites never touch
    backend memory, so event streams are identical either way.  See the
    implementation header for the attribution model. *)

type phase =
  | Announce
  | Exec
  | Combine
      (** flat-combining persist epoch (batch drain + result
          publication), nested inside {!Exec} spans *)
  | Resolve
  | Recovery_scan
  | Recovery_complete
  | Other

val phase_name : phase -> string
(** ["announce"], ["exec"], ["combine"], ["resolve"], ["recovery-scan"],
    ["recovery-complete"], ["other"]. *)

val phases : phase list
(** All phases, in reporting order ({!Other} last). *)

type span
(** An open phase span: created by {!begin_span}, closed by
    {!end_span}.  A shared dummy (no allocation) while off. *)

val start : unit -> unit
(** Enable profiling: subscribe to the persist-event stream.  Does not
    clear prior state — call {!reset} for a fresh run. *)

val stop : unit -> unit
(** Disable profiling: unsubscribe; accumulated rows stay readable. *)

val is_on : unit -> bool

val reset : unit -> unit
(** Zero all per-phase accounting and reset every thread to {!Other}. *)

val begin_span : tid:int -> phase -> span
(** Enter [phase] on thread [tid] ([-1] = system context).  Returns the
    span to close; nests — {!end_span} restores the enclosing phase. *)

val end_span : tid:int -> span -> unit
(** Close the span: restore the previous phase and record the span's
    wall time in the phase's latency histogram. *)

type phase_row = {
  ph_phase : string;
  ph_ops : int;  (** spans completed in this phase *)
  ph_pwrites : int;
  ph_flushes : int;
  ph_elides : int;
  ph_coalesces : int;
  ph_fences : int;
  ph_elided_fences : int;
  ph_latency : Histogram.t;  (** span wall time, nanoseconds *)
}

val rows : unit -> phase_row list
(** One row per phase, in {!phases} order (zero rows included, so sums
    over the list equal backend totals). *)

val row_to_json : phase_row -> Json.t
val rows_to_json : phase_row list -> Json.t

val pp_rows : Format.formatter -> phase_row list -> unit
(** Human table; all-zero phases are omitted. *)
