(** The attribution table: one subscriber of the persist-event stream
    charges every event to a (phase of the event's thread, persist line)
    cell of event-kind counts.  Lines carry their allocation-site label;
    phases carry their span counts and latency histograms.  The
    persistence heatmap ({!line_row}), the phase profiler ({!phase_row})
    and the Prometheus export ({!samples}) are projections of the table,
    and {!sums} checks each against the backend counters.  Zero-cost
    when off; instrumented sites never touch backend memory, so event
    streams are identical either way.  See the implementation header for
    the attribution model. *)

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

(** {2 Recording} *)

val start : unit -> unit
(** Begin a fresh table (no lines, labels or counts) and subscribe to
    the persist-event stream. *)

val stop : unit -> unit
(** Unsubscribe; the table stays readable. *)

val is_on : unit -> bool

val reset : unit -> unit
(** Open a new measurement window: zero every count, span and latency,
    forget the verdicts of an unfinished crash and return every thread
    to {!Other}.  Line labels stay, so a window opened after object
    construction keeps the allocation-site names. *)

type span
(** An open phase span: created by {!begin_span}, closed by
    {!end_span}.  A shared dummy (no allocation) while off. *)

val begin_span : tid:int -> phase -> span
(** Enter [phase] on thread [tid] ([-1] = system context).  Returns the
    span to close; nests — {!end_span} restores the enclosing phase. *)

val end_span : tid:int -> span -> unit
(** Close the span: restore the previous phase and record the span's
    wall time in the phase's latency histogram. *)

(** {2 Projections} *)

type counts = {
  writes : int;  (** stores and CAS hits *)
  flushes : int;  (** effective flushes and drain write-backs *)
  elides : int;  (** elided flushes and write-backs *)
  coalesces : int;
  fences : int;
  elided_fences : int;
  evicts : int;  (** crash verdicts that persisted the line *)
  drops : int;  (** crash verdicts that lost the line *)
}

type phase_row = {
  ph_phase : string;
  ph_ops : int;  (** spans completed in this phase *)
  ph_counts : counts;  (** the phase's cells summed over every line *)
  ph_latency : Histogram.t;  (** span wall time, nanoseconds *)
}

type line_row = {
  h_line : int;
  h_label : string;  (** allocation-site name, "" if unnamed *)
  h_object : string;  (** owning-object bucket derived from the label *)
  h_counts : counts;  (** the line's cells summed over every phase *)
}

type t = {
  phases : phase_row list;
      (** one row per phase, in {!phases} order, zero rows included *)
  lines : line_row list;  (** ascending by line id, [line >= 0] only *)
}

val snapshot : unit -> t

val sums : t -> Dssq_memory.Memory_intf.counters -> (string * int * int) list
(** The invariant the attribution rests on, as [(what, projection sum,
    backend total)] triples: the phase rows' pwrites, flushes, elided
    and coalesced flushes, fences and elided fences, and the line rows'
    writes, flushes, elided and coalesced flushes.  Every pair is equal
    unless some event escaped its cell. *)

val bucket : string -> string
(** Owning-object bucket of a label: the prefix before the first ['.']
    or ['[']; ["?"] for the empty label. *)

val top : n:int -> line_row list -> line_row list
(** Rank by effective flushes (then writes) descending; keep [n]. *)

val to_json : t -> (string * Json.t) list
(** [("phases", _)] and [("heatmap", _)], the members of a
    [dssq-profile-report] v1 object entry. *)

val samples : t -> Prom.sample list
(** [dssq_profile_*] samples labeled by phase, with p50/p90/p99 latency
    quantiles for non-empty phases, then [dssq_heatmap_*] samples
    labeled by line / label / object. *)

val pp_phases : Format.formatter -> phase_row list -> unit
(** Human table; all-zero phases are omitted. *)

val pp_lines : Format.formatter -> line_row list -> unit
