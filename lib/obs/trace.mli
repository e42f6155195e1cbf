(** Low-overhead event tracing: per-thread bounded ring buffers of typed,
    timestamped events covering the whole crash/recovery life cycle —
    operation begin/end, the five memory events, crashes (with per-cell
    evict verdicts), recovery phases, and DSS resolve outcomes.

    Emission goes through {!sink}, which is a no-op closure while tracing
    is off, so instrumented call sites cost one load and one branch on
    the uninstrumented hot path.  Buffers are bounded and drop the oldest
    entry on overflow (counting drops), so a tracer can stay attached to
    an arbitrarily long run and always hold the most recent window —
    which is the part that explains a crash.

    Memory events, crash verdicts included, come from the
    {!Dssq_memory.Persist_event} stream, which an active tracer
    subscribes to. *)

type event =
  | Op_begin of { op : string; args : string }
  | Op_end of { op : string; result : string }
  | Mem of {
      op : [ `Read | `Write | `Cas | `Flush | `Fence ];
      cell : int;
      cell_name : string;
      line : int;
      dirty : bool;
    }
      (** one memory event, projected from the persist-event stream (a
          [`Flush] per flush call plus one per write-back a drain
          performs); [line] is the persist line the cell lives in
          (what a flush writes back and a crash evicts as a unit);
          [dirty] is the cell's dirtiness {e after} the event ([cell =
          -1] when the backend has no cell identity, e.g. the native
          backend; [line = -1] for fences, which have no target) *)
  | Crash of { verdicts : (int * string * bool) list }
      (** per dirty cell at the crash: (id, name, [true] if the line was
          evicted to persistence before power loss, [false] if lost) *)
  | Recovery_begin
  | Recovery_end
  | Resolve of { outcome : string }

type entry = { seq : int; ts_ns : float; tid : int; event : event }
(** [seq] is a global, gap-free emission index (the merged-timeline
    order); [ts_ns] is wall-clock; [tid] is the emitting thread
    ([-1] = system context: initialization, crash, recovery). *)

type t

val start : ?capacity:int -> unit -> t
(** Install a fresh tracer as the active sink, subscribe it to the
    persist-event stream, and return it.  [capacity] (default 4096)
    bounds each per-thread ring.  Stops any previously active tracer
    first. *)

val stop : unit -> unit
(** Detach the active tracer and its stream subscription (its recorded
    entries stay readable). *)

val is_on : unit -> bool
val active : unit -> t option

val set_tid : int -> unit
(** Set the thread id attributed to subsequent events ([-1] = system);
    the sim scheduler calls this at every step. *)

(** Typed emitters.  All are no-ops (and build no event) when off. *)

val op_begin : string -> args:string -> unit
val op_end : string -> result:string -> unit
val recovery_begin : unit -> unit
val recovery_end : unit -> unit
val resolve : outcome:string -> unit

val entries : t -> entry list
(** All retained entries, merged across threads in emission ([seq])
    order. *)

val capture : ?capacity:int -> (unit -> 'a) -> 'a * entry list
(** Run the thunk under a fresh tracer (installed with {!start}) and
    return its result with the merged entries recorded during the call;
    the tracer is detached afterwards.  On raise the tracer is detached
    and the exception propagates. *)

val muted : (unit -> 'a) -> 'a
(** Run [f] with the active tracer (if any) detached, so nothing [f]
    does is recorded; the tracer is re-attached afterwards, also on
    raise. *)

val recorded : t -> int
(** Total events emitted (including dropped ones). *)

val dropped : t -> int
(** Events evicted from ring buffers by overflow.  Also counted in the
    ["trace.dropped_events"] registry metric, so run reports record
    truncated traces without holding the tracer handle. *)

val dropped_by_thread : t -> (int * int) list
(** [(tid, drops)] for each ring that overflowed, ascending by tid
    ([-1] = system context); empty when nothing was dropped. *)

val pp_event : Format.formatter -> event -> unit

val pp_timeline : Format.formatter -> entry list -> unit
(** Human-readable merged timeline, one line per entry. *)

val to_chrome_json : ?process:string -> entry list -> Json.t
(** Chrome trace-event JSON (the [traceEvents] array format), loadable in
    Perfetto ({:https://ui.perfetto.dev}) and chrome://tracing.
    Timestamps are the logical [seq] indices (in microseconds), so the
    rendered timeline is the deterministic interleaving, not wall
    clock. *)

val write_chrome : string -> entry list -> unit
(** {!to_chrome_json} serialized to a file.
    @raise Sys_error on I/O failure. *)
