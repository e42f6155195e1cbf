(** Crash-consistency model checker: bounded-exhaustive interleaving
    search with sleep-set (simple DPOR) reduction, CHESS-style iterative
    deepening on the preemption bound, and a per-line crash adversary
    that enumerates eviction subsets of the dirty persist lines at every
    reachable crash point.  Failing executions are reported as
    {!Violation} carrying a replayable {!schedule}.

    Each node's live scenario passes to its first explored child; later
    siblings replay the scenario from scratch, and a crash branch is a
    cold restart — a fresh layout loaded with the crash's persistent
    image and the crashed world's history.  So [setup] must build a
    fresh, independent layout each call, allocating the same cells in
    the same order.  A crash point runs only the branches whose image
    its parent point did not already produce (see {!stats}).  The search
    carries each execution's decisions newest first: a forward
    {!schedule} is built only for a later sibling's replay, a
    {!Violation} and its token, and {!replay_schedule}. *)

exception Too_many_executions of int

type verdict = { line : int; evicted : bool }
(** Crash fate of one dirty persist line: [evicted = true] = the cache
    wrote the line back before power loss (survives), [false] = lost. *)

type decision =
  | Sched of int
  | Bdrain of { tid : int; count : int }
      (** adversary buffer write-back (px86): persist the oldest [count]
          entries of thread [tid]'s persist-buffer FIFO — no fence, no
          scheduling step.  Only directly before a crash; anything else
          is a bad token. *)
  | Crash of verdict list
(** One branch choice: step thread [tid], or crash with the given
    per-dirty-line verdicts (under px86, after adversary-chosen
    buffer-drain prefixes). *)

type schedule = decision list
(** A complete list of decisions identifies an execution exactly. *)

exception Violation of { schedule : schedule; exn : exn }
(** The [check] raised [exn] at the end of the execution produced by
    [schedule]; replaying the schedule reproduces it deterministically,
    per-line eviction verdicts included. *)

type adversary = [ `Per_line | `All_or_nothing ]
(** [`Per_line] enumerates subsets of the dirty lines at each crash
    point (sampling above the subset cap); [`All_or_nothing] is the
    legacy evict-everything / evict-nothing pair. *)

type stats = {
  executions : int;  (** complete executions checked *)
  pruned : int;  (** branches cut by sleep-set reduction *)
  crash_branches : int;  (** crash executions among [executions] *)
  branches : int;  (** schedule branches actually descended into *)
  crash_points : int;  (** step boundaries where crash verdicts were drawn *)
  crash_enumerated : int;
      (** crash points whose 2^k eviction subsets were fully enumerated *)
  crash_sampled : int;
      (** crash points that fell back to sampling (k over the cap) *)
  drain_points : int;
      (** crash points with at least one nonempty px86 persist buffer
          (always 0 under sc) *)
  drain_branches : int;
      (** crash executions carrying at least one [Bdrain] decision *)
  replays : int;
      (** [setup] calls: one per round, per later sibling and per crash
          branch checked; all but the crash branches' run the prologue *)
  skipped_points : int;
      (** crash points among [crash_points] with every branch skipped *)
  skipped_branches : int;
      (** crash branches not run because their image (and history) the
          parent point already produced: the step into the point changed
          no crash state, or, under the per-line adversary with no
          persist buffer pending, the branch drops the line the step
          stored to, or the step only wrote lines back (under px86, a
          flush that leaves one buffer holding only its line).
          [executions] and [crash_branches] leave them out *)
  wall_s : float;  (** wall-clock seconds spent in [run] *)
}
(** Coverage telemetry: [pruned /. (pruned + branches)] is the sleep-set
    hit rate, [crash_sampled > 0] flags incomplete eviction-subset
    coverage (see [max_crash_lines]). *)

(** What a crash branch carries over from the crashed world besides
    its persistent image: the history the scenario recorded. *)
type history = {
  recorded : unit -> int;  (** events recorded so far *)
  lend : unit -> unit;
      (** offer this world's history to the next [adopt] by a world of
          the same [setup] *)
  adopt : unit -> unit;
      (** take over the history last lent, uids included, and record on
          from there *)
}

val no_history : history
(** For scenarios that record nothing: every crash branch starts from
    its image alone. *)

type 'ctx scenario = {
  ctx : 'ctx;
  heap : Dssq_pmem.Heap.t;
  threads : (unit -> unit) list;
  history : history;
  prologue : unit -> unit;
      (** what a live world runs after its layout and before its
          threads (seed operations, preps): after the heap's
          {!Dssq_pmem.Heap.log_persists} mark, so a crash's image holds
          what it persisted.  A cold restart does not run it.  It must
          allocate no cell.  [ignore] when there is none. *)
}

type 'ctx t

val make :
  ?crashes:bool ->
  ?adversary:adversary ->
  ?max_crash_lines:int ->
  ?crash_samples:int ->
  ?seed:int ->
  ?reduction:bool ->
  ?max_steps:int ->
  ?limit:int ->
  ?max_preemptions:int ->
  ?on_crash:('ctx -> Dssq_pmem.Heap.t -> unit) ->
  setup:(unit -> 'ctx scenario) ->
  check:('ctx -> Dssq_pmem.Heap.t -> crashed:bool -> unit) ->
  unit ->
  'ctx t
(** [check] runs at the end of every complete execution; a raise becomes
    a {!Violation}.  A live world is [setup ()], marked, then its
    [prologue].  A crashed execution is a cold restart: a fresh
    [setup ()], with no prologue, loaded with the crash's persistent image
    ({!Dssq_pmem.Heap.crash_into}) that adopts the crashed world's
    history; [on_crash] (default no-op) and [check] then run on it —
    the hook scenarios use to route every explored crash through the
    system-level [Recovery.reattach].  A world that allocated a cell
    after set-up cannot be loaded: the search raises
    {!Dssq_pmem.Heap.Layout_mismatch}.  [max_preemptions] bounds
    context switches away from still-runnable threads and is searched by
    iterative deepening (round [k] checks exactly the [k]-preemption
    executions).  [reduction]
    (default true) enables sleep-set pruning keyed on cell/line identity.
    [max_crash_lines] (default 4) caps exhaustive eviction-subset
    enumeration at a crash point; above it, the two uniform verdicts
    plus [crash_samples] seeded random subsets are tried instead.
    [limit] caps total executions (default 2e6; exceeding raises). *)

val run : 'ctx t -> stats
(** Run the exploration.  Raises {!Violation} on the first failing
    execution, {!Too_many_executions} past [limit]. *)

val replay_schedule : 'ctx t -> schedule -> [ `Completed | `Crashed ]
(** Re-execute one recorded schedule on a fresh scenario — a final
    crash as the search runs it, by cold restart — and run the
    check, as the search finishes an execution.  Raises {!Violation} if
    the check fails, [Invalid_argument] if the schedule leaves runnable
    threads behind or has a drain not directly before a crash. *)

type outcome = Passed of [ `Completed | `Crashed ] | Failed of exn
(** [Failed] carries the {!Violation}. *)

val explain : 'ctx t -> schedule -> outcome * Dssq_obs.Trace.entry list
(** {!replay_schedule} under a fresh tracer: returns the outcome
    (violations are caught, not raised) together with the merged trace
    timeline of the replayed execution. *)

val schedule_to_string : schedule -> string
(** Compact replay token, e.g. ["t0.t0.t1.c3e,5d"] — thread steps plus a
    final crash with per-line verdicts ([e]victed / [d]ropped).  Under
    px86 the crash may be preceded by buffer-drain tokens, e.g.
    ["t0.t1.b0:2.c1d"] — persist the oldest 2 entries of thread 0's
    buffer, then crash dropping line 1. *)

val schedule_of_string : string -> schedule
(** Inverse of {!schedule_to_string}.
    @raise Invalid_argument on a malformed token, or on a drain token
    not followed by another drain or the crash. *)
