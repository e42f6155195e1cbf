(** A simulated persistent heap: every allocated cell, plus crash
    semantics and event statistics.

    Single-domain by design: simulated threads are cooperative coroutines
    (see [Dssq_sim]), so plain mutation is deterministic.

    Persistence is line-granular (see {!Dssq_memory.Memory_intf.Line}):
    [flush] writes the cell's whole line back, flushing a clean line is
    elided (counted in [elided_flushes], not [flushes]), and a crash
    evicts or drops each dirty line as a unit.  The default line size of
    1 reproduces the original word-granular model exactly.

    Persist order is one {!Policy.t}, fixed at {!create}: under
    [Eager] a flush writes back at once; under every other policy each
    thread owns one FIFO persist buffer that flushes enter and drains
    empty oldest first (see DESIGN.md §9 for the policy table). *)

module Line = Dssq_memory.Memory_intf.Line
module Policy = Dssq_memory.Memory_intf.Policy

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable cases : int;
  mutable pwrites : int;
      (** persistent-word mutations: stores plus successful CAS *)
  mutable flushes : int;  (** effective flushes (write-backs) *)
  mutable elided_flushes : int;  (** flush calls answered by a clean line *)
  mutable coalesced_flushes : int;
      (** flush calls absorbed by an already-buffered line *)
  mutable fences : int;
  mutable elided_fences : int;
      (** per-flush fences folded into drain barriers *)
}

type fifo
(** One thread's persist buffer: its buffered lines in FIFO order and the
    flush calls the next drain absorbs. *)

type members
(** One line's member cells, most recent first. *)

type t = {
  mutable next_id : int;  (** cells allocated so far; the next cell's id *)
  line_alloc : Line.Alloc.t;
  mutable line_members : members array;
      (** line id -> member cells; ids are dense, slots [0, line_count)
          live.  A line's members are contiguous in allocation order, so
          walking line ids downwards visits every cell most recently
          allocated first. *)
  mutable line_count : int;
  mutable dirty : int array;
  mutable ndirty : int;
      (** the dirty-line index: slots [0, ndirty) hold the ids of
          exactly the lines whose dirty flag is set, each flag holding
          its slot ({!Line.slot}) *)
  stats : stats;
  mutable in_sim : bool;
      (** when true, memory operations must go through the scheduler;
          toggled by [Dssq_sim.Sim.run] *)
  mutable cur_tid : int;
      (** thread on whose behalf memory operations currently apply (set
          by the stepping machine; -1 in direct mode) — keys the
          per-thread persist buffers *)
  fifos : (int, fifo) Hashtbl.t;  (** tid -> persist buffer *)
  policy : Policy.t;
  mutable version : int;
      (** bumped by every change to what a crash could leave behind —
          a store, an effective write-back, a persist-buffer enqueue,
          reorder or drain, an allocation, a crash — and by nothing
          else: reads, failed CASes, elided flushes and fences with
          nothing buffered leave it alone *)
  mutable logging : bool;
  mutable persisted_log : int list;
      (** while [logging], the lines whose persisted words changed since
          {!log_persists} (see {!crash_into}) *)
}

val create : ?line_size:int -> ?policy:Policy.t -> ?combine:bool -> unit -> t
(** [line_size] defaults to 1 — the original word-granular persistence
    model (every flush charged, no elision, per-word crash eviction).
    Pass [Line.default_size] (8) for the cache-line model.  [policy]
    (default [Eager], the model every pre-relaxed figure anchors to) is
    the heap's {!policy} for its whole life.  [~combine:true] is
    shorthand for [~policy:Combine] (flat-combining batch epochs,
    DESIGN.md §14); together with any other explicit policy it raises
    [Invalid_argument]. *)

val policy : t -> Policy.t

val line_size : t -> int

val alloc :
  t -> ?name:(unit -> string) -> ?placement:Line.placement -> 'a -> 'a Cell.t
(** Fresh cell whose volatile {e and} persisted value is the initial
    value, placed into a persist line ({!Line.Packed} by default).  The
    [name] thunk is stored, not called: it runs only when an event for
    the cell reaches a {!Dssq_memory.Persist_event} subscriber, or the
    cell is printed. *)

val alloc_block : t -> ?name:(unit -> string) -> 'a list -> 'a Cell.t list
(** One cell per value, co-located from a fresh line boundary; the
    allocator is re-aligned afterwards so distinct blocks never share a
    line. *)

val members : t -> Line.t -> Cell.packed list
(** All cells sharing the given line, most recently allocated first. *)

val line : t -> int -> Line.t
(** The line with the given id.
    @raise Invalid_argument outside [0, line_count). *)

(** Direct (non-scheduled) memory operations — initialization, recovery
    code, and the scheduler itself use these. *)

val read : t -> 'a Cell.t -> 'a
val write : t -> 'a Cell.t -> 'a -> unit
val cas : t -> 'a Cell.t -> expected:'a -> desired:'a -> bool

val flush : t -> 'a Cell.t -> unit
(** Flush the cell's line, routed by {!policy}.  Under [Eager] the line
    is written back now (every dirty member persists), elided when the
    line is clean and the line size is >= 2.  Otherwise the line enters
    the current thread's persist buffer: an already-buffered line is
    deduplicated ([coalesced_flushes]; under [Combine] it also moves to
    the FIFO tail), a clean line is elided at any line size. *)

val flush_pending : t -> 'a Cell.t -> bool
(** Whether {!flush} would write the line back (or buffer it) rather than
    elide it; changes nothing.  Cost models ask before the flush. *)

val fence : t -> unit
(** A fence by a thread with a nonempty buffer is a {!drain}. *)

val drain : t -> unit
(** Write back every line in the current thread's persist buffer, oldest
    first, and fence once.  No-op (zero events, zero counts) when the
    buffer is empty — always, under [Eager]. *)

val pending_for : t -> tid:int -> bool
(** Whether thread [tid]'s persist buffer is nonempty. *)

(** {2 The crash adversary's view of the buffers}

    Under [Px86] and [Combine] buffers outlive stores, and a crash may
    first write back an adversary-chosen FIFO {e prefix} per thread.
    Under [Eager] and [Coalesced] every dirty line is a free per-line
    verdict. *)

val adversary_drain : t -> tid:int -> count:int -> unit
(** Persist the oldest [count] entries of thread [tid]'s buffer, in FIFO
    order, with no fence — the adversary's asynchronous write-back.
    Degrades to a no-op / shorter prefix when the buffer is smaller. *)

val pending_fifos : t -> (int * int list) list
(** Per-thread buffer contents, oldest first, sorted by thread id.
    Always empty under [Eager] and [Coalesced]. *)

val crash_candidate_lines : t -> int list
(** Dirty lines eligible for free-form eviction verdicts at a crash:
    all of {!dirty_lines} under [Eager] and [Coalesced]; under [Px86]
    and [Combine], the dirty lines not sitting in any thread's persist
    buffer (buffered lines persist only via {!adversary_drain}
    prefixes). *)

val crash : t -> evict:(unit -> bool) -> unit
(** Crash the machine: for every dirty {e line}, [evict ()] decides
    whether the line was written back by cache eviction before power
    loss ([true]) or lost ([false]); the verdict applies to all the
    line's dirty words as a unit.  Afterwards volatile = persisted
    everywhere. *)

val crash_random : t -> evict_p:float -> rng:Random.State.t -> unit
(** {!crash} where each dirty line independently persists with
    probability [evict_p]. *)

val crash_lines : t -> evict:(int -> bool) -> unit
(** {!crash} under an explicit per-line adversary: [evict lid] is the
    verdict for line [lid] (must be a pure function of the line id).
    The model checker enumerates eviction subsets of {!dirty_lines}
    through this entry point. *)

(** {2 Cold restart} *)

exception Layout_mismatch of string
(** {!crash_into}'s two heaps do not hold the same cells on the same
    lines: the live one allocated a cell after set-up. *)

val crash_into :
  t -> fresh:t -> drains:(int * int) list -> evict:(int -> bool) -> unit
(** [crash_into t ~fresh ~drains ~evict] loads into [fresh] the image a
    crash of [t] leaves in persistent memory, without changing [t]:
    first each [(tid, count)] of [drains] writes back the next [count]
    entries of [tid]'s persist buffer, as {!adversary_drain} would; then
    every other dirty line survives when [evict lid] and is lost
    otherwise, as under {!crash_lines}.  Afterwards every cell of [fresh] reads
    [volatile = persisted = image], no line is dirty and no buffer is
    pending.  Only the lines [t] changed since its {!log_persists} mark
    are visited — its dirty lines and the logged ones — and only cells
    whose value differs are written.  So [fresh] must come from a
    set-up of the same case — the same cells, in the same order, on the
    same lines — and hold the state [t] held at the mark.
    @raise Invalid_argument when [t] has no mark.
    @raise Layout_mismatch when the cell count, a line's members or
    the line ids differ. *)

val log_persists : t -> unit
(** Mark the heap's state now, and from here on log each line whose
    persisted words change, for {!crash_into}. *)

val dirty_count : t -> int
(** Dirty cells. *)

val dirty_lines : t -> int list
(** Ids of every line holding at least one dirty cell, ascending — the
    set over which a crash draws verdicts. *)

val stats : t -> stats

val counters : t -> Dssq_memory.Memory_intf.counters
(** {!stats} as an immutable snapshot in the uniform counter currency
    shared with the native backend. *)

val reset_stats : t -> unit
val cell_count : t -> int
val line_count : t -> int
