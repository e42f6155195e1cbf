(** Native backend of the [MEMORY] interface: real OCaml domains over
    [Atomic.t] (sequentially consistent, like the paper's C++ seq_cst
    atomics), with the calibrated persist cost charged at each
    flush/fence — per dirty {e line}: a flush of a clean line is free
    (elided) when the line size is >= 2.
    Crash semantics cannot be exercised here — that is the simulator
    backend's job; this one is for wall-clock measurement.  The plain
    operations emit no {!Persist_event}s; allocations (named [name[i]]
    within a block) and {!Make}'s operations do, while subscribed. *)

module Line = Memory_intf.Line

type 'a cell = { v : 'a Atomic.t; line : Line.t; pad : int array }
(** [pad] keeps a filler block reachable for [Isolated]-placement cells
    so consecutive hot atomics do not share a physical cache line (empty
    for packed cells). *)

val set_line_size : int -> unit
(** Replace the process-wide line allocator with a fresh one of the
    given size (words per line).  Affects subsequent allocations only;
    the default is 1, the legacy word-granular model.  Call before
    building a structure, from a single thread. *)

val line_size : unit -> int

val set_pad_words : int -> unit
(** Set the padding stride (filler words) attached to
    [Isolated]-placement cells.  Setup-time only, like
    {!set_line_size}; the default is [Memory_intf.Padded.pad_words].
    Exists so the harness can sweep the isolation stride on real
    machines ([Dssq_workload.Native_throughput.pad_sweep]). *)

val alloc :
  ?name:Memory_intf.Name.t -> ?placement:Line.placement -> 'a -> 'a cell
(** [name] is forced only to label the allocation for a subscriber
    listening at that moment; native cells keep no name. *)

val alloc_block : ?name:Memory_intf.Name.t -> 'a list -> 'a cell list
val line_id : 'a cell -> int
val read : 'a cell -> 'a
val write : 'a cell -> 'a -> unit
val cas : 'a cell -> expected:'a -> desired:'a -> bool

val flush : 'a cell -> unit
val fence : unit -> unit

val drain : unit -> unit
(** No-op: the plain backend writes back at every [flush].  See {!Make}
    for the buffering policies. *)

module Make (Cfg : sig
  val policy : Memory_intf.Policy.t
end)
() : Memory_intf.COUNTED with type 'a cell = 'a cell
(** The counted backend under one persist policy — the native
    counter/trace analogue of [Dssq_pmem.Heap] under the same
    {!Memory_intf.Policy.t}, emitting the same {!Persist_event}s as the
    heap (cells anonymous, thread from {!Persist_event.pinned_tid}).
    Each instantiation owns fresh counters
    (padded to line stride so the counters themselves do not
    false-share).  Under [Eager] every flush writes back (counting
    write-backs and elisions separately) and [drain] is a no-op.  Every
    other policy buffers each domain's flushed lines in domain-local
    storage; [drain] — or a fence with lines pending — writes the batch
    back with one overlapped persist latency plus one barrier, filling
    the [coalesced_flushes] / [elided_fences] counters.  [Coalesced]
    drains before every store and CAS; [Combine] enqueues every store's
    line.  Counter-only on real hardware (no crash adversary): the
    simulator is where crash behaviour is model-checked. *)

module Counted () : Memory_intf.COUNTED with type 'a cell = 'a cell
(** [Make] under [Eager]. *)
