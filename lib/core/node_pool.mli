(** Pre-allocated persistent queue-node pools with thread-local free
    lists (the paper's evaluation methodology, Section 4).  A node is a
    triple of persistent words — value, next (0 = NULL), and the
    [deqThreadID] claim mark (-1 = unmarked), laid out as one
    line-aligned block per node so a single flush persists the whole
    node at realistic line sizes.  Node 0 is reserved as NULL; valid
    indices are [1 .. capacity].  Free lists are volatile,
    strictly thread-local, and rebuilt from the persistent structure
    after a crash.  Each free-list head is padded to a cache-line stride
    ({!Dssq_memory.Memory_intf.Padded}) so per-domain push/pop traffic on
    neighbouring shards does not false-share. *)

exception Pool_exhausted of int  (** carries the starved thread id *)

(** Post-recovery free-list audit: a correct recovery leaves [leaked]
    (nodes in neither the kept set nor any free list) and [dual]
    (nodes in both, or on two free lists) empty. *)
type audit_report = {
  kept_nodes : int;
  free_nodes : int;
  leaked : int list;
  dual : int list;
}

module Make (M : Dssq_memory.Memory_intf.S) : sig
  module Wal : module type of Dssq_pmem.Wal.Make (M)

  type t = {
    value : int M.cell array;
    next : int M.cell array;
    deq_tid : int M.cell array;
    capacity : int;
    nthreads : int;
    free_lists : int list Dssq_memory.Memory_intf.Padded.t array;
    wal : Wal.t option;
    pool_id : int;
  }

  val create :
    ?wal:Wal.t -> ?pool_id:int -> capacity:int -> nthreads:int -> unit -> t
  (** With [?wal], every alloc/free intent is appended (lane = calling
      thread, payload = node index and [pool_id]) and persisted before
      the node's state changes — the log-then-link discipline. *)

  val value : t -> int -> int M.cell
  val next : t -> int -> int M.cell
  val deq_tid : t -> int -> int M.cell

  val alloc : t -> tid:int -> value:int -> int
  (** Pop from [tid]'s free list; initializes value/next (volatile;
      callers flush per their persistence protocol).
      @raise Pool_exhausted when the free list is empty. *)

  val alloc_reclaiming :
    t -> ebr:int Dssq_ebr.Ebr.t -> tid:int -> value:int -> int
  (** Like {!alloc}, but paces reclamation forward and retries when the
      list is momentarily dry because retired nodes await their grace
      period (typical on oversubscribed cores). *)

  val free : t -> tid:int -> int -> unit
  (** Return a node to its home thread's free list; persists the
      unmarked state. *)

  val free_count : t -> int

  val rebuild_free_lists : t -> keep:(int -> bool) -> unit
  (** Post-crash: every node for which [keep] is false becomes available
      again, striped across threads, with its fields reset persistently
      (stored only where they differ from the reset value, flushed
      either way). *)

  val audit : t -> keep:(int -> bool) -> audit_report
  (** Read-only partition check of [1 .. capacity] against [keep] and
      the current free lists; see {!audit_report}. *)
end
