(** The DSS queue (Section 3 of the paper): a lock-free, strictly
    linearizable, detectable FIFO queue for persistent memory with a
    volatile cache, implementing [D<queue>] — Michael & Scott's queue
    plus Friedman et al.'s durability discipline plus the per-thread
    tagged word [X] that realizes the [A]/[R] detectability mappings.

    Values are non-negative ints; {!Queue_intf.empty_value} is the EMPTY
    response.  Thread ids must be in [0 .. nthreads-1] and (per the
    paper's model) survive crashes. *)

module Make (M : Dssq_memory.Memory_intf.S) : sig
  module Pool : module type of Node_pool.Make (M)

  type t

  (** The shared detectable-linked-structure core (name, [create],
      [resolve], [recover], [stats], introspection) — see
      {!Queue_intf.LINKED_CORE}. *)
  include
    Queue_intf.LINKED_CORE
      with type t := t
       and type wal := Pool.Wal.t

  val of_config : ?wal:Pool.Wal.t -> ?pool_id:int -> Queue_intf.config -> t
  (** {!create} through the unified {!Queue_intf.config} record. *)

  (** {1 Non-detectable operations (Axiom 4)} *)

  val enqueue : t -> tid:int -> int -> unit
  val dequeue : t -> tid:int -> int

  (** {1 Detectable operations (Axioms 1-3; Figures 3-4)} *)

  val prep_enqueue : t -> tid:int -> int -> unit
  val exec_enqueue : t -> tid:int -> unit
  val prep_dequeue : t -> tid:int -> unit
  val exec_dequeue : t -> tid:int -> int

  (** {1 Queue-specific recovery entry points} *)

  val recover_thread : t -> tid:int -> unit
  (** Decentralized variant (Section 3.3): repairs only [tid]'s own
      detectability state and may run concurrently with other threads.
      It presumes a recovered allocator: after a restart, run
      {!recover_pool} once first. *)

  val recover_pool : t -> unit
  (** The allocator's recovery that decentralized recovery presumes: a
      crash loses the volatile free lists, so rebuild them from the
      persistent state, keeping every node reachable from head or held
      by an X entry.  Single-threaded; run once, before
      {!recover_thread}. *)

  val recovered_violations : t -> string list
  (** Structural invariants that must hold right after {!recover};
      returns human-readable violations (empty = healthy). *)

  (** {1 Introspection} *)

  val pool : t -> Pool.t
  (** The node pool, for tests that inspect node words and free lists
      (quiescent use only). *)
end
