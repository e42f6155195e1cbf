(** A detectable recoverable lock-free stack — the DSS queue's
    methodology (per-thread tagged [X], claim marks flushed before the
    structural swing, Figure-6-style recovery) applied to Treiber's
    stack, showing the recipe is not queue-specific.

    The [resolved] vocabulary is shared with the queue:
    [Enq_*] = push, [Deq_*] = pop. *)

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

  (** {1 Non-detectable operations} *)

  val push : t -> tid:int -> int -> unit

  val pop : t -> tid:int -> int
  (** Returns {!Queue_intf.empty_value} on an empty stack. *)

  (** {1 Detectable operations} *)

  val prep_push : t -> tid:int -> int -> unit
  val exec_push : t -> tid:int -> unit
  val prep_pop : t -> tid:int -> unit
  val exec_pop : t -> tid:int -> int

  (** {1 Introspection} *)

  val pool : t -> Pool.t
  (** The node pool, for tests that inspect node words and free lists
      (quiescent use only). *)
end
