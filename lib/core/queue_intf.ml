(** Common interfaces for the queue implementations in this repository
    (the DSS queue and every baseline it is evaluated against). *)

let empty_value = -1
(** The EMPTY response of a dequeue on an empty queue (Section 3.2).
    Application values must therefore be non-negative. *)

(** Outcome of [resolve] (Axiom 3), i.e. the pair [(A[p], R[p])] of the
    detectable sequential specification instantiated for the queue type. *)
type resolved =
  | Nothing  (** (bottom, bottom): no operation was prepared *)
  | Enq_pending of int  (** (enqueue v, bottom): prepared, did not take effect *)
  | Enq_done of int  (** (enqueue v, OK): prepared and took effect *)
  | Deq_pending  (** (dequeue, bottom): prepared, did not take effect *)
  | Deq_empty  (** (dequeue, EMPTY): took effect on an empty queue *)
  | Deq_done of int  (** (dequeue, v): took effect, dequeued v *)

let pp_resolved fmt = function
  | Nothing -> Format.pp_print_string fmt "(_|_, _|_)"
  | Enq_pending v -> Format.fprintf fmt "(enqueue %d, _|_)" v
  | Enq_done v -> Format.fprintf fmt "(enqueue %d, OK)" v
  | Deq_pending -> Format.pp_print_string fmt "(dequeue, _|_)"
  | Deq_empty -> Format.pp_print_string fmt "(dequeue, EMPTY)"
  | Deq_done v -> Format.fprintf fmt "(dequeue, %d)" v

let equal_resolved (a : resolved) (b : resolved) = a = b

(** Shared constructor configuration, so every implementation (and the
    registry dispatching over all of them) is built the same way.
    [capacity] bounds the number of live queue nodes (per-thread
    pre-allocated pools, as in the paper's evaluation); [reclaim]
    recycles dequeued nodes through EBR where the implementation
    supports it and is ignored elsewhere.  [line_size] records the
    persist-line size (words per line) the run's memory backend is
    configured with — 1 is the legacy word-granular model; the harness
    that creates the backend is responsible for keeping the two in
    sync (see [Dssq_workload]).  [policy] likewise records the backend's
    persist policy ({!Dssq_memory.Memory_intf.Policy}); the objects read
    only whether it is [Combine], where they elide the hardening drains
    the buffer order subsumes (DESIGN.md §14) — under every other policy
    they just call [drain] at their persistence points.  This record is
    the {e single} interface carrying the memory model; object
    signatures live in {!LINKED_CORE} and restate none of it. *)
type config = {
  nthreads : int;
  capacity : int;
  reclaim : bool;
  line_size : int;
  policy : Dssq_memory.Memory_intf.Policy.t;
}

let config ?(reclaim = true) ?(line_size = 1)
    ?(policy = Dssq_memory.Memory_intf.Policy.Eager) ~nthreads ~capacity () =
  if nthreads <= 0 then invalid_arg "Queue_intf.config: nthreads must be > 0";
  if capacity <= 0 then invalid_arg "Queue_intf.config: capacity must be > 0";
  if line_size <= 0 then
    invalid_arg "Queue_intf.config: line_size must be > 0";
  { nthreads; capacity; reclaim; line_size; policy }

(** Closure record for heterogeneous dispatch in workloads and benches,
    hiding the functor-generated type [t]. *)
type ops = {
  name : string;
  enqueue : tid:int -> int -> unit;
  dequeue : tid:int -> int;
  d_enqueue : tid:int -> int -> unit;  (** prep + exec, detectable *)
  d_dequeue : tid:int -> int;  (** prep + exec, detectable *)
  recover : unit -> unit;  (** post-crash recovery; no-op if unsupported *)
  resolve : tid:int -> resolved;  (** [Nothing] if detection unsupported *)
  stats : unit -> (string * int) list;
      (** implementation-specific gauges (pool occupancy, …) surfaced
          without downcasting; [[]] for implementations without any.
          Quiescent use only. *)
}

(** The shared core of the linked-structure objects' interfaces — what
    [dss_queue.mli] and [dss_stack.mli] used to duplicate.  The
    operation quartet itself keeps its object vocabulary
    (enqueue/dequeue vs push/pop) and lives in the per-object [.mli]
    alongside this include. *)
module type LINKED_CORE = sig
  type t

  type wal
  (** The write-ahead log type of the object's node pool
      ([Node_pool.Make(M).Wal.t]); passing one routes every node
      alloc/free through the log-then-link discipline. *)

  val name : string

  val create :
    ?wal:wal -> ?pool_id:int -> ?reclaim:bool -> ?combine:bool ->
    nthreads:int -> capacity:int -> unit -> t
  (** [combine] (default [false]) elides the per-operation hardening
      drains that the flat-combining buffer order makes redundant, so
      many operations share one persist epoch; see DESIGN.md §14. *)

  val resolve : t -> tid:int -> resolved
  (** The [(A[p], R[p])] of the calling thread; total and idempotent. *)

  val recover : t -> unit
  (** Centralized single-threaded recovery (Figure 6 / Appendix A), run
      after a crash and before threads resume. *)

  val stats : t -> Detectable_intf.stats

  val audit : t -> Node_pool.audit_report
  (** Post-recovery leak audit (read-only): check the rebuilt free
      lists and the kept node set partition the pool exactly. *)

  (** {1 Introspection (quiescent use: tests, debugging)} *)

  val to_list : t -> int list
  val free_count : t -> int
end

(* ---------------------------------------------------------------------- *)
(* The linked structures' D<T> surface.                                    *)

module Specs = Dssq_spec.Specs

(** The queue and stack answer [resolve] in {!resolved} and a remove
    with a raw int ({!empty_value} for EMPTY).  This is the one mapping
    of both onto a specification's alphabet. *)
type ('op, 'r) linked = {
  insert : int -> 'op;
  remove : 'op;
  ok : 'r;
  empty : 'r;
  value : int -> 'r;
}

let queue_ops : (Specs.Queue.op, Specs.Queue.response) linked =
  {
    insert = (fun v -> Enqueue v);
    remove = Dequeue;
    ok = Ok;
    empty = Empty;
    value = (fun v -> Value v);
  }

let stack_ops : (Specs.Stack.op, Specs.Stack.response) linked =
  {
    insert = (fun v -> Push v);
    remove = Pop;
    ok = Ok;
    empty = Empty;
    value = (fun v -> Value v);
  }

(** A remove's raw return as a response. *)
let removed l v = if v = empty_value then l.empty else l.value v

let linked_resolved l : resolved -> _ Detectable_intf.resolved = function
  | Nothing -> Nothing
  | Enq_pending v -> Pending (l.insert v)
  | Enq_done v -> Done (l.insert v, l.ok)
  | Deq_pending -> Pending l.remove
  | Deq_empty -> Done (l.remove, l.empty)
  | Deq_done v -> Done (l.remove, l.value v)

(** Every detectable queue in the repository — the DSS queue and the
    log and CASWE baselines — has this surface, whatever its
    constructor looks like. *)
module type DETECTABLE_QUEUE = sig
  type t

  val enqueue : t -> tid:int -> int -> unit
  val dequeue : t -> tid:int -> int
  val prep_enqueue : t -> tid:int -> int -> unit
  val exec_enqueue : t -> tid:int -> unit
  val prep_dequeue : t -> tid:int -> unit
  val exec_dequeue : t -> tid:int -> int
  val resolve : t -> tid:int -> resolved
  val recover : t -> unit
end

(** The [D<queue>] adapter of any detectable queue. *)
let adapter (type q) (module Q : DETECTABLE_QUEUE with type t = q) (q : q) :
    (Specs.Queue.op, Specs.Queue.response) Detectable_intf.adapter =
  let open Specs.Queue in
  {
    prep =
      (fun ~tid -> function
        | Enqueue v -> Q.prep_enqueue q ~tid v
        | Dequeue -> Q.prep_dequeue q ~tid);
    exec =
      (fun ~tid -> function
        | Enqueue _ ->
            Q.exec_enqueue q ~tid;
            Ok
        | Dequeue -> removed queue_ops (Q.exec_dequeue q ~tid));
    base =
      (fun ~tid -> function
        | Enqueue v ->
            Q.enqueue q ~tid v;
            Ok
        | Dequeue -> removed queue_ops (Q.dequeue q ~tid));
    resolve = (fun ~tid -> linked_resolved queue_ops (Q.resolve q ~tid));
  }

(** What {!stack_adapter} needs of the detectable stack. *)
module type DETECTABLE_STACK = sig
  type t

  val push : t -> tid:int -> int -> unit
  val pop : t -> tid:int -> int
  val prep_push : t -> tid:int -> int -> unit
  val exec_push : t -> tid:int -> unit
  val prep_pop : t -> tid:int -> unit
  val exec_pop : t -> tid:int -> int
  val resolve : t -> tid:int -> resolved
end

(** The [D<stack>] adapter of the detectable stack. *)
let stack_adapter (type s) (module S : DETECTABLE_STACK with type t = s)
    (s : s) : (Specs.Stack.op, Specs.Stack.response) Detectable_intf.adapter
    =
  let open Specs.Stack in
  {
    prep =
      (fun ~tid -> function
        | Push v -> S.prep_push s ~tid v | Pop -> S.prep_pop s ~tid);
    exec =
      (fun ~tid -> function
        | Push _ ->
            S.exec_push s ~tid;
            Ok
        | Pop -> removed stack_ops (S.exec_pop s ~tid));
    base =
      (fun ~tid -> function
        | Push v ->
            S.push s ~tid v;
            Ok
        | Pop -> removed stack_ops (S.pop s ~tid));
    resolve = (fun ~tid -> linked_resolved stack_ops (S.resolve s ~tid));
  }
