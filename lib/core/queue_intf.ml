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
    signatures live in {!Detectable_intf.LINKED_CORE} and restate none
    of it. *)
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
