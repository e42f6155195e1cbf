(** Low-level stepping machine for simulated threads.

    Threads are closures over the simulated memory; every memory access
    performs an effect that suspends the thread here.  {!step} executes a
    thread's pending memory event (one atomic step of the modelled
    machine) and runs it to its next event.  Schedulers ([Sim.run], the
    throughput model) and the exhaustive explorer are loops over this
    module. *)

open Dssq_pmem

exception Killed
(** Raised inside a thread when the machine crashes underneath it. *)

type t

type _ Effect.t += Mem : 'a Sim_op.t -> 'a Effect.t
(** The effect simulated memory performs for each access. *)

val create : Heap.t -> (unit -> unit) list -> t

val nthreads : t -> int

val is_runnable : t -> int -> bool
(** Whether the thread can still take a step. *)

val runnable : t -> int list
(** Thread ids that can still take a step, in increasing order. *)

val steps : t -> int

val step : t -> int -> unit
(** Execute one atomic step of the given thread: start it (running to its
    first memory event) or apply its pending event and run to the next. *)

val cas_failed : t -> bool
(** For cost models: the last {!step} applied a CAS that failed. *)

val flush_elided : t -> bool
(** For cost models: the last {!step} applied a flush of a clean line
    (elided — no write-back to charge). *)

val next_kind : t -> int -> Sim_op.kind
(** Cost class of the thread's next event; a fresh thread's first step
    reads as [Yield].  @raise Invalid_argument once it has completed. *)

val next_line : t -> int -> int
(** Persist line the thread's next event targets, or -1 if none. *)

(** Identity of a thread's next step, for the explorer's independence
    relation: [Start] (a fresh thread's first step — arbitrary closure
    code, conflicts with everything), [Pure] (fence/yield — commutes
    with everything), or a memory access with its cell and line. *)
type access =
  | Start
  | Pure
  | Mem of { kind : Sim_op.kind; cell : int; line : int }

val pending_access : t -> int -> access option
(** [None] once the thread has completed. *)

val kill_all : t -> unit
(** Kill every unfinished thread, as a system-wide crash does. *)

val result : t -> int -> (unit, exn) result option
(** [None] while the thread is still running. *)
