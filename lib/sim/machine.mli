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

val runnable : t -> int list
(** Thread ids that can still take a step. *)

val finished : t -> bool
val steps : t -> int

(** Outcome of a step, for cost models.  [flush_effective] is [Some
    false] when the step was a flush of a clean line (elided — no
    write-back to charge). *)
type step_info = { cas_success : bool option; flush_effective : bool option }

val step : t -> int -> step_info
(** Execute one atomic step of the given thread: start it (running to its
    first memory event) or apply its pending event and run to the next. *)

val pending_kind : t -> int -> Sim_op.kind option
(** Cost class of the thread's next event. *)

val pending_target : t -> int -> int option
(** Persist line the thread's next event targets, if any. *)

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
