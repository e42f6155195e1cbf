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
    first memory event) or apply its pending event and run to the next.
    The step fills {!last}. *)

(** What the last {!step} did: one record, refilled by every step. *)
type stepped = private {
  mutable kind : Sim_op.kind;
      (** the event's cost class; a thread's start reads as [Yield] *)
  mutable line : int;  (** the persist line it targeted, or -1 *)
  mutable changed : bool;
      (** it changed what a crash could leave behind (the heap's
          {!Dssq_pmem.Heap.t.version} moved): false for a read, a failed
          CAS, an elided flush, a fence or yield with nothing buffered
          and a thread start *)
  mutable cas_failed : bool;  (** it applied a CAS that failed *)
  mutable flush_elided : bool;
      (** it applied a flush of a clean line (elided — no write-back to
          charge) *)
}

val last : t -> stepped

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
