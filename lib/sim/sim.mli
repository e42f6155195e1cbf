(** Deterministic simulator for persistent-memory algorithms.

    {[
      module World (M : Dssq_memory.Memory_intf.S) = struct
        module Q = Dssq_core.Dss_queue.Make (M)
        let q = Q.create ~nthreads:2 ~capacity:64 ()      (* direct mode *)
      end

      let live = Heap.create () in
      let (module L) = Sim.memory live in
      let module L = World (L) in
      Heap.log_persists live;                            (* end of set-up *)
      let outcome =
        Sim.run live
          ~policy:(Sim.Random_seed 42)
          ~crash:(Sim.Crash_at_step 17)
          ~threads:[ (fun () -> ...); (fun () -> ...) ]
      in
      if outcome.crashed then begin
        (* a cold restart: a fresh world loaded with the crash's image *)
        let heap = Heap.create () in
        let (module M) = Sim.memory heap in
        let module W = World (M) in
        Sim.restart live ~into:heap ~evict_p:0.5 ~seed:7;
        W.Q.recover W.q                                  (* direct mode *)
      end
    ]}

    Code outside {!run} (initialization, single-threaded recovery) applies
    memory operations directly; code inside is interleaved at
    memory-event granularity per the policy. *)

open Dssq_pmem

type policy =
  | Round_robin
  | Random_seed of int  (** uniformly random runnable thread, seeded *)
  | Script of int array
      (** follow the given thread ids (skipping unrunnable ones), then
          round-robin *)

type crash_plan =
  | No_crash
  | Crash_at_step of int  (** crash before executing step [n] (0-based) *)
  | Crash_prob of float * int  (** per-step crash probability, seed *)

type outcome = {
  steps : int;
  crashed : bool;
  results : (unit, exn) result option array;
      (** per-thread; [None] if killed by a crash *)
}

val memory : Heap.t -> (module Dssq_memory.Memory_intf.S)
(** A first-class [MEMORY] backed by the heap: operations suspend into
    the scheduler inside {!run}, and apply directly outside.  The heap's
    {!Heap.policy} (fixed at {!Heap.create}) decides what a flush does;
    [drain] is its own scheduling step on a buffered heap and a literal
    no-op on an eager one, so annotated algorithms produce bit-for-bit
    the pre-coalescing event stream there. *)

val counted_memory : Heap.t -> (module Dssq_memory.Memory_intf.COUNTED)
(** {!memory} plus uniform event accounting (the heap always counts);
    same [COUNTED] shape as [Dssq_memory.Native.Counted ()]. *)

val yield : Heap.t -> unit
(** Explicit scheduling point for thread code (no-op outside {!run}). *)

val run :
  ?policy:policy ->
  ?crash:crash_plan ->
  ?max_steps:int ->
  Heap.t ->
  threads:(unit -> unit) list ->
  outcome
(** Run the threads to completion, crash, or [max_steps] (default 10^6 —
    exceeding it raises, catching livelocks).  Each step's events are
    attributed to the stepped thread in an active [Dssq_obs.Trace]. *)

val restart : Heap.t -> into:Heap.t -> evict_p:float -> seed:int -> unit
(** [restart live ~into ~evict_p ~seed] crashes [live] and loads the
    image it leaves into [into] ({!Heap.crash_into}): every dirty line
    independently persists with probability [evict_p] (cache eviction
    at power loss) or reverts to its last flushed value; under px86 and
    combine each persist buffer first writes back a random FIFO prefix
    and the lines left buffered are lost.  [into] is a fresh copy of
    the same layout — the cells [live] was built with, in the same
    order, with none of the operations [live] ran after it — whose
    objects then recover from the image alone (a cold restart, as in
    the paper's failure model; [live] needs a {!Heap.log_persists} mark
    at the end of that layout), or [live] itself.  A fresh [into] is marked before the load, so a later
    restart of [into] keeps this image. *)

val apply_crash : Heap.t -> evict_p:float -> seed:int -> unit
(** [restart heap ~into:heap]: the crash in place, whose caller recovers
    the crashed objects themselves.  Only the [restart] benchmark uses
    it. *)

val check_thread_errors : outcome -> unit
(** Re-raise the first non-[Killed] exception a thread died with. *)
