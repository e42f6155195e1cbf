(** Deterministic simulator for persistent-memory algorithms; the usage
    pattern (a crash restarts cold, into a fresh copy of the world) is in
    sim.mli, and the tests and [examples/crash_recovery.ml] follow it.

    Code executed outside {!run} (initialization, the single-threaded
    recovery phase) applies memory operations directly; code inside [run]
    is interleaved at memory-operation granularity per the policy. *)

open Dssq_pmem

type policy =
  | Round_robin
  | Random_seed of int
      (** uniformly random runnable thread each step, seeded *)
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
      (** per-thread: [None] if killed by a crash *)
}

(** A first-class [MEMORY] backed by [heap].  Inside {!run} operations
    suspend into the scheduler as one {!Sim_op.t} event each; outside
    they call the {!Heap} operation directly and build no event, so
    set-up, recovery and the post-crash protocol pay nothing for the
    routing.

    The heap's {!Heap.policy} decides what [flush] and [drain] do, so
    this module only routes: [flush] is one {!Sim_op.Flush} event either
    way, and [drain] is a real scheduling step on a buffered heap but a
    literal no-op (zero events, zero scheduling points) on an eager one,
    keeping annotated algorithms bit-for-bit identical to their
    pre-coalescing event streams there. *)
let memory heap : (module Dssq_memory.Memory_intf.S) =
  let eager = Heap.policy heap = Dssq_memory.Memory_intf.Policy.Eager in
  (module struct
    type 'a cell = 'a Cell.t

    let alloc ?name ?placement v = Heap.alloc heap ?name ?placement v
    let alloc_block ?name vs = Heap.alloc_block heap ?name vs
    let perform o = Effect.perform (Machine.Mem o)

    let read c =
      if heap.Heap.in_sim then perform (Sim_op.Read c) else Heap.read heap c

    let write c v =
      if heap.Heap.in_sim then perform (Sim_op.Write (c, v))
      else Heap.write heap c v

    let cas c ~expected ~desired =
      if heap.Heap.in_sim then perform (Sim_op.Cas (c, expected, desired))
      else Heap.cas heap c ~expected ~desired

    let flush c =
      if heap.Heap.in_sim then perform (Sim_op.Flush c) else Heap.flush heap c

    let fence () =
      if heap.Heap.in_sim then perform Sim_op.Fence else Heap.fence heap

    let drain () =
      if not eager then
        if heap.Heap.in_sim then perform Sim_op.Drain else Heap.drain heap
  end)

(** {!memory} plus the uniform accounting interface: the heap always
    counts events (that {e is} the simulator's cost model), so this just
    exposes snapshot/reset in the same [COUNTED] shape as
    [Dssq_memory.Native.Counted]. *)
let counted_memory heap : (module Dssq_memory.Memory_intf.COUNTED) =
  (module struct
    include (val memory heap : Dssq_memory.Memory_intf.S)

    let counters () = Heap.counters heap
    let reset_counters () = Heap.reset_stats heap
  end)

(** Explicit scheduling point usable from thread code (e.g. workloads that
    want to be preemptible between high-level operations). *)
let yield heap =
  if heap.Heap.in_sim then Effect.perform (Machine.Mem Sim_op.Yield)

let pick_round_robin last runnable =
  match List.filter (fun t -> t > last) runnable with
  | t :: _ -> t
  | [] -> List.hd runnable

let run ?(policy = Round_robin) ?(crash = No_crash) ?(max_steps = 1_000_000)
    heap ~threads =
  let machine = Machine.create heap threads in
  let n = Machine.nthreads machine in
  let rng =
    match policy with
    | Random_seed seed -> Some (Random.State.make [| seed |])
    | Round_robin | Script _ -> None
  in
  let crash_rng =
    match crash with
    | Crash_prob (_, seed) -> Some (Random.State.make [| seed; 0x5EED |])
    | No_crash | Crash_at_step _ -> None
  in
  let script = match policy with Script s -> s | _ -> [||] in
  let script_pos = ref 0 in
  let last = ref (-1) in
  let crashed = ref false in
  heap.Heap.in_sim <- true;
  Fun.protect
    ~finally:(fun () ->
      heap.Heap.in_sim <- false;
      (* Whatever runs next (recovery, checking) is system context. *)
      Dssq_obs.Trace.set_tid (-1))
    (fun () ->
      let continue_run = ref true in
      while !continue_run && Machine.runnable machine <> [] do
        let step_index = Machine.steps machine in
        if step_index >= max_steps then
          failwith
            (Printf.sprintf "Sim.run: exceeded max_steps=%d (livelock?)"
               max_steps);
        let crash_now =
          match crash with
          | No_crash -> false
          | Crash_at_step s -> step_index = s
          | Crash_prob (p, _) ->
              Random.State.float (Option.get crash_rng) 1.0 < p
        in
        if crash_now then begin
          crashed := true;
          Machine.kill_all machine;
          continue_run := false
        end
        else begin
          let runnable = Machine.runnable machine in
          let tid =
            match rng with
            | Some rng ->
                List.nth runnable
                  (Random.State.int rng (List.length runnable))
            | None ->
                if !script_pos < Array.length script then begin
                  let wanted = script.(!script_pos) in
                  incr script_pos;
                  if List.mem wanted runnable then wanted
                  else pick_round_robin !last runnable
                end
                else pick_round_robin !last runnable
          in
          last := tid;
          (* Attribute the memory events of this step (emitted from
             [Heap]) to the scheduled thread. *)
          Dssq_obs.Trace.set_tid tid;
          Machine.step machine tid
        end
      done;
      {
        steps = Machine.steps machine;
        crashed = !crashed;
        results =
          Array.init n (fun i ->
              match Machine.result machine i with
              | Some (Error Machine.Killed) -> None
              | r -> r);
      })

(** Crash [live] and load the image into [into] (see {!Heap.crash_into}):
    every dirty line independently persists with probability [evict_p]
    (cache eviction at power loss) or reverts to its last flushed value
    — each line as a unit.  Under the px86 and combine policies the draw
    respects the buffered model: each thread's persist buffer first
    writes back a random FIFO {e prefix} (the adversary's asynchronous
    drain), and the free-form per-line verdicts then range only over
    the dirty lines outside every buffer — a buffered line that missed
    its prefix is lost, never evicted out of order.  A fresh [into] is
    marked first, so the lines loaded are logged and a later restart of
    [into] keeps this image. *)
let restart live ~into ~evict_p ~seed =
  let rng = Random.State.make [| seed; 0xC7A5 |] in
  let fifos = Heap.pending_fifos live in
  let drains =
    List.map
      (fun (tid, entries) ->
        (tid, Random.State.int rng (List.length entries + 1)))
      fifos
  in
  (* The lines still buffered after their thread's prefix: lost. *)
  let buffered =
    List.concat_map
      (fun (tid, entries) ->
        List.filteri (fun i _ -> i >= List.assoc tid drains) entries)
      fifos
  in
  if into != live then Heap.log_persists into;
  Heap.crash_into live ~into ~drains ~evict:(fun lid ->
      (not (List.mem lid buffered)) && Random.State.float rng 1.0 < evict_p)

let apply_crash heap ~evict_p ~seed = restart heap ~into:heap ~evict_p ~seed

(** Re-raise the first non-[Killed] exception a thread died with, so test
    failures inside simulated threads are not silently swallowed. *)
let check_thread_errors outcome =
  Array.iter
    (function
      | Some (Error e) when e <> Machine.Killed -> raise e | _ -> ())
    outcome.results
