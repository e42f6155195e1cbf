(** One randomized crash trial of a detectable object against [D<T>]
    (the Theorem 1 experiment): thread 0 runs the base operations, then
    each thread preps and execs its operation under a seeded random
    schedule with a crash before a chosen step.  A crashed run restarts
    cold: a fresh world of the same layout, loaded with the crash's
    image, recovers, and each thread follows the one post-crash rule
    ({!Dssq_checker.Scenarios.retry}, which the explorer's corpus runs
    too): it records its [resolve], then re-executes a pending
    operation once, or re-prepares and executes one whose prep was
    lost.  Thread 0 then reads the object back, and the strict checker
    judges the whole history.  Every call goes through the corpus's
    recorded client, so the trial and the corpus record the same
    events for the same calls.  [dssq lincheck] and every crash test of
    a [D<T>] object are loops over their own inputs around {!run}. *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Spec = Dssq_spec.Spec
module Dss_spec = Dssq_spec.Dss_spec
module History = Dssq_history.History
module Recorder = Dssq_history.Recorder
module Lincheck = Dssq_lincheck.Lincheck
module Scenarios = Dssq_checker.Scenarios

(** An object under test: its heap, marked ({!Heap.log_persists}) at the
    end of the layout, its [D<T>] adapter and its recovery.  A world
    that wants a check after recovery makes it part of [recover]. *)
type ('op, 'r) world = {
  heap : Heap.t;
  obj : ('op, 'r) Dssq_core.Detectable_intf.adapter;
  recover : unit -> unit;
}

type ('s, 'op, 'r) spec =
  (('s, 'op, 'r) Dss_spec.state, 'op Dss_spec.op, ('op, 'r) Dss_spec.response)
  Spec.t

(** What runs: [base] by thread 0 before the threads start; thread [i]
    preps and execs the [i]th of [threads]; at the end thread 0 runs the
    read-back [observe], as a corpus program does.  [spec] is the [D<T>]
    the history is judged against, for as many threads as [threads]. *)
type ('s, 'op, 'r) program = {
  spec : ('s, 'op, 'r) spec;
  base : 'op list;
  threads : 'op list;
  observe : ('op, 'r) Scenarios.observe;
}

(** The random choices: the schedule's seed, the step the crash lands
    before, and the restart's eviction probability and seed. *)
type inputs = {
  seed : int;
  crash_step : int;
  evict_p : float;
  restart_seed : int;
}

type ('op, 'r) result = {
  crashed : bool;
  history : ('op Dss_spec.op, ('op, 'r) Dss_spec.response) History.t;
  verdict : ('op Dss_spec.op, ('op, 'r) Dss_spec.response) Lincheck.verdict;
}

exception Thread_raised of exn
(** An explored thread raised, crash or no crash: the trial fails before
    recovery, which would otherwise mark the operation pending. *)

(** [run setup p i]: [setup] builds a world and is called again, with
    the tracer muted, for the restart world.  The tracer, if any, is the
    caller's.  An exception from [recover] or from a retried operation
    propagates. *)
let run setup p i =
  let live = setup () in
  let rec_ = Recorder.create () in
  (* Every base operation, the read-back's included, is thread 0's. *)
  List.iter (fun op -> ignore (Scenarios.base rec_ live.obj ~tid:0 op)) p.base;
  let thread tid op () =
    Scenarios.prep rec_ live.obj ~tid op;
    Scenarios.exec rec_ live.obj ~tid op
  in
  let outcome =
    Sim.run live.heap ~policy:(Sim.Random_seed i.seed)
      ~crash:(Sim.Crash_at_step i.crash_step)
      ~threads:(List.mapi thread p.threads)
  in
  (try Sim.check_thread_errors outcome with e -> raise (Thread_raised e));
  let w =
    if not outcome.crashed then live
    else begin
      Recorder.crash rec_;
      let fresh = Dssq_obs.Trace.muted setup in
      Sim.restart live.heap ~into:fresh.heap ~evict_p:i.evict_p
        ~seed:i.restart_seed;
      fresh.recover ();
      List.iteri
        (fun tid op -> Scenarios.retry rec_ fresh.obj ~tid op)
        p.threads;
      fresh
    end
  in
  Scenarios.observe ~tid:0 (Scenarios.base rec_ w.obj) p.observe;
  let history = Recorder.history rec_ in
  {
    crashed = outcome.crashed;
    history;
    verdict = Lincheck.check ~mode:Lincheck.Strict p.spec history;
  }

(* ---------------------------------------------------------------------- *)
(* The detectable queues' worlds.                                          *)

(** Every detectable queue in the repository: the DSS queue and the log
    and CASWE baselines. *)
let queues =
  [
    ("dss", `Dss);
    ("log", `Log);
    ("fast-caswe", `Fast);
    ("general-caswe", `General);
  ]

(** A world of a detectable queue for two threads and 64 nodes, on a
    heap under [policy].  The DSS queue's recovery also checks its
    structural invariants. *)
let queue ~policy kind () =
  let heap = Heap.create ~policy () in
  let (module M) = Dssq_sim.Sim.memory heap in
  let world (type q)
      (module Q : Dssq_core.Queue_intf.DETECTABLE_QUEUE with type t = q)
      ?(violations = fun _ -> []) (q : q) =
    Heap.log_persists heap;
    {
      heap;
      obj = Dssq_core.Queue_intf.adapter (module Q) q;
      recover =
        (fun () ->
          Q.recover q;
          match violations q with
          | [] -> ()
          | vs ->
              failwith
                ("recovery invariants violated: " ^ String.concat "; " vs));
    }
  in
  match kind with
  | `Dss ->
      let module Q = Dssq_core.Dss_queue.Make (M) in
      world
        (module Q)
        ~violations:Q.recovered_violations
        (Q.create ~nthreads:2 ~capacity:64 ~combine:(policy = Combine) ())
  | `Log ->
      let module Q = Dssq_baselines.Log_queue.Make (M) in
      world (module Q) (Q.create ~nthreads:2 ~capacity:64)
  | `Fast ->
      let module Q = Dssq_baselines.Caswe_queue.Fast (M) in
      world (module Q) (Q.create ~nthreads:2 ~capacity:64 ())
  | `General ->
      let module Q = Dssq_baselines.Caswe_queue.General (M) in
      world (module Q) (Q.create ~nthreads:2 ~capacity:64 ())
