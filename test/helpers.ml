(** Shared helpers for the test suite: spec instances, queue bundles
    carrying their [D<queue>] adapter (histories are recorded through
    the corpus's client, {!Scenarios.prep} and the rest), and scenario
    runners with crash injection. *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Explore = Dssq_sim.Explore
module Spec = Dssq_spec.Spec
module Dss_spec = Dssq_spec.Dss_spec
module Specs = Dssq_spec.Specs
module History = Dssq_history.History
module Recorder = Dssq_history.Recorder
module Lincheck = Dssq_lincheck.Lincheck
module Queue_intf = Dssq_core.Queue_intf
module Tagged = Dssq_core.Tagged

(* D<queue>, for [nthreads] threads. *)
let queue_spec ~nthreads = Dss_spec.make ~nthreads (Specs.Queue.spec ())

module Scenarios = Dssq_checker.Scenarios
module Oracle = Dssq_checker.Oracle

(** A detectable queue instance bundled as closures, together with its
    heap, so scenario code does not need the functor-generated types;
    [obj] is its [D<queue>] adapter, for the recorded client
    ({!Scenarios.prep} and the rest). *)
type dq = {
  heap : Heap.t;
  obj :
    (Specs.Queue.op, Specs.Queue.response) Dssq_core.Detectable_intf.adapter;
  prep_enqueue : tid:int -> int -> unit;
  exec_enqueue : tid:int -> unit;
  prep_dequeue : tid:int -> unit;
  exec_dequeue : tid:int -> int;
  enqueue : tid:int -> int -> unit;
  dequeue : tid:int -> int;
  resolve : tid:int -> Queue_intf.resolved;
  recover : unit -> unit;
  recover_thread : tid:int -> unit;
  recover_pool : unit -> unit;
  to_list : unit -> int list;
  free_count : unit -> int;
  recovered_violations : unit -> string list;
}

(** The bundle of any detectable queue [q] just built on [heap], with
    its [to_list], per-thread recovery, pool recovery, free-node gauge
    and recovery invariants; marks the heap at the end of that layout. *)
let dq_of (type q) (module Q : Queue_intf.DETECTABLE_QUEUE with type t = q)
    ~to_list ~recover_thread ~recover_pool ~free_count ~recovered_violations
    heap (q : q) : dq =
  Heap.log_persists heap;
  {
    heap;
    obj = Queue_intf.adapter (module Q) q;
    prep_enqueue = Q.prep_enqueue q;
    exec_enqueue = Q.exec_enqueue q;
    prep_dequeue = Q.prep_dequeue q;
    exec_dequeue = Q.exec_dequeue q;
    enqueue = Q.enqueue q;
    dequeue = Q.dequeue q;
    resolve = Q.resolve q;
    recover = (fun () -> Q.recover q);
    recover_thread = recover_thread q;
    recover_pool = (fun () -> recover_pool q);
    to_list = (fun () -> to_list q);
    free_count = (fun () -> free_count q);
    recovered_violations = (fun () -> recovered_violations q);
  }

let dss_dq ?(reclaim = true) heap (module M : Dssq_memory.Memory_intf.S)
    ~nthreads ~capacity =
  let module Q = Dssq_core.Dss_queue.Make (M) in
  dq_of (module Q) ~to_list:Q.to_list ~recover_thread:Q.recover_thread
    ~recover_pool:Q.recover_pool ~free_count:Q.free_count
    ~recovered_violations:Q.recovered_violations heap
    (Q.create ~reclaim ~nthreads ~capacity ())

(** The DSS queue, over [memory] of its heap (default: the heap's own). *)
let make_dss_queue ?reclaim ?(memory = Sim.memory) ~nthreads ~capacity () =
  let heap = Heap.create () in
  dss_dq ?reclaim heap (memory heap) ~nthreads ~capacity

(** A baseline detectable queue: the log or a CASWE queue, for the
    baselines' own tests (their crash trials run on {!Trial.queue}).  A
    baseline recovers as a whole, keeps no node pool and checks no
    recovery invariants. *)
let make_queue kind ~nthreads ~capacity () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let baseline (type q)
      (module Q : Queue_intf.DETECTABLE_QUEUE with type t = q) ~to_list q =
    dq_of (module Q) ~to_list
      ~recover_thread:(fun q ~tid:_ -> Q.recover q)
      ~recover_pool:ignore
      ~free_count:(fun _ -> 0)
      ~recovered_violations:(fun _ -> [])
      heap q
  in
  match kind with
  | `Log ->
      let module Q = Dssq_baselines.Log_queue.Make (M) in
      baseline (module Q) ~to_list:Q.to_list (Q.create ~nthreads ~capacity)
  | `Fast ->
      let module Q = Dssq_baselines.Caswe_queue.Fast (M) in
      baseline (module Q) ~to_list:Q.to_list (Q.create ~nthreads ~capacity ())
  | `General ->
      let module Q = Dssq_baselines.Caswe_queue.General (M) in
      baseline (module Q) ~to_list:Q.to_list (Q.create ~nthreads ~capacity ())

(** A crash, as the paper's failure model has it: a fresh world from
    [setup] — the same layout [live] was built with, which marks its
    heap ({!Heap.log_persists}) at its end — loaded with the image a
    crash of [live] leaves ({!Sim.restart}).  Nothing volatile of [live]
    survives; recovery and every later operation run on the world
    returned. *)
let restart ~setup ~heap live ~evict_p ~seed =
  let fresh = setup () in
  Sim.restart (heap live) ~into:(heap fresh) ~evict_p ~seed;
  fresh

(** Crash at every step until the run completes, for the objects that
    have no [D<T>] trial world: the durable queue, the hash map,
    [Dss_cell], PMwCAS, ABD and the RME lock ({!sweep} is the [D<T>]
    objects' sweep).  For [step] = 0, 1, …: [run ~step w] gets a fresh
    world [w] from [setup], does its own preparation on it and returns
    its threads and [after]; the threads run with a crash before
    [step], and [after outcome] receives [Some w'] when they crashed —
    [w'] is the cold restart ({!restart}, drawn with [evict_p] and
    [seed step]) — and [None] when they completed, which ends the
    sweep.  Returns the number of crashed runs. *)
let sweep_crashes ~setup ~heap ~evict_p ~seed run =
  let rec go step =
    let w = setup () in
    let threads, after = run ~step w in
    let outcome =
      Sim.run (heap w) ~crash:(Sim.Crash_at_step step) ~threads
    in
    if outcome.Sim.crashed then begin
      after outcome
        (Some (restart ~setup ~heap w ~evict_p ~seed:(seed step)));
      go (step + 1)
    end
    else begin
      after outcome None;
      step
    end
  in
  go 0

let dq_heap (q : dq) = q.heap

(* ---------------------------------------------------------------------- *)
(* Crash trials ({!Dssq_trial.Trial}) of D<T> objects.                     *)

module Trial = Dssq_trial.Trial

(** [trials expected f] calls [f trial], then checks that [expected] is
    the number of trials it ran and of those that crashed.  [trial name
    world p i] runs one trial ({!Trial.run}), fails the test unless its
    history is strictly linearizable, and answers whether it crashed. *)
let trials expected f =
  let n = ref 0 and crashed = ref 0 in
  let trial name world (p : _ Trial.program) (i : Trial.inputs) =
    let r = Trial.run world p i in
    incr n;
    if r.crashed then incr crashed;
    (match r.verdict with
    | Lincheck.Linearizable _ -> ()
    | Lincheck.Not_linearizable _ ->
        Alcotest.failf
          "%s: seed %d crash %d evict %.1f: not strictly linearizable:@.%a"
          name i.seed i.crash_step i.evict_p
          (History.pp ~pp_op:p.spec.pp_op ~pp_response:p.spec.pp_response)
          r.history);
    r.crashed
  in
  f trial;
  Alcotest.(check (pair int int))
    "trials, crashed trials" expected (!n, !crashed)

(** A crash at every step: on each named world of [worlds] and under
    each eviction probability of [evictions], the one-thread program [p]
    runs with a crash before step 0, [stride], 2 [stride], … until a
    trial completes ({!trials}: each must be strictly linearizable, and
    [expected] pins the trials and crashed trials of the lot); the
    restart after a crash at [step] draws with [seed step]. *)
let sweep ?(stride = 1) expected worlds p ~evictions ~seed () =
  trials expected @@ fun trial ->
  List.iter
    (fun (name, world) ->
      List.iter
        (fun evict_p ->
          let rec go crash_step =
            if
              trial name world p
                {
                  Trial.seed = 0;
                  crash_step;
                  evict_p;
                  restart_seed = seed crash_step;
                }
            then go (crash_step + stride)
          in
          go 0)
        evictions)
    worlds

(** Thread 0 enqueues [base]; thread [i] preps and execs the [i]th of
    [threads]; the queue is drained at the end. *)
let queue_program ~base threads : _ Trial.program =
  {
    spec = queue_spec ~nthreads:2;
    base = List.map (fun v -> Specs.Queue.Enqueue v) base;
    threads;
    observe = Drain (Specs.Queue.Dequeue, Specs.Queue.Empty);
  }

(* Convenient Alcotest testables *)
let resolved : Queue_intf.resolved Alcotest.testable =
  Alcotest.testable Queue_intf.pp_resolved Queue_intf.equal_resolved

let int_list = Alcotest.(list int)
