(** The litmus corpus: ready-made model-checking scenarios for all eight
    DSS objects (queue, stack, register, hash map, swap, deque, priority
    queue, bounded counter), 2–3 threads, with and without crashes, at
    configurable persist-line sizes.

    Every case wires the same pieces together: a fresh simulated heap
    (optionally behind a {!Mutants} interposer), the object built over
    it, a {!Dssq_history.Recorder} capturing every operation — prep/exec
    pairs for the detectable DSS calls, [Base] for plain calls, and the
    post-crash protocol (recovery, recorded [Resolve] per thread,
    exactly-once retries of pending operations, recorded drain reads) —
    and {!Oracle.assert_linearizable} as the per-execution check, so the
    explorer's verdict on each case is the paper's own correctness
    condition.

    Detectable operations are split direct-mode prep / explored exec:
    preps run (and are recorded) in the scenario's prologue, the
    scheduler interleaves the exec phases.  A set-up builds the layout
    (heap, object, recovery system, root registration, recorder); the
    prologue (seed operations, preps) runs on live worlds only, so a
    crash branch's restart world holds the layout and the crash's image
    and nothing the prologue left in volatile state.  The split keeps
    per-thread step counts near ten, which is what makes exhaustive
    crash enumeration affordable in CI.

    Every [D<T>] object goes through one builder ({!detectable_setup}):
    the protocol above is object-independent because [D<T>] gives every
    object the same surface.  An object supplies only its specification,
    its construction and recovery wiring, and a table of {!program}s;
    the op-to-call mapping is the object's one
    {!Dssq_core.Detectable_intf.adapter}, defined in [lib/core].

    The hash map has no prep/exec split — [put]/[remove] are single
    detectable calls — so its oracle is plain strict linearizability of
    the map specification under crashes: crashed mutations may take
    effect or vanish, [resolve] only drives the exactly-once retries and
    is not itself a specification-level operation.  (Fabricating a
    completed [Prep] record around a fused call would let the checker
    demand announcements the implementation never promised — a false
    positive — so the [D<T>] alphabet is deliberately not used here.) *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Explore = Dssq_sim.Explore
module Trace = Dssq_obs.Trace
module Spec = Dssq_spec.Spec
module Dss_spec = Dssq_spec.Dss_spec
module Specs = Dssq_spec.Specs
module Recorder = Dssq_history.Recorder
module Lincheck = Dssq_lincheck.Lincheck
module Queue_intf = Dssq_core.Queue_intf
module Detectable_intf = Dssq_core.Detectable_intf

type params = {
  crashes : bool;
  line_size : int;
  policy : Heap.Policy.t;
      (** the heap's persist policy.  Under [Px86] and [Combine] the
          crash adversary also draws buffer-drain prefixes; under
          [Combine] every combine-capable object routes exec through its
          combining path, so crashes land inside batch epochs — before
          the install, mid-fold, and between the install and its
          persist epoch closing *)
  mode : Lincheck.mode;
  mutation : Mutants.mutation option;
  max_preemptions : int;
  max_crash_lines : int;
  crash_samples : int;
  seed : int;
  adversary : Explore.adversary;
  limit : int;
}

let default_params =
  {
    crashes = false;
    line_size = 1;
    policy = Heap.Policy.Eager;
    mode = Lincheck.Strict;
    mutation = None;
    max_preemptions = 1;
    max_crash_lines = 4;
    crash_samples = 6;
    seed = 0;
    adversary = `Per_line;
    limit = 2_000_000;
  }

(* Every scenario presents the same face to the explorer: a bag of
   threads plus a [finish] closure holding the whole post-execution
   protocol and the oracle call, and a [reattach] closure the explorer
   invokes on every crashed execution (before [finish]) — the
   system-level [Recovery.reattach] that replays the WAL, re-attaches
   the root directory, runs every registered recover, and raises if
   the post-recovery audit finds a leaked node.  [log_size] is the
   world's recovery log as (lanes, slots per lane). *)
type world = {
  finish : crashed:bool -> unit;
  reattach : unit -> unit;
  log_size : int * int;
}

(* What an object's recovery system hands its world. *)
type attached = { checked_reattach : unit -> unit; size : int * int }

type case = {
  name : string;  (** e.g. ["queue/enq-deq/crash/ls1/px86"] *)
  obj : string;
  prog : string;
  crashes : bool;
  line_size : int;
  policy : Heap.Policy.t;
  nthreads : int;
  run : reduction:bool -> Explore.stats;
      (** explore; raises [Explore.Violation] on a failing execution *)
  replay : Explore.schedule -> [ `Completed | `Crashed ];
  explain : Explore.schedule -> Explore.outcome * Trace.entry list;
}

let explorer ~(params : params) ~reduction setup : world Explore.t =
  Explore.make ~crashes:params.crashes ~adversary:params.adversary
    ~max_crash_lines:params.max_crash_lines
    ~crash_samples:params.crash_samples ~seed:params.seed ~reduction
    ~limit:params.limit ~max_preemptions:params.max_preemptions
    ~on_crash:(fun w _heap -> w.reattach ())
    ~setup
    ~check:(fun w _heap ~crashed -> w.finish ~crashed)
    ()

(* The lost-batch mutant lives in the engine, behind a module-global
   hook ([Detectable.lost_batch_injection]): every setup below arms it
   through [memory], and the case closures disarm it on every exit path
   so a mutant case can never leak the injection into later cases. *)
let with_injection ~(params : params) f =
  if params.mutation = Some Mutants.Lost_batch then
    Fun.protect
      ~finally:(fun () -> Dssq_core.Detectable.lost_batch_injection := false)
      f
  else f ()

(* The case-name suffix each policy appends. *)
let policy_suffix : Heap.Policy.t -> string = function
  | Eager -> ""
  | Coalesced -> "/co"
  | Px86 -> "/px86"
  | Combine -> "/fc"

exception Setup_failed of { case : string; exn : exn }
(** Building one of [case]'s worlds raised [exn]: no execution ran. *)

let () =
  Printexc.register_printer (function
    | Setup_failed { case; exn } ->
        Some
          (Printf.sprintf "%s: set-up raised %s" case (Printexc.to_string exn))
    | _ -> None)

(* [setup ()] builds the case's set-up, and with it a fresh verdict
   cache: each run, replay and explain builds its own, so a run's cache
   is freed when the run ends rather than when the corpus is.  Each
   world's layout and prologue raise as {!Setup_failed}, so the case is
   named. *)
let case_of_setup ~(params : params) ~obj ~prog ~nthreads setup =
  let name =
    Printf.sprintf "%s/%s/%s/ls%d%s" obj prog
      (if params.crashes then "crash" else "nocrash")
      params.line_size (policy_suffix params.policy)
  in
  let named f =
    try f () with exn -> raise (Setup_failed { case = name; exn })
  in
  let setup () =
    let build = setup () in
    fun () ->
      let w = named build in
      { w with Explore.prologue = (fun () -> named w.Explore.prologue) }
  in
  {
    name;
    obj;
    prog;
    crashes = params.crashes;
    line_size = params.line_size;
    policy = params.policy;
    nthreads;
    run =
      (fun ~reduction ->
        with_injection ~params (fun () ->
            Explore.run (explorer ~params ~reduction (setup ()))));
    replay =
      (fun sched ->
        with_injection ~params (fun () ->
            Explore.replay_schedule
              (explorer ~params ~reduction:true (setup ()))
              sched));
    explain =
      (fun sched ->
        with_injection ~params (fun () ->
            Explore.explain
              (explorer ~params ~reduction:true (setup ()))
              sched));
  }

let heap ~(params : params) =
  Heap.create ~line_size:params.line_size ~policy:params.policy ()

let memory ~(params : params) heap =
  (* Engine-level mutant: arm the ordering-inversion hook; the case
     closures ([with_injection]) disarm it when the run ends. *)
  if params.mutation = Some Mutants.Lost_batch then
    Dssq_core.Detectable.lost_batch_injection := true;
  let mem = Sim.memory heap in
  match params.mutation with
  | Some m -> Mutants.wrap ~policy:(Heap.policy heap) m mem
  | None -> mem

(* ---------------------------------------------------------------------- *)
(* What every object shares: recovery wiring, programs, the finish frame.  *)

(** The recovery system every corpus object registers with, and the
    checked [reattach] the explorer runs on each crashed execution: it
    fails on a leaked node or on a recovered-structure violation.  Each
    object creates the system where its heap layout always had it —
    before the object for queue, stack, register and hash map, after it
    for the engine objects — because cell and line ids appear in replay
    tokens.

    The log is sized to the program: [lanes] is the number of threads
    that append to it and [lane_capacity] the most records one of them
    appends between two truncations (set-up, then each [reattach]).
    Every object registers one root.  A slot no program writes is never
    dirty, so it adds no crash branch and removing it removes none; an
    undersized lane raises [Wal.Full] in the appending thread, which the
    explorer reports as that execution's failure. *)
module System (M : Dssq_memory.Memory_intf.S) = struct
  include Dssq_core.Recovery.Make (M)

  let create ~lanes ~lane_capacity =
    create ~nthreads:lanes ~wal_lane_capacity:lane_capacity ~root_capacity:1 ()

  let attach t ~name ?audit ?(violations = fun () -> []) recover =
    ignore (register t ~name ?audit recover : int);
    let checked_reattach () =
      let r = reattach t in
      if r.Dssq_core.Recovery.leaked_total > 0 then
        failwith
          (Printf.sprintf "%s: %d node(s) leaked after reattach" name
             r.leaked_total);
      match violations () with
      | [] -> ()
      | vs ->
          failwith
            (name ^ ": recovered-structure violations: "
           ^ String.concat "; " vs)
    in
    { checked_reattach; size = (Wal.lanes (wal t), Wal.lane_capacity (wal t)) }
end

(** The direct-mode read-back that anchors the final state in the
    history. *)
type ('op, 'r) observe =
  | Reads of 'op list  (** each op once *)
  | Drain of 'op * 'r  (** the op until it answers ['r], at most 8 times *)

(** A small explored program, as plain data.  Seeds and the read-back
    run in direct mode as thread {!observer}; each [preps] entry is
    prepped in the prologue and its exec explored as one thread; each
    [base_threads] entry is one explored thread of plain (Axiom 4)
    calls.  After a crash every prepped thread resolves and retries. *)
type ('op, 'r) program = {
  prog : string;
  seed : 'op list;
  preps : (int * 'op) list;
  base_threads : (int * 'op list) list;
  observe : ('op, 'r) observe;
}

let observer = 2

let observe base = function
  | Reads ops -> List.iter (fun op -> ignore (base ~tid:observer op)) ops
  | Drain (op, last) ->
      let rec go guard =
        if guard > 0 && base ~tid:observer op <> last then go (guard - 1)
      in
      go 8

(* The post-execution frame: after a crash, mark it and run the object's
   resolve/retry protocol; then the read-back; then the oracle, through
   the case's verdict cache. *)
let finish rec_ verdicts ~retry ~observe ~crashed =
  (try
     if crashed then begin
       (* [reattach] already ran: the explorer's crash hook routes every
          crashed execution through the system-level recovery (WAL
          replay, root re-attach, recover, leak audit) first. *)
       Recorder.crash rec_;
       retry ()
     end;
     observe ()
   with Mutants.Livelock ->
     (* Planted bugs can destroy liveness (see {!Mutants.Livelock}).
        Observation cut short: mark the in-flight operation as crashed
        so the truncated history is still checkable.  This only adds
        linearization freedom, so a violation found here is genuine. *)
     Recorder.crash rec_);
  Oracle.check_cached verdicts rec_

(* A world's side of a cold restart: its recorder, lent through [lent],
   the one slot every world of a case shares. *)
let history lent rec_ =
  {
    Explore.recorded = (fun () -> Recorder.length rec_);
    lend = (fun () -> lent := Some rec_);
    adopt =
      (fun () ->
        Option.iter (fun from -> Recorder.adopt rec_ ~from) !lent;
        lent := None);
  }

(* ---------------------------------------------------------------------- *)
(* The D<T> builder.                                                       *)

(** [resolve]'s answer as the [D<T>] [Resolve] response. *)
let status : ('op, 'r) Detectable_intf.resolved -> ('op, 'r) Dss_spec.response
    = function
  | Nothing -> Dss_spec.Status (None, None)
  | Pending op -> Dss_spec.Status (Some op, None)
  | Done (op, r) -> Dss_spec.Status (Some op, Some r)

(* The one record/resolve/retry protocol for every D<T> object.
   [instantiate] builds the object and its recovery system over the
   scenario's memory and returns the adapter and its recovery system's
   {!attached}. *)
let detectable_setup (type op r) ~(params : params) ~verdicts ~lent
    ~(instantiate :
       combine:bool ->
       (module Dssq_memory.Memory_intf.S) ->
       (op, r) Detectable_intf.adapter * attached)
    (p : (op, r) program) () =
  let heap = heap ~params in
  let o, sys =
    instantiate ~combine:(params.policy = Combine) (memory ~params heap)
  in
  let rec_ = Recorder.create () in
  let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
  let exec ~tid op =
    record ~tid (Dss_spec.Exec op) (fun () -> Dss_spec.Ret (o.exec ~tid op))
  in
  let base ~tid op =
    let uid = Recorder.invoke rec_ ~tid (Dss_spec.Base op) in
    let r = o.base ~tid op in
    Recorder.response rec_ ~uid (Dss_spec.Ret r);
    r
  in
  let prologue () =
    List.iter (fun op -> ignore (base ~tid:observer op)) p.seed;
    List.iter
      (fun (tid, op) ->
        record ~tid (Dss_spec.Prep op) (fun () ->
            o.prep ~tid op;
            Dss_spec.Ack))
      p.preps
  in
  let threads =
    List.map (fun (tid, op) () -> exec ~tid op) p.preps
    @ List.map
        (fun (tid, ops) () -> List.iter (fun op -> ignore (base ~tid op)) ops)
        p.base_threads
  in
  (* The recorded answer decides the re-exec: one [resolve] per thread. *)
  let retry () =
    List.iter
      (fun (tid, _) ->
        match
          Recorder.record rec_ ~tid Dss_spec.Resolve (fun () ->
              status (o.resolve ~tid))
        with
        | Dss_spec.Status (Some op, None) -> exec ~tid op
        | _ -> ())
      p.preps
  in
  let finish =
    finish rec_ verdicts ~retry ~observe:(fun () -> observe base p.observe)
  in
  {
    Explore.ctx =
      { finish; reattach = sys.checked_reattach; log_size = sys.size };
    heap;
    threads;
    history = history lent rec_;
    prologue;
  }

(* ---------------------------------------------------------------------- *)
(* The objects: instance, then program table.                              *)

(* [reclaim:false] keeps epoch-based reclamation out of the explored
   step space; node recycling has its own tests.  The pool's alloc/free
   intents go through the system WAL (log-then-link), so crashes landing
   mid-alloc or mid-log-append are recoverable. *)
let queue_instance ~combine (module M : Dssq_memory.Memory_intf.S) =
  let module Q = Dssq_core.Dss_queue.Make (M) in
  let module Sys = System (M) in
  (* Lane [tid] logs thread [tid]'s allocations.  Lane 0 is the busiest:
     the root record, the sentinel and thread 0's one enqueue node.
     Dequeues free nothing ([reclaim:false]), and a retried exec reuses
     the node its prep allocated. *)
  let sys = Sys.create ~lanes:3 ~lane_capacity:3 in
  let q =
    Q.create ~wal:(Sys.wal sys) ~pool_id:(Sys.fresh_pool_id sys)
      ~reclaim:false ~combine ~nthreads:3 ~capacity:8 ()
  in
  ( Queue_intf.adapter (module Q) q,
    Sys.attach sys ~name:"queue"
      ~audit:(fun () -> Dssq_core.Recovery.audit_of_pool (Q.audit q))
      ~violations:(fun () -> Q.recovered_violations q)
      (fun () -> Q.recover q) )

(* Every queue program seeds one element, so dequeues race over both
   list shapes (empty and non-empty), and drains the queue at the end. *)
let queue_progs =
  let open Specs.Queue in
  let prog ?(preps = []) ?(base_threads = []) prog =
    { prog; seed = [ Enqueue 90 ]; preps; base_threads;
      observe = Drain (Dequeue, Empty) }
  in
  [
    prog "enq-deq" ~preps:[ (0, Enqueue 5); (1, Dequeue) ];
    prog "enq-enq" ~preps:[ (0, Enqueue 5); (1, Enqueue 7) ];
    prog "enq-enq-deq" ~preps:[ (0, Enqueue 5); (1, Enqueue 7); (2, Dequeue) ];
    (* The whole-recovery cases: a plain enqueue (and dequeue) explored
       end to end — allocation, WAL append, link, tail swing — so the
       crash adversary can land mid-alloc and mid-log-append, between
       the logged intent and the node becoming reachable.  Single
       explored thread: these probe crash coverage, not races (the
       prep/exec programs above cover those). *)
    prog "mid-alloc" ~base_threads:[ (0, [ Enqueue 5 ]) ];
    prog "mid-link" ~base_threads:[ (0, [ Enqueue 5; Dequeue ]) ];
  ]

let stack_instance ~combine (module M : Dssq_memory.Memory_intf.S) =
  let module S = Dssq_core.Dss_stack.Make (M) in
  let module Sys = System (M) in
  (* As the queue's log, less the sentinel: lane 0 holds the root
     record and thread 0's one push node. *)
  let sys = Sys.create ~lanes:3 ~lane_capacity:2 in
  let s =
    S.create ~wal:(Sys.wal sys) ~pool_id:(Sys.fresh_pool_id sys)
      ~reclaim:false ~combine ~nthreads:3 ~capacity:8 ()
  in
  ( Queue_intf.stack_adapter (module S) s,
    Sys.attach sys ~name:"stack"
      ~audit:(fun () -> Dssq_core.Recovery.audit_of_pool (S.audit s))
      (fun () -> S.recover s) )

let stack_progs =
  let open Specs.Stack in
  let prog prog preps =
    { prog; seed = [ Push 90 ]; preps; base_threads = [];
      observe = Drain (Pop, Empty) }
  in
  [
    prog "push-pop" [ (0, Push 5); (1, Pop) ];
    prog "push-push" [ (0, Push 5); (1, Push 7) ];
  ]

let register_instance ~combine:_ (module M : Dssq_memory.Memory_intf.S) =
  let module R = Dssq_core.Dss_register.Make (M) in
  let module Sys = System (M) in
  (* The root record is the only record: a register allocates nothing. *)
  let sys = Sys.create ~lanes:1 ~lane_capacity:1 in
  let r = R.create ~init:0 ~nthreads:3 () in
  ( Dssq_core.Dss_register.adapter (module R) r,
    Sys.attach sys ~name:"register" (fun () -> R.recover r) )

let register_progs =
  let open Specs.Register in
  [
    { prog = "write-write"; seed = []; preps = [ (0, Write 5); (1, Write 7) ];
      base_threads = []; observe = Reads [ Read ] };
    { prog = "write-read"; seed = []; preps = [ (0, Write 5) ];
      base_threads = [ (1, [ Read ]) ]; observe = Reads [ Read ] };
  ]

(* The engine objects ({!Dssq_core.Detectable.Make}) share one adapter;
   [make] applies the object's functor.  Their recovery system follows
   the object. *)
let engine (type op r) make ~combine mem =
  let (module M : Dssq_memory.Memory_intf.S) = mem in
  let (module O : Detectable_intf.GENERIC
        with type op = op
         and type response = r) =
    make mem
  in
  let o = O.create ~combine ~nthreads:3 () in
  let module Sys = System (M) in
  (* The root record is the only record: the engine allocates nothing. *)
  let sys = Sys.create ~lanes:1 ~lane_capacity:1 in
  ( Detectable_intf.generic (module O) o,
    Sys.attach sys ~name:O.name (fun () -> O.recover o) )

let swap_progs =
  let open Specs.Swap in
  [
    { prog = "swap-swap"; seed = []; preps = [ (0, Swap 5); (1, Swap 7) ];
      base_threads = []; observe = Reads [ Read ] };
    { prog = "swap-read"; seed = [ Swap 90 ]; preps = [ (0, Swap 5) ];
      base_threads = [ (1, [ Read ]) ]; observe = Reads [ Read ] };
  ]

let deque_progs =
  let open Specs.Deque in
  [
    { prog = "front-back"; seed = [ Push_back 90 ];
      preps = [ (0, Push_front 5); (1, Push_back 7) ]; base_threads = [];
      observe = Reads [ Pop_front; Pop_front; Pop_front ] };
    { prog = "push-pop"; seed = [ Push_back 90 ];
      preps = [ (0, Push_front 5); (1, Pop_back) ]; base_threads = [];
      observe = Reads [ Pop_front; Pop_front ] };
  ]

let pqueue_progs =
  let open Specs.Pqueue in
  [
    { prog = "ins-ins"; seed = [ Insert 90 ];
      preps = [ (0, Insert 5); (1, Insert 7) ]; base_threads = [];
      observe = Reads [ Extract_min; Extract_min; Extract_min ] };
    { prog = "ins-extract"; seed = [ Insert 90 ];
      preps = [ (0, Insert 5); (1, Extract_min) ]; base_threads = [];
      observe = Reads [ Extract_min; Extract_min ] };
  ]

let bcounter_progs =
  let open Specs.Bcounter in
  [
    { prog = "inc-inc"; seed = []; preps = [ (0, Increment); (1, Increment) ];
      base_threads = []; observe = Reads [ Get ] };
    (* Decrement can race Increment at 0: both orders of the failing and
       succeeding outcomes must linearize. *)
    { prog = "inc-dec"; seed = []; preps = [ (0, Increment); (1, Decrement) ];
      base_threads = []; observe = Reads [ Get ] };
  ]

(* ---------------------------------------------------------------------- *)
(* Hash map: plain map linearizability; resolve drives retries only.       *)

let map_spec = Specs.Map.spec ()

let hashmap_instance (module M : Dssq_memory.Memory_intf.S) =
  let module H = Dssq_core.Dss_hashmap.Make (M) in
  let module Sys = System (M) in
  (* The root record is the only record: the map logs no allocation. *)
  let sys = Sys.create ~lanes:1 ~lane_capacity:1 in
  let h = H.create ~nthreads:3 ~nbuckets:8 () in
  ( Dssq_core.Dss_hashmap.adapter (module H) h,
    Sys.attach sys ~name:"hashmap" (fun () -> H.recover h) )

let hashmap_setup ~(params : params) ~verdicts ~lent
    (p : (Specs.Map.op, _) program) () =
  let heap = heap ~params in
  let o, sys = hashmap_instance (memory ~params heap) in
  let rec_ = Recorder.create () in
  let call ~tid op = Recorder.record rec_ ~tid op (fun () -> o.base ~tid op) in
  let prologue () =
    List.iter (fun op -> ignore (call ~tid:observer op)) p.seed
  in
  let threads =
    List.map
      (fun (tid, ops) () -> List.iter (fun op -> ignore (call ~tid op)) ops)
      p.base_threads
  in
  let retry () =
    List.iter
      (fun (tid, _) ->
        match o.resolve ~tid with
        | Pending op -> ignore (call ~tid op)
        | Nothing | Done _ -> ())
      p.base_threads
  in
  let finish =
    finish rec_ verdicts ~retry ~observe:(fun () -> observe call p.observe)
  in
  {
    Explore.ctx =
      { finish; reattach = sys.checked_reattach; log_size = sys.size };
    heap;
    threads;
    history = history lent rec_;
    prologue;
  }

(* No preps: the hash map's mutations are single detectable calls. *)
let hashmap_progs =
  let open Specs.Map in
  let prog prog base_threads =
    { prog; seed = [ Put (2, 9) ]; preps = []; base_threads;
      observe = Reads [ Find 1; Find 2 ] }
  in
  [
    prog "put-put" [ (0, [ Put (1, 5) ]); (1, [ Put (1, 7) ]) ];
    prog "put-remove" [ (0, [ Put (1, 5) ]); (1, [ Remove 2 ]) ];
  ]

(* ---------------------------------------------------------------------- *)
(* Corpus assembly: the object registry.                                   *)

(** One corpus entry per object.  [cases] below and every by-name lookup
    ([objects], [progs_of_obj], [build]) derive from this list, so a new
    object gets crash coverage by adding a descriptor — there is no
    hand-maintained match to forget to extend. *)
type descriptor = {
  d_obj : string;
  d_progs : string list;
  d_nthreads : string -> int;  (** explored threads, per program *)
  d_setup : params:params -> prog:string -> unit -> world Explore.scenario;
}

(* Everything but the set-up itself derives from the program table.  A
   set-up is [setup] applied to its program, to a fresh verdict cache
   and to the slot its worlds lend their histories through, so both
   live as long as the set-up closure. *)
let descriptor ~obj ~spec progs setup =
  let find prog =
    match List.find_opt (fun p -> p.prog = prog) progs with
    | Some p -> p
    | None ->
        invalid_arg
          (Printf.sprintf "Scenarios: unknown %s program %s" obj prog)
  in
  {
    d_obj = obj;
    d_progs = List.map (fun p -> p.prog) progs;
    d_nthreads =
      (fun prog ->
        let p = find prog in
        List.length p.preps + List.length p.base_threads);
    d_setup =
      (fun ~params ~prog ->
        let p = find prog in
        setup ~params ~verdicts:(Oracle.cache ~mode:params.mode spec)
          ~lent:(ref None) p);
  }

let detectable ~obj ~spec ~instantiate progs =
  descriptor ~obj ~spec:(Dss_spec.make ~nthreads:3 spec) progs
    (detectable_setup ~instantiate)

let registry =
  [
    detectable ~obj:"queue" ~spec:(Specs.Queue.spec ())
      ~instantiate:queue_instance queue_progs;
    detectable ~obj:"stack" ~spec:(Specs.Stack.spec ())
      ~instantiate:stack_instance stack_progs;
    detectable ~obj:"register" ~spec:(Specs.Register.spec ~init:0 ())
      ~instantiate:register_instance register_progs;
    descriptor ~obj:"hashmap" ~spec:map_spec hashmap_progs hashmap_setup;
    detectable ~obj:"swap" ~spec:(Specs.Swap.spec ())
      ~instantiate:
        (engine (fun (module M) -> (module Dssq_core.Dss_swap.Make (M))))
      swap_progs;
    detectable ~obj:"deque" ~spec:(Specs.Deque.spec ())
      ~instantiate:
        (engine (fun (module M) -> (module Dssq_core.Dss_deque.Make (M))))
      deque_progs;
    detectable ~obj:"pqueue" ~spec:(Specs.Pqueue.spec ())
      ~instantiate:
        (engine (fun (module M) -> (module Dssq_core.Dss_pqueue.Make (M))))
      pqueue_progs;
    detectable ~obj:"bcounter"
      ~spec:(Specs.Bcounter.spec ~bound:Dssq_core.Dss_bcounter.bound ())
      ~instantiate:
        (engine (fun (module M) -> (module Dssq_core.Dss_bcounter.Make (M))))
      bcounter_progs;
  ]

let objects = List.map (fun d -> d.d_obj) registry

let descriptor_of_obj name =
  match List.find_opt (fun d -> d.d_obj = name) registry with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf "Scenarios: unknown object %s (known: %s)" name
           (String.concat ", " objects))

let progs_of_obj obj = (descriptor_of_obj obj).d_progs

let build ~params ~obj ~prog =
  let d = descriptor_of_obj obj in
  case_of_setup ~params ~obj ~prog ~nthreads:(d.d_nthreads prog) (fun () ->
      d.d_setup ~params ~prog)

(** Assemble the corpus: every program of every object in [objects],
    under each of [crash_modes] and [line_sizes] (which override
    [params.crashes] and [params.line_size]).  A mutation restricts the
    corpus to the objects it targets.  Three-thread programs are kept
    crash-free: with a crash adversary their branching factor would put
    a single case past the CI budget. *)
let cases ?(objects = objects) ?(crash_modes = [ false; true ])
    ?(line_sizes = [ 1; 8 ]) ?(params = default_params) () =
  let objects =
    (* Memory-layer mutants are seeded against queue cell names; the
       engine-level lost-batch mutant targets the combining engine, so
       its hunt runs over the engine-made objects instead. *)
    match params.mutation with
    | Some Mutants.Lost_batch -> [ "swap"; "deque"; "pqueue"; "bcounter" ]
    | Some _ -> [ "queue" ]
    | None -> objects
  in
  List.concat_map
    (fun obj ->
      let d = descriptor_of_obj obj in
      List.concat_map
        (fun prog ->
          List.concat_map
            (fun crashes ->
              if crashes && d.d_nthreads prog > 2 then []
              else
                List.map
                  (fun line_size ->
                    build ~params:{ params with crashes; line_size } ~obj ~prog)
                  line_sizes)
            crash_modes)
        d.d_progs)
    objects

let find_case ~cases:cs name = List.find_opt (fun c -> c.name = name) cs

(** What the model checker builds per explored execution, for each object
    of the corpus at the default parameters (line size 1, sc) and the
    object's first program: a restart world — the layout alone (heap,
    WAL, root directory, object, recorder), as every crash branch builds
    it — and a live world — the layout, its mark and the prologue (seed
    operations and recorded preps), as every replay builds it.  Named
    ["<obj>/<prog> restart"] and ["<obj>/<prog> live"].  The set-up
    closure ([d_setup ~params ~prog]: program lookup and verdict cache)
    is built once, outside the returned thunks, as a corpus run builds
    it once and calls it per execution. *)
let setup_worlds () =
  List.concat_map
    (fun d ->
      let prog = List.hd d.d_progs in
      let layout = d.d_setup ~params:default_params ~prog in
      let live () =
        let w = layout () in
        Heap.log_persists w.Explore.heap;
        w.prologue ();
        w
      in
      let name = d.d_obj ^ "/" ^ prog in
      [ (name ^ " restart", layout); (name ^ " live", live) ])
    registry
