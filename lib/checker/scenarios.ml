(** The litmus corpus: ready-made model-checking scenarios for all four
    DSS objects (queue, stack, register, hash map), 2–3 threads, with
    and without crashes, at configurable persist-line sizes.

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
    preps run (and are recorded) during setup, the scheduler interleaves
    the exec phases.  This keeps per-thread step counts near ten, which
    is what makes exhaustive crash enumeration affordable in CI.

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
   the post-recovery audit finds a leaked node. *)
type world = { finish : crashed:bool -> unit; reattach : unit -> unit }

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

let case_of_setup ~(params : params) ~obj ~prog ~nthreads setup =
  let name =
    Printf.sprintf "%s/%s/%s/ls%d%s" obj prog
      (if params.crashes then "crash" else "nocrash")
      params.line_size (policy_suffix params.policy)
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
            Explore.run (explorer ~params ~reduction setup)));
    replay =
      (fun sched ->
        with_injection ~params (fun () ->
            Explore.replay_schedule
              (explorer ~params ~reduction:true setup)
              sched));
    explain =
      (fun sched ->
        with_injection ~params (fun () ->
            Explore.explain (explorer ~params ~reduction:true setup) sched));
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
(* Queue and stack share the Queue_intf.resolved vocabulary.               *)

let queue_progs =
  [ "enq-deq"; "enq-enq"; "enq-enq-deq"; "mid-alloc"; "mid-link" ]

let queue_setup ~(params : params) ~prog () =
  let heap = heap ~params in
  let (module M) = memory ~params heap in
  let module Q = Dssq_core.Dss_queue.Make (M) in
  let module Sys = Dssq_core.Recovery.Make (M) in
  let sys = Sys.create ~nthreads:3 ~wal_lane_capacity:16 ~root_capacity:4 () in
  (* [reclaim:false] keeps epoch-based reclamation out of the explored
     step space; node recycling has its own tests.  The pool's
     alloc/free intents go through the system WAL (log-then-link), so
     crashes landing mid-alloc or mid-log-append are recoverable. *)
  let q =
    Q.create ~wal:(Sys.wal sys)
      ~pool_id:(Sys.fresh_pool_id sys)
      ~reclaim:false ~combine:(params.policy = Combine) ~nthreads:3
      ~capacity:8 ()
  in
  ignore
    (Sys.register sys ~name:"queue"
       ~audit:(fun () -> Dssq_core.Recovery.audit_of_pool (Q.audit q))
       (fun () -> Q.recover q)
      : int);
  let reattach () =
    let r = Sys.reattach sys in
    if r.Dssq_core.Recovery.leaked_total > 0 then
      failwith
        (Printf.sprintf "queue: %d node(s) leaked after reattach"
           r.Dssq_core.Recovery.leaked_total);
    match Q.recovered_violations q with
    | [] -> ()
    | vs ->
        failwith
          ("queue: recovered-structure violations: " ^ String.concat "; " vs)
  in
  let rec_ = Recorder.create () in
  let spec = Dss_spec.make ~nthreads:3 (Specs.Queue.spec ()) in
  let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
  let deq_response v : _ Dss_spec.response =
    if v = Queue_intf.empty_value then Dss_spec.Ret Specs.Queue.Empty
    else Dss_spec.Ret (Specs.Queue.Value v)
  in
  let resolved_response (r : Queue_intf.resolved) : _ Dss_spec.response =
    match r with
    | Queue_intf.Nothing -> Dss_spec.Status (None, None)
    | Queue_intf.Enq_pending v ->
        Dss_spec.Status (Some (Specs.Queue.Enqueue v), None)
    | Queue_intf.Enq_done v ->
        Dss_spec.Status (Some (Specs.Queue.Enqueue v), Some Specs.Queue.Ok)
    | Queue_intf.Deq_pending -> Dss_spec.Status (Some Specs.Queue.Dequeue, None)
    | Queue_intf.Deq_empty ->
        Dss_spec.Status (Some Specs.Queue.Dequeue, Some Specs.Queue.Empty)
    | Queue_intf.Deq_done v ->
        Dss_spec.Status (Some Specs.Queue.Dequeue, Some (Specs.Queue.Value v))
  in
  let prep_enq ~tid v =
    record ~tid
      (Dss_spec.Prep (Specs.Queue.Enqueue v))
      (fun () ->
        Q.prep_enqueue q ~tid v;
        Dss_spec.Ack)
  in
  let exec_enq ~tid v =
    record ~tid
      (Dss_spec.Exec (Specs.Queue.Enqueue v))
      (fun () ->
        Q.exec_enqueue q ~tid;
        Dss_spec.Ret Specs.Queue.Ok)
  in
  let prep_deq ~tid =
    record ~tid (Dss_spec.Prep Specs.Queue.Dequeue) (fun () ->
        Q.prep_dequeue q ~tid;
        Dss_spec.Ack)
  in
  let exec_deq ~tid =
    record ~tid (Dss_spec.Exec Specs.Queue.Dequeue) (fun () ->
        deq_response (Q.exec_dequeue q ~tid))
  in
  let base_deq ~tid =
    let v = ref Queue_intf.empty_value in
    record ~tid (Dss_spec.Base Specs.Queue.Dequeue) (fun () ->
        v := Q.dequeue q ~tid;
        deq_response !v);
    !v
  in
  let base_enq ~tid v =
    record ~tid
      (Dss_spec.Base (Specs.Queue.Enqueue v))
      (fun () ->
        Q.enqueue q ~tid v;
        Dss_spec.Ret Specs.Queue.Ok)
  in
  (* Seed one element in direct mode so dequeues race over both list
     shapes (empty and non-empty). *)
  base_enq ~tid:2 90;
  let threads, tids =
    match prog with
    | "enq-deq" ->
        prep_enq ~tid:0 5;
        prep_deq ~tid:1;
        ([ (fun () -> exec_enq ~tid:0 5); (fun () -> exec_deq ~tid:1) ], [ 0; 1 ])
    | "enq-enq" ->
        prep_enq ~tid:0 5;
        prep_enq ~tid:1 7;
        ( [ (fun () -> exec_enq ~tid:0 5); (fun () -> exec_enq ~tid:1 7) ],
          [ 0; 1 ] )
    | "enq-enq-deq" ->
        prep_enq ~tid:0 5;
        prep_enq ~tid:1 7;
        prep_deq ~tid:2;
        ( [
            (fun () -> exec_enq ~tid:0 5);
            (fun () -> exec_enq ~tid:1 7);
            (fun () -> exec_deq ~tid:2);
          ],
          [ 0; 1; 2 ] )
    (* The whole-recovery cases: a plain enqueue (and dequeue) explored
       end to end — allocation, WAL append, link, tail swing — so the
       crash adversary can land mid-alloc and mid-log-append, between
       the logged intent and the node becoming reachable.  Single
       explored thread: these probe crash coverage, not races (the
       prep/exec programs above cover those). *)
    | "mid-alloc" -> ([ (fun () -> base_enq ~tid:0 5) ], [])
    | "mid-link" ->
        ( [
            (fun () ->
              base_enq ~tid:0 5;
              ignore (base_deq ~tid:0));
          ],
          [] )
    | p -> invalid_arg ("Scenarios.queue_setup: unknown program " ^ p)
  in
  let drain () =
    let rec go guard =
      if guard > 0 && base_deq ~tid:2 <> Queue_intf.empty_value then
        go (guard - 1)
    in
    go 8
  in
  let resolve_retry ~tid =
    record ~tid Dss_spec.Resolve (fun () -> resolved_response (Q.resolve q ~tid));
    match Q.resolve q ~tid with
    | Queue_intf.Enq_pending v -> exec_enq ~tid v
    | Queue_intf.Deq_pending -> exec_deq ~tid
    | _ -> ()
  in
  let finish ~crashed =
    (* Planted bugs can destroy liveness (see {!Mutants.Livelock}); the
       budget bounds the direct-mode protocol and the oracle judges the
       history recorded so far — which already contains any stale
       resolve response. *)
    (try
       if crashed then begin
         (* [reattach] already ran: the explorer's crash hook routes
            every crashed execution through the system-level recovery
            (WAL replay, root re-attach, Q.recover, leak audit) before
            this protocol resumes. *)
         Recorder.crash rec_;
         List.iter (fun tid -> resolve_retry ~tid) tids
       end;
       drain ()
     with Mutants.Livelock ->
       (* Observation cut short: mark the in-flight operation as crashed
          so the truncated history is still checkable.  This only adds
          linearization freedom, so a violation found here is genuine. *)
       Recorder.crash rec_);
    Oracle.assert_linearizable ~mode:params.mode spec (Recorder.history rec_)
  in
  { Explore.ctx = { finish; reattach }; heap; threads }

let stack_progs = [ "push-pop"; "push-push" ]

let stack_setup ~(params : params) ~prog () =
  let heap = heap ~params in
  let (module M) = memory ~params heap in
  let module S = Dssq_core.Dss_stack.Make (M) in
  let module Sys = Dssq_core.Recovery.Make (M) in
  let sys = Sys.create ~nthreads:3 ~wal_lane_capacity:16 ~root_capacity:4 () in
  let s =
    S.create ~wal:(Sys.wal sys)
      ~pool_id:(Sys.fresh_pool_id sys)
      ~reclaim:false ~combine:(params.policy = Combine) ~nthreads:3
      ~capacity:8 ()
  in
  ignore
    (Sys.register sys ~name:"stack"
       ~audit:(fun () -> Dssq_core.Recovery.audit_of_pool (S.audit s))
       (fun () -> S.recover s)
      : int);
  let reattach () =
    let r = Sys.reattach sys in
    if r.Dssq_core.Recovery.leaked_total > 0 then
      failwith
        (Printf.sprintf "stack: %d node(s) leaked after reattach"
           r.Dssq_core.Recovery.leaked_total)
  in
  let rec_ = Recorder.create () in
  let spec = Dss_spec.make ~nthreads:3 (Specs.Stack.spec ()) in
  let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
  let pop_response v : _ Dss_spec.response =
    if v = Queue_intf.empty_value then Dss_spec.Ret Specs.Stack.Empty
    else Dss_spec.Ret (Specs.Stack.Value v)
  in
  let resolved_response (r : Queue_intf.resolved) : _ Dss_spec.response =
    match r with
    | Queue_intf.Nothing -> Dss_spec.Status (None, None)
    | Queue_intf.Enq_pending v ->
        Dss_spec.Status (Some (Specs.Stack.Push v), None)
    | Queue_intf.Enq_done v ->
        Dss_spec.Status (Some (Specs.Stack.Push v), Some Specs.Stack.Ok)
    | Queue_intf.Deq_pending -> Dss_spec.Status (Some Specs.Stack.Pop, None)
    | Queue_intf.Deq_empty ->
        Dss_spec.Status (Some Specs.Stack.Pop, Some Specs.Stack.Empty)
    | Queue_intf.Deq_done v ->
        Dss_spec.Status (Some Specs.Stack.Pop, Some (Specs.Stack.Value v))
  in
  let prep_push ~tid v =
    record ~tid
      (Dss_spec.Prep (Specs.Stack.Push v))
      (fun () ->
        S.prep_push s ~tid v;
        Dss_spec.Ack)
  in
  let exec_push ~tid v =
    record ~tid
      (Dss_spec.Exec (Specs.Stack.Push v))
      (fun () ->
        S.exec_push s ~tid;
        Dss_spec.Ret Specs.Stack.Ok)
  in
  let prep_pop ~tid =
    record ~tid (Dss_spec.Prep Specs.Stack.Pop) (fun () ->
        S.prep_pop s ~tid;
        Dss_spec.Ack)
  in
  let exec_pop ~tid =
    record ~tid (Dss_spec.Exec Specs.Stack.Pop) (fun () ->
        pop_response (S.exec_pop s ~tid))
  in
  let base_pop ~tid =
    let v = ref Queue_intf.empty_value in
    record ~tid (Dss_spec.Base Specs.Stack.Pop) (fun () ->
        v := S.pop s ~tid;
        pop_response !v);
    !v
  in
  record ~tid:2
    (Dss_spec.Base (Specs.Stack.Push 90))
    (fun () ->
      S.push s ~tid:2 90;
      Dss_spec.Ret Specs.Stack.Ok);
  let threads, tids =
    match prog with
    | "push-pop" ->
        prep_push ~tid:0 5;
        prep_pop ~tid:1;
        ( [ (fun () -> exec_push ~tid:0 5); (fun () -> exec_pop ~tid:1) ],
          [ 0; 1 ] )
    | "push-push" ->
        prep_push ~tid:0 5;
        prep_push ~tid:1 7;
        ( [ (fun () -> exec_push ~tid:0 5); (fun () -> exec_push ~tid:1 7) ],
          [ 0; 1 ] )
    | p -> invalid_arg ("Scenarios.stack_setup: unknown program " ^ p)
  in
  let drain () =
    let rec go guard =
      if guard > 0 && base_pop ~tid:2 <> Queue_intf.empty_value then
        go (guard - 1)
    in
    go 8
  in
  let resolve_retry ~tid =
    record ~tid Dss_spec.Resolve (fun () -> resolved_response (S.resolve s ~tid));
    match S.resolve s ~tid with
    | Queue_intf.Enq_pending v -> exec_push ~tid v
    | Queue_intf.Deq_pending -> exec_pop ~tid
    | _ -> ()
  in
  let finish ~crashed =
    (try
       if crashed then begin
         Recorder.crash rec_;
         List.iter (fun tid -> resolve_retry ~tid) tids
       end;
       drain ()
     with Mutants.Livelock ->
       (* Observation cut short: mark the in-flight operation as crashed
          so the truncated history is still checkable.  This only adds
          linearization freedom, so a violation found here is genuine. *)
       Recorder.crash rec_);
    Oracle.assert_linearizable ~mode:params.mode spec (Recorder.history rec_)
  in
  { Explore.ctx = { finish; reattach }; heap; threads }

(* ---------------------------------------------------------------------- *)
(* Register.                                                               *)

let register_progs = [ "write-write"; "write-read" ]

let register_setup ~(params : params) ~prog () =
  let heap = heap ~params in
  let (module M) = memory ~params heap in
  let module R = Dssq_core.Dss_register.Make (M) in
  let module Sys = Dssq_core.Recovery.Make (M) in
  let sys = Sys.create ~nthreads:3 ~wal_lane_capacity:8 ~root_capacity:4 () in
  let r = R.create ~init:0 ~nthreads:3 () in
  ignore (Sys.register sys ~name:"register" (fun () -> R.recover r) : int);
  let reattach () =
    ignore (Sys.reattach sys : Dssq_core.Recovery.report)
  in
  let rec_ = Recorder.create () in
  let spec = Dss_spec.make ~nthreads:3 (Specs.Register.spec ~init:0 ()) in
  let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
  let prep_write ~tid v =
    record ~tid
      (Dss_spec.Prep (Specs.Register.Write v))
      (fun () ->
        R.prep_write r ~tid v;
        Dss_spec.Ack)
  in
  let exec_write ~tid v =
    record ~tid
      (Dss_spec.Exec (Specs.Register.Write v))
      (fun () ->
        R.exec_write r ~tid;
        Dss_spec.Ret Specs.Register.Ok)
  in
  let exec_read ~tid =
    record ~tid (Dss_spec.Exec Specs.Register.Read) (fun () ->
        Dss_spec.Ret (Specs.Register.Value (R.exec_read r ~tid)))
  in
  let base_read ~tid =
    record ~tid (Dss_spec.Base Specs.Register.Read) (fun () ->
        Dss_spec.Ret (Specs.Register.Value (R.read r ~tid)))
  in
  let resolved_response ~tid : _ Dss_spec.response =
    match R.resolve r ~tid with
    | R.Nothing -> Dss_spec.Status (None, None)
    | R.Write_pending v ->
        Dss_spec.Status (Some (Specs.Register.Write v), None)
    | R.Write_done v ->
        Dss_spec.Status (Some (Specs.Register.Write v), Some Specs.Register.Ok)
    | R.Read_pending -> Dss_spec.Status (Some Specs.Register.Read, None)
    | R.Read_done v ->
        Dss_spec.Status
          (Some Specs.Register.Read, Some (Specs.Register.Value v))
  in
  let threads, tids =
    match prog with
    | "write-write" ->
        prep_write ~tid:0 5;
        prep_write ~tid:1 7;
        ( [ (fun () -> exec_write ~tid:0 5); (fun () -> exec_write ~tid:1 7) ],
          [ 0; 1 ] )
    | "write-read" ->
        prep_write ~tid:0 5;
        ([ (fun () -> exec_write ~tid:0 5); (fun () -> base_read ~tid:1) ], [ 0 ])
    | p -> invalid_arg ("Scenarios.register_setup: unknown program " ^ p)
  in
  let resolve_retry ~tid =
    record ~tid Dss_spec.Resolve (fun () -> resolved_response ~tid);
    match R.resolve r ~tid with
    | R.Write_pending _v -> exec_write ~tid _v
    | R.Read_pending -> exec_read ~tid
    | _ -> ()
  in
  let finish ~crashed =
    (try
       if crashed then begin
         Recorder.crash rec_;
         List.iter (fun tid -> resolve_retry ~tid) tids
       end;
       base_read ~tid:2
     with Mutants.Livelock ->
       (* Observation cut short: mark the in-flight operation as crashed
          so the truncated history is still checkable.  This only adds
          linearization freedom, so a violation found here is genuine. *)
       Recorder.crash rec_);
    Oracle.assert_linearizable ~mode:params.mode spec (Recorder.history rec_)
  in
  { Explore.ctx = { finish; reattach }; heap; threads }

(* ---------------------------------------------------------------------- *)
(* Hash map: plain map linearizability; resolve drives retries only.       *)

let hashmap_progs = [ "put-put"; "put-remove" ]

let hashmap_setup ~(params : params) ~prog () =
  let heap = heap ~params in
  let (module M) = memory ~params heap in
  let module H = Dssq_core.Dss_hashmap.Make (M) in
  let module Sys = Dssq_core.Recovery.Make (M) in
  let sys = Sys.create ~nthreads:3 ~wal_lane_capacity:8 ~root_capacity:4 () in
  let h = H.create ~nthreads:3 ~nbuckets:8 () in
  ignore (Sys.register sys ~name:"hashmap" (fun () -> H.recover h) : int);
  let reattach () =
    ignore (Sys.reattach sys : Dssq_core.Recovery.report)
  in
  let rec_ = Recorder.create () in
  let spec = Specs.Map.spec () in
  let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
  let put ~tid k v =
    record ~tid
      (Specs.Map.Put (k, v))
      (fun () ->
        H.put h ~tid k v;
        Specs.Map.Ok)
  in
  let remove ~tid k =
    record ~tid (Specs.Map.Remove k) (fun () ->
        H.remove h ~tid k;
        Specs.Map.Ok)
  in
  let find ~tid k =
    record ~tid (Specs.Map.Find k) (fun () ->
        match H.find h k with
        | Some v -> Specs.Map.Found v
        | None -> Specs.Map.Absent)
  in
  put ~tid:2 2 9;
  let threads, tids =
    match prog with
    | "put-put" ->
        ([ (fun () -> put ~tid:0 1 5); (fun () -> put ~tid:1 1 7) ], [ 0; 1 ])
    | "put-remove" ->
        ([ (fun () -> put ~tid:0 1 5); (fun () -> remove ~tid:1 2) ], [ 0; 1 ])
    | p -> invalid_arg ("Scenarios.hashmap_setup: unknown program " ^ p)
  in
  let resolve_retry ~tid =
    match H.resolve h ~tid with
    | H.Put_pending (k, v) -> put ~tid k v
    | H.Remove_pending k -> remove ~tid k
    | H.Nothing | H.Put_done _ | H.Remove_done _ -> ()
  in
  let finish ~crashed =
    (try
       if crashed then begin
         Recorder.crash rec_;
         List.iter (fun tid -> resolve_retry ~tid) tids
       end;
       find ~tid:2 1;
       find ~tid:2 2
     with Mutants.Livelock ->
       (* Observation cut short: mark the in-flight operation as crashed
          so the truncated history is still checkable.  This only adds
          linearization freedom, so a violation found here is genuine. *)
       Recorder.crash rec_);
    Oracle.assert_linearizable ~mode:params.mode spec (Recorder.history rec_)
  in
  { Explore.ctx = { finish; reattach }; heap; threads }

(* ---------------------------------------------------------------------- *)
(* Engine-made objects (Detectable.Make zoo): one generic scenario         *)
(* builder; each object contributes its spec, its functor application      *)
(* and a couple of program tables.                                         *)

(** The face a functor-made object presents to the generic builder —
    {!Dssq_core.Detectable_intf.GENERIC} flattened into closures so the
    builder needs no first-class-module plumbing per call. *)
type ('op, 'r) engine_ops = {
  e_prep : tid:int -> 'op -> unit;
  e_exec : tid:int -> 'r;
  e_base : tid:int -> 'op -> 'r;
  e_resolve : tid:int -> ('op, 'r) Dssq_core.Detectable_intf.resolved;
  e_recover : unit -> unit;
}

(** A small explored program over one engine object: [seed] runs as
    direct-mode base ops during setup, each [preps] entry is prepped in
    setup and its exec explored as one thread, [base_threads] are
    explored plain (Axiom 4) calls, and [observe] is the direct-mode
    read-back that anchors the final state in the history. *)
type 'op engine_prog = {
  seed : (int * 'op) list;
  preps : (int * 'op) list;
  base_threads : (int * 'op) list;
  observe : int * 'op list;
}

(* The generic engine-object scenario: the record/resolve/retry protocol
   is object-independent because resolve speaks the uniform
   [(A[p], R[p])] vocabulary — exactly the dedup the registry below
   exists for.  New functor-made objects get crash coverage by adding a
   descriptor, not a bespoke setup. *)
let engine_setup (type s op r) ~(params : params) ~(spec : (s, op, r) Spec.t)
    ~(instantiate : (module Dssq_memory.Memory_intf.S) -> (op, r) engine_ops)
    ~(eprog : op engine_prog) () =
  let heap = heap ~params in
  let mem = memory ~params heap in
  let o = instantiate mem in
  let module MM = (val mem) in
  let module Sys = Dssq_core.Recovery.Make (MM) in
  let sys = Sys.create ~nthreads:3 ~wal_lane_capacity:8 ~root_capacity:4 () in
  ignore
    (Sys.register sys ~name:spec.Spec.name (fun () -> o.e_recover ()) : int);
  let reattach () = ignore (Sys.reattach sys : Dssq_core.Recovery.report) in
  let rec_ = Recorder.create () in
  let dspec = Dss_spec.make ~nthreads:3 spec in
  let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
  let prep ~tid op =
    record ~tid (Dss_spec.Prep op) (fun () ->
        o.e_prep ~tid op;
        Dss_spec.Ack)
  in
  let exec ~tid op =
    record ~tid (Dss_spec.Exec op) (fun () -> Dss_spec.Ret (o.e_exec ~tid))
  in
  let base ~tid op =
    record ~tid (Dss_spec.Base op) (fun () -> Dss_spec.Ret (o.e_base ~tid op))
  in
  let resolved_response ~tid : _ Dss_spec.response =
    match o.e_resolve ~tid with
    | Dssq_core.Detectable_intf.Nothing -> Dss_spec.Status (None, None)
    | Pending op -> Dss_spec.Status (Some op, None)
    | Done (op, r) -> Dss_spec.Status (Some op, Some r)
  in
  List.iter (fun (tid, op) -> base ~tid op) eprog.seed;
  List.iter (fun (tid, op) -> prep ~tid op) eprog.preps;
  let threads =
    List.map (fun (tid, op) () -> exec ~tid op) eprog.preps
    @ List.map (fun (tid, op) () -> base ~tid op) eprog.base_threads
  in
  let tids = List.map fst eprog.preps in
  let resolve_retry ~tid =
    record ~tid Dss_spec.Resolve (fun () -> resolved_response ~tid);
    match o.e_resolve ~tid with Pending op -> exec ~tid op | _ -> ()
  in
  let finish ~crashed =
    (try
       if crashed then begin
         Recorder.crash rec_;
         List.iter (fun tid -> resolve_retry ~tid) tids
       end;
       let otid, obs = eprog.observe in
       List.iter (fun op -> base ~tid:otid op) obs
     with Mutants.Livelock ->
       (* Observation cut short: mark the in-flight operation as crashed
          so the truncated history is still checkable. *)
       Recorder.crash rec_);
    Oracle.assert_linearizable ~mode:params.mode dspec (Recorder.history rec_)
  in
  { Explore.ctx = { finish; reattach }; heap; threads }

let swap_progs = [ "swap-swap"; "swap-read" ]

let swap_setup ~params ~prog () =
  let eprog =
    let open Specs.Swap in
    match prog with
    | "swap-swap" ->
        {
          seed = [];
          preps = [ (0, Swap 5); (1, Swap 7) ];
          base_threads = [];
          observe = (2, [ Read ]);
        }
    | "swap-read" ->
        {
          seed = [ (2, Swap 90) ];
          preps = [ (0, Swap 5) ];
          base_threads = [ (1, Read) ];
          observe = (2, [ Read ]);
        }
    | p -> invalid_arg ("Scenarios.swap_setup: unknown program " ^ p)
  in
  engine_setup ~params ~spec:(Specs.Swap.spec ())
    ~instantiate:(fun (module M : Dssq_memory.Memory_intf.S) ->
      let module O = Dssq_core.Dss_swap.Make (M) in
      let o = O.create ~combine:(params.policy = Combine) ~nthreads:3 () in
      {
        e_prep = (fun ~tid op -> O.prep o ~tid op);
        e_exec = (fun ~tid -> O.exec o ~tid);
        e_base = (fun ~tid op -> O.base o ~tid op);
        e_resolve = (fun ~tid -> O.resolve o ~tid);
        e_recover = (fun () -> O.recover o);
      })
    ~eprog ()

let deque_progs = [ "front-back"; "push-pop" ]

let deque_setup ~params ~prog () =
  let eprog =
    let open Specs.Deque in
    match prog with
    | "front-back" ->
        {
          seed = [ (2, Push_back 90) ];
          preps = [ (0, Push_front 5); (1, Push_back 7) ];
          base_threads = [];
          observe = (2, [ Pop_front; Pop_front; Pop_front ]);
        }
    | "push-pop" ->
        {
          seed = [ (2, Push_back 90) ];
          preps = [ (0, Push_front 5); (1, Pop_back) ];
          base_threads = [];
          observe = (2, [ Pop_front; Pop_front ]);
        }
    | p -> invalid_arg ("Scenarios.deque_setup: unknown program " ^ p)
  in
  engine_setup ~params ~spec:(Specs.Deque.spec ())
    ~instantiate:(fun (module M : Dssq_memory.Memory_intf.S) ->
      let module O = Dssq_core.Dss_deque.Make (M) in
      let o = O.create ~combine:(params.policy = Combine) ~nthreads:3 () in
      {
        e_prep = (fun ~tid op -> O.prep o ~tid op);
        e_exec = (fun ~tid -> O.exec o ~tid);
        e_base = (fun ~tid op -> O.base o ~tid op);
        e_resolve = (fun ~tid -> O.resolve o ~tid);
        e_recover = (fun () -> O.recover o);
      })
    ~eprog ()

let pqueue_progs = [ "ins-ins"; "ins-extract" ]

let pqueue_setup ~params ~prog () =
  let eprog =
    let open Specs.Pqueue in
    match prog with
    | "ins-ins" ->
        {
          seed = [ (2, Insert 90) ];
          preps = [ (0, Insert 5); (1, Insert 7) ];
          base_threads = [];
          observe = (2, [ Extract_min; Extract_min; Extract_min ]);
        }
    | "ins-extract" ->
        {
          seed = [ (2, Insert 90) ];
          preps = [ (0, Insert 5); (1, Extract_min) ];
          base_threads = [];
          observe = (2, [ Extract_min; Extract_min ]);
        }
    | p -> invalid_arg ("Scenarios.pqueue_setup: unknown program " ^ p)
  in
  engine_setup ~params ~spec:(Specs.Pqueue.spec ())
    ~instantiate:(fun (module M : Dssq_memory.Memory_intf.S) ->
      let module O = Dssq_core.Dss_pqueue.Make (M) in
      let o = O.create ~combine:(params.policy = Combine) ~nthreads:3 () in
      {
        e_prep = (fun ~tid op -> O.prep o ~tid op);
        e_exec = (fun ~tid -> O.exec o ~tid);
        e_base = (fun ~tid op -> O.base o ~tid op);
        e_resolve = (fun ~tid -> O.resolve o ~tid);
        e_recover = (fun () -> O.recover o);
      })
    ~eprog ()

let bcounter_progs = [ "inc-inc"; "inc-dec" ]

let bcounter_setup ~params ~prog () =
  let eprog =
    let open Specs.Bcounter in
    match prog with
    | "inc-inc" ->
        {
          seed = [];
          preps = [ (0, Increment); (1, Increment) ];
          base_threads = [];
          observe = (2, [ Get ]);
        }
    | "inc-dec" ->
        (* Decrement can race Increment at 0: both orders of the failing
           and succeeding outcomes must linearize. *)
        {
          seed = [];
          preps = [ (0, Increment); (1, Decrement) ];
          base_threads = [];
          observe = (2, [ Get ]);
        }
    | p -> invalid_arg ("Scenarios.bcounter_setup: unknown program " ^ p)
  in
  engine_setup ~params
    ~spec:(Specs.Bcounter.spec ~bound:Dssq_core.Dss_bcounter.bound ())
    ~instantiate:(fun (module M : Dssq_memory.Memory_intf.S) ->
      let module O = Dssq_core.Dss_bcounter.Make (M) in
      let o = O.create ~combine:(params.policy = Combine) ~nthreads:3 () in
      {
        e_prep = (fun ~tid op -> O.prep o ~tid op);
        e_exec = (fun ~tid -> O.exec o ~tid);
        e_base = (fun ~tid op -> O.base o ~tid op);
        e_resolve = (fun ~tid -> O.resolve o ~tid);
        e_recover = (fun () -> O.recover o);
      })
    ~eprog ()

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

let registry =
  [
    {
      d_obj = "queue";
      d_progs = queue_progs;
      d_nthreads =
        (fun prog ->
          match prog with
          | "enq-enq-deq" -> 3
          | "mid-alloc" | "mid-link" -> 1
          | _ -> 2);
      d_setup = queue_setup;
    };
    {
      d_obj = "stack";
      d_progs = stack_progs;
      d_nthreads = (fun _ -> 2);
      d_setup = stack_setup;
    };
    {
      d_obj = "register";
      d_progs = register_progs;
      d_nthreads = (fun _ -> 2);
      d_setup = register_setup;
    };
    {
      d_obj = "hashmap";
      d_progs = hashmap_progs;
      d_nthreads = (fun _ -> 2);
      d_setup = hashmap_setup;
    };
    {
      d_obj = "swap";
      d_progs = swap_progs;
      d_nthreads = (fun _ -> 2);
      d_setup = swap_setup;
    };
    {
      d_obj = "deque";
      d_progs = deque_progs;
      d_nthreads = (fun _ -> 2);
      d_setup = deque_setup;
    };
    {
      d_obj = "pqueue";
      d_progs = pqueue_progs;
      d_nthreads = (fun _ -> 2);
      d_setup = pqueue_setup;
    };
    {
      d_obj = "bcounter";
      d_progs = bcounter_progs;
      d_nthreads = (fun _ -> 2);
      d_setup = bcounter_setup;
    };
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
  case_of_setup ~params ~obj ~prog ~nthreads:(d.d_nthreads prog)
    (d.d_setup ~params ~prog)

(** Assemble the corpus.  A [mutation] restricts the corpus to the queue
    (the seeded mutants target queue cell names).  Three-thread programs
    are kept crash-free: with a crash adversary their branching factor
    would put a single case past the CI budget. *)
let cases ?(objects = objects) ?(crash_modes = [ false; true ])
    ?(line_sizes = [ 1; 8 ]) ?(policy = Heap.Policy.Eager) ?mutation
    ?(mode = Lincheck.Strict)
    ?(max_preemptions = 1) ?(max_crash_lines = 4) ?(crash_samples = 6)
    ?(seed = 0) ?(adversary = `Per_line) ?(limit = 2_000_000) () =
  let objects =
    (* Memory-layer mutants are seeded against queue cell names; the
       engine-level lost-batch mutant targets the combining engine, so
       its hunt runs over the engine-made objects instead. *)
    match mutation with
    | Some Mutants.Lost_batch -> [ "swap"; "deque"; "pqueue"; "bcounter" ]
    | Some _ -> [ "queue" ]
    | None -> objects
  in
  List.concat_map
    (fun obj ->
      List.concat_map
        (fun prog ->
          List.concat_map
            (fun crashes ->
              if crashes && prog = "enq-enq-deq" then []
              else
                List.map
                  (fun line_size ->
                    let params =
                      {
                        crashes;
                        line_size;
                        policy;
                        mode;
                        mutation;
                        max_preemptions;
                        max_crash_lines;
                        crash_samples;
                        seed;
                        adversary;
                        limit;
                      }
                    in
                    build ~params ~obj ~prog)
                  line_sizes)
            crash_modes)
        (progs_of_obj obj))
    objects

let find_case ~cases:cs name = List.find_opt (fun c -> c.name = name) cs
