(** Crash-recovery tests for the detectable queues.  The sweeps crash a
    trial ({!Helpers.sweep}) at {e every} step of one detectable
    operation (with the cache either fully lost or fully evicted, plus a
    randomized mix); the concurrent trials crash two threads' operations
    at random.  Each trial recovers, resolves, retries, drains, and is
    checked for strict linearizability against [D<queue>] (the DSS
    queue's centralized recovery also checks its structural invariants).
    Both run on every detectable queue (the DSS queue and the log and
    CASWE baselines): what Theorem 1 claims for the DSS queue holds for
    the baselines too.  The per-thread sweeps run only the DSS queue,
    the one queue that recovers thread by thread.  Multi-crash and
    exhaustive scenarios of the DSS queue follow.  [cross_queue_suite]
    runs the same sweeps and trials on their cross-queue inputs. *)

open Helpers

let dq ?(nthreads = 2) ?(capacity = 48) () =
  make_dss_queue ~reclaim:true ~nthreads ~capacity ()

let post_recovery_checks (q : dq) =
  let violations = q.recovered_violations () in
  if violations <> [] then
    Alcotest.failf "recovery invariants violated: %s"
      (String.concat "; " violations)

(* ---------------------------------------------------------------------- *)
(* Crash at every step                                                     *)
(* ---------------------------------------------------------------------- *)

(* The four detectable queues' worlds ({!Trial.queue}), by name. *)
let queue_worlds =
  List.map
    (fun (name, kind) -> (name, Trial.queue ~policy:Eager kind))
    Trial.queues

(* The DSS queue's world whose recovery runs thread by thread: the pool
   first, then each thread's own.  It leaves head/tail repair to the
   normal helping, so it checks no structural invariants.  A baseline
   recovers only as a whole, so it has no per-thread world. *)
let per_thread_dss () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Q = Dssq_core.Dss_queue.Make (M) in
  let q = Q.create ~nthreads:2 ~capacity:64 () in
  Heap.log_persists heap;
  {
    Trial.heap;
    obj = Queue_intf.adapter (module Q) q;
    recover =
      (fun () ->
        Q.recover_pool q;
        Q.recover_thread q ~tid:0;
        Q.recover_thread q ~tid:1);
  }

let per_thread = [ ("dss", per_thread_dss) ]

(* Over a preloaded 90, enqueue 5. *)
let enqueue = queue_program ~base:[ 90 ] Specs.Queue.[ Enqueue 5 ]

(* Over a preloaded 1, 2, 3, dequeue. *)
let dequeue = queue_program ~base:[ 1; 2; 3 ] Specs.Queue.[ Dequeue ]

let dequeue_empty = queue_program ~base:[] Specs.Queue.[ Dequeue ]

(* ---------------------------------------------------------------------- *)
(* Randomized concurrent crash trials                                      *)
(* ---------------------------------------------------------------------- *)

(* Over a preloaded 50, thread 0 enqueues 60 while thread 1 dequeues. *)
let enq_deq = queue_program ~base:[ 50 ] Specs.Queue.[ Enqueue 60; Dequeue ]

(* The DSS queue: three eviction probabilities x 12 seeds x crash steps
   1-40. *)
let test_concurrent_crash_lincheck () =
  trials (1440, 1080) @@ fun trial ->
  List.iter
    (fun evict_p ->
      for seed = 1 to 12 do
        for crash_step = 1 to 40 do
          ignore
            (trial "dss" (Trial.queue ~policy:Eager `Dss) enq_deq
               {
                 seed;
                 crash_step;
                 evict_p;
                 restart_seed = (seed * 100) + crash_step;
               })
        done
      done)
    [ 0.0; 1.0; 0.5 ]

(* Every queue: 6 seeds x every other crash step from 5 to 60, with the
   eviction probability cycling through 0, 0.5 and 1. *)
let test_cross_queue_concurrent () =
  trials (672, 540) @@ fun trial ->
  List.iter
    (fun (name, world) ->
      for seed = 1 to 6 do
        for crash_step = 5 to 60 do
          if crash_step mod 2 = seed mod 2 then
            ignore
              (trial name world enq_deq
                 {
                   seed;
                   crash_step;
                   evict_p = float_of_int (crash_step mod 3) /. 2.;
                   restart_seed = seed + crash_step;
                 })
        done
      done)
    queue_worlds

(* A thread's exception fails the trial, crash or no crash.  The world's
   exec-dequeue raises; its exec-enqueue first yields 100 times, so a
   crash at step 50 lands after thread 1 raised and before thread 0
   finished. *)
let test_trial_thread_raises () =
  let reported step =
    let enqueued = ref false in
    let world () =
      let w = Trial.queue ~policy:Eager `Dss () in
      let exec ~tid op =
        match op with
        | Specs.Queue.Dequeue -> failwith "exec-dequeue"
        | Specs.Queue.Enqueue _ ->
            for _ = 1 to 100 do
              Sim.yield w.heap
            done;
            let r = w.obj.exec ~tid op in
            enqueued := true;
            r
      in
      { w with obj = { w.obj with exec } }
    in
    match
      Trial.run world
        (queue_program ~base:[] Specs.Queue.[ Enqueue 60; Dequeue ])
        { seed = 1; crash_step = step; evict_p = 0.; restart_seed = 1 }
    with
    | _ -> Alcotest.failf "crash step %d: the exception went unreported" step
    | exception Trial.Thread_raised (Failure _) -> !enqueued
  in
  Alcotest.(check bool) "no crash: reported after thread 0 finished" true
    (reported max_int);
  Alcotest.(check bool) "crash: reported, thread 0 cut off" false (reported 50)

(* After a crash each thread resolves, then executes a pending operation
   once, or prepares and executes again one whose prep was lost.  The
   world's exec first yields 100 times (a no-op outside the simulator),
   so a crash before step 50 lands after the enqueue's prep persisted
   and before its exec, and one before step 0 before the prep.  [execs]
   counts the restart world's exec calls. *)
let test_trial_retry () =
  let after_crash crash_step =
    let worlds = ref 0 and execs = ref 0 in
    let world () =
      incr worlds;
      let restart = !worlds > 1 in
      let w = Trial.queue ~policy:Eager `Dss () in
      let exec ~tid op =
        for _ = 1 to 100 do
          Sim.yield w.heap
        done;
        if restart then incr execs;
        w.obj.exec ~tid op
      in
      { w with obj = { w.obj with exec } }
    in
    let p = queue_program ~base:[] Specs.Queue.[ Enqueue 5 ] in
    let r =
      Trial.run world p { seed = 1; crash_step; evict_p = 0.; restart_seed = 1 }
    in
    let rec after = function
      | History.Crash :: rest -> rest
      | _ :: rest -> after rest
      | [] -> Alcotest.fail "no crash"
    in
    ( !execs,
      List.filter_map
        (function History.Inv { op; _ } -> Some op | _ -> None)
        (after r.history) )
  in
  let ops =
    Alcotest.(pair int (list (testable (queue_spec ~nthreads:2).pp_op ( = ))))
  in
  let open Specs.Queue in
  let drain = [ Dss_spec.Base Dequeue; Dss_spec.Base Dequeue ] in
  Alcotest.check ops "prep persisted: one exec"
    (1, Dss_spec.[ Resolve; Exec (Enqueue 5) ] @ drain)
    (after_crash 50);
  Alcotest.check ops "prep lost: prep, then one exec"
    (1, Dss_spec.[ Resolve; Prep (Enqueue 5); Exec (Enqueue 5) ] @ drain)
    (after_crash 0)

(* ---------------------------------------------------------------------- *)
(* Multiple crashes and repeated resolution                                 *)
(* ---------------------------------------------------------------------- *)

let test_double_crash () =
  let setup () = dq () in
  for crash1 = 1 to 12 do
    let q = setup () in
    let rec_ = Recorder.create () in
    let thread () =
      Scenarios.prep rec_ q.obj ~tid:0 (Specs.Queue.Enqueue 7);
      Scenarios.exec rec_ q.obj ~tid:0 (Specs.Queue.Enqueue 7)
    in
    let outcome =
      Sim.run q.heap ~crash:(Sim.Crash_at_step crash1) ~threads:[ thread ]
    in
    if outcome.Sim.crashed then begin
      Recorder.crash rec_;
      let q = restart ~setup ~heap:dq_heap q ~evict_p:0.5 ~seed:crash1 in
      q.recover ();
      ignore (Scenarios.resolve rec_ q.obj ~tid:0);
      (* A second crash before the thread does anything else: resolve
         must answer the same afterwards (it is idempotent and its
         inputs are persistent). *)
      let before = q.resolve ~tid:0 in
      Recorder.crash rec_;
      let q = restart ~setup ~heap:dq_heap q ~evict_p:0.0 ~seed:(crash1 + 777) in
      q.recover ();
      ignore (Scenarios.resolve rec_ q.obj ~tid:0);
      let after = q.resolve ~tid:0 in
      Alcotest.check resolved "resolution stable across second crash" before
        after;
      Oracle.assert_linearizable (queue_spec ~nthreads:2)
        (Recorder.history rec_)
    end
  done

let test_recover_idempotent () =
  let setup () = dq () in
  for crash_step = 1 to 20 do
    let q = setup () in
    List.iter (fun v -> q.enqueue ~tid:1 v) [ 1; 2 ];
    let thread () =
      q.prep_enqueue ~tid:0 9;
      q.exec_enqueue ~tid:0;
      q.prep_dequeue ~tid:0;
      ignore (q.exec_dequeue ~tid:0)
    in
    let outcome =
      Sim.run q.heap ~crash:(Sim.Crash_at_step crash_step) ~threads:[ thread ]
    in
    if outcome.Sim.crashed then begin
      let q = restart ~setup ~heap:dq_heap q ~evict_p:0.5 ~seed:crash_step in
      q.recover ();
      let r1 = q.resolve ~tid:0 in
      let l1 = q.to_list () in
      q.recover ();
      Alcotest.check resolved "resolve unchanged by second recovery" r1
        (q.resolve ~tid:0);
      Alcotest.check int_list "contents unchanged by second recovery" l1
        (q.to_list ())
    end
  done

(* ---------------------------------------------------------------------- *)
(* Resource safety across many crash cycles                                *)
(* ---------------------------------------------------------------------- *)

let test_no_pool_exhaustion_across_crashes () =
  (* A small pool must survive many crash/recover/retry cycles: recovery
     rebuilds the free lists, so leaks cannot accumulate beyond the few
     nodes pinned by X references.  Each crash restarts cold, so every
     round runs on the image the previous rounds left. *)
  let setup () = dq ~nthreads:1 ~capacity:24 () in
  let q = ref (setup ()) in
  for round = 1 to 60 do
    let live = !q in
    let thread () =
      live.prep_enqueue ~tid:0 round;
      live.exec_enqueue ~tid:0;
      live.prep_dequeue ~tid:0;
      ignore (live.exec_dequeue ~tid:0)
    in
    let outcome =
      Sim.run live.heap
        ~crash:(Sim.Crash_at_step (3 + (round mod 25)))
        ~threads:[ thread ]
    in
    if outcome.Sim.crashed then begin
      let q' = restart ~setup ~heap:dq_heap live ~evict_p:0.3 ~seed:round in
      q := q';
      q'.recover ();
      (* Complete the interrupted pair so the queue drains. *)
      match q'.resolve ~tid:0 with
      | Queue_intf.Enq_pending _ ->
          q'.exec_enqueue ~tid:0;
          q'.prep_dequeue ~tid:0;
          ignore (q'.exec_dequeue ~tid:0)
      | Queue_intf.Enq_done _ | Queue_intf.Deq_pending ->
          q'.prep_dequeue ~tid:0;
          ignore (q'.exec_dequeue ~tid:0)
      | Queue_intf.Nothing ->
          q'.prep_enqueue ~tid:0 round;
          q'.exec_enqueue ~tid:0;
          q'.prep_dequeue ~tid:0;
          ignore (q'.exec_dequeue ~tid:0)
      | Queue_intf.Deq_done _ | Queue_intf.Deq_empty -> ()
    end;
    (* Drain anything left over so rounds stay bounded. *)
    while !q.dequeue ~tid:0 <> Queue_intf.empty_value do
      ()
    done
  done;
  Alcotest.(check bool) "pool did not run dry" true (!q.free_count () > 0)

(* ---------------------------------------------------------------------- *)
(* Exhaustive: every interleaving x every crash point, tiny scenario       *)
(* ---------------------------------------------------------------------- *)

let test_explore_enqueue_crashes () =
  let s =
    Explore.run
       (Explore.make ~crashes:true
         ~setup:(fun () ->
           let q = dq ~nthreads:1 ~capacity:16 () in
           q.prep_enqueue ~tid:0 5;
           {
             Explore.history = Explore.no_history;
             prologue = ignore;
             ctx = q;
             heap = q.heap;
             threads = [ (fun () -> q.exec_enqueue ~tid:0) ];
           })
         ~check:(fun q _heap ~crashed ->
           if crashed then begin
             q.recover ();
             post_recovery_checks q;
             match q.resolve ~tid:0 with
             | Queue_intf.Enq_done 5 ->
                 Alcotest.check int_list "done => in queue" [ 5 ] (q.to_list ())
             | Queue_intf.Enq_pending 5 ->
                 Alcotest.check int_list "pending => not in queue" []
                   (q.to_list ());
                 q.exec_enqueue ~tid:0;
                 Alcotest.check int_list "retry lands" [ 5 ] (q.to_list ())
             | r ->
                 Alcotest.failf "unexpected resolution: %s"
                   (Format.asprintf "%a" Queue_intf.pp_resolved r)
           end
           else begin
             Alcotest.check resolved "completed" (Queue_intf.Enq_done 5)
                (q.resolve ~tid:0);
              Alcotest.check int_list "in queue" [ 5 ] (q.to_list ())
            end)
          ())
  in
  (* Skipped crash branches repeat checked ones, so they count as
     explored. *)
  let executions = s.Explore.executions + s.Explore.skipped_branches in
  Alcotest.(check bool) "explored crash points" true (executions > 10)

let test_explore_dequeue_crashes () =
  ignore
    (Explore.run
       (Explore.make ~crashes:true
          ~setup:(fun () ->
            let q = dq ~nthreads:1 ~capacity:16 () in
            q.enqueue ~tid:0 1;
            q.enqueue ~tid:0 2;
            q.prep_dequeue ~tid:0;
            let out = ref min_int in
            {
              Explore.history = Explore.no_history;
              prologue = ignore;
              ctx = (q, out);
              heap = q.heap;
              threads = [ (fun () -> out := q.exec_dequeue ~tid:0) ];
            })
          ~check:(fun (q, out) _heap ~crashed ->
            if crashed then begin
              q.recover ();
              post_recovery_checks q;
              match q.resolve ~tid:0 with
              | Queue_intf.Deq_done 1 ->
                  Alcotest.check int_list "1 consumed" [ 2 ] (q.to_list ())
              | Queue_intf.Deq_pending ->
                  Alcotest.check int_list "nothing consumed" [ 1; 2 ]
                    (q.to_list ());
                  Alcotest.(check int) "retry gets head" 1 (q.exec_dequeue ~tid:0)
              | r ->
                  Alcotest.failf "unexpected resolution: %s"
                    (Format.asprintf "%a" Queue_intf.pp_resolved r)
            end
            else begin
              Alcotest.(check int) "dequeued head" 1 !out;
              Alcotest.check resolved "resolved done" (Queue_intf.Deq_done 1)
                (q.resolve ~tid:0)
            end)
          ()));
  ()

let suite =
  [
    Alcotest.test_case "enqueue sweep, cache lost, centralized" `Quick
      (sweep (141, 137) queue_worlds enqueue ~evictions:[ 0.0 ]
         ~seed:(( + ) 1000));
    Alcotest.test_case "enqueue sweep, cache evicted, centralized" `Quick
      (sweep (141, 137) queue_worlds enqueue ~evictions:[ 1.0 ]
         ~seed:(( + ) 1000));
    Alcotest.test_case "enqueue sweep, random eviction, centralized" `Quick
      (sweep (141, 137) queue_worlds enqueue ~evictions:[ 0.5 ]
         ~seed:(( + ) 1000));
    Alcotest.test_case "enqueue sweep, cache lost, per-thread" `Quick
      (sweep (18, 17) per_thread enqueue ~evictions:[ 0.0 ]
         ~seed:(( + ) 1000));
    Alcotest.test_case "enqueue sweep, random eviction, per-thread" `Quick
      (sweep (18, 17) per_thread enqueue ~evictions:[ 0.5 ]
         ~seed:(( + ) 1000));
    Alcotest.test_case "dequeue sweep, cache lost" `Quick
      (sweep (123, 119) queue_worlds dequeue ~evictions:[ 0.0 ]
         ~seed:(( + ) 2000));
    Alcotest.test_case "dequeue sweep, cache evicted" `Quick
      (sweep (123, 119) queue_worlds dequeue ~evictions:[ 1.0 ]
         ~seed:(( + ) 2000));
    Alcotest.test_case "dequeue sweep, random eviction" `Quick
      (sweep (123, 119) queue_worlds dequeue ~evictions:[ 0.5 ]
         ~seed:(( + ) 2000));
    Alcotest.test_case "dequeue-empty sweep" `Quick
      (sweep (83, 79) queue_worlds dequeue_empty ~evictions:[ 0.5 ]
         ~seed:(( + ) 3000));
    Alcotest.test_case "concurrent crashes strictly linearizable" `Slow
      test_concurrent_crash_lincheck;
    Alcotest.test_case "trial: a thread's exception fails it" `Quick
      test_trial_thread_raises;
    Alcotest.test_case
      "trial: a pending operation is retried once, a lost prep re-prepared"
      `Quick test_trial_retry;
    Alcotest.test_case "double crash: stable resolution" `Quick
      test_double_crash;
    Alcotest.test_case "recovery is idempotent" `Quick test_recover_idempotent;
    Alcotest.test_case "no pool exhaustion across crash cycles" `Quick
      test_no_pool_exhaustion_across_crashes;
    Alcotest.test_case "explore: enqueue crash points exhaustively" `Quick
      test_explore_enqueue_crashes;
    Alcotest.test_case "explore: dequeue crash points exhaustively" `Quick
      test_explore_dequeue_crashes;
  ]

(* Restart seeds 100000+step / 200000+step. *)
let cross_queue_suite =
  [
    Alcotest.test_case "enqueue crash sweep (all detectable queues)" `Quick
      (sweep (141, 137) queue_worlds enqueue ~evictions:[ 0.5 ]
         ~seed:(( + ) 100_000));
    Alcotest.test_case "dequeue crash sweep (all detectable queues)" `Quick
      (sweep (123, 119) queue_worlds dequeue ~evictions:[ 0.5 ]
         ~seed:(( + ) 200_000));
    Alcotest.test_case "concurrent crashes (all detectable queues)" `Slow
      test_cross_queue_concurrent;
  ]
