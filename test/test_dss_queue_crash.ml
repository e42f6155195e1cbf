(** Crash-recovery tests for the detectable queues: a crash is injected
    at {e every} step of sequential detectable programs (with the cache
    either fully lost or fully evicted, plus a randomized mix), recovery
    runs, the interrupted operation is resolved and — where the
    application wants exactly-once semantics — retried.  Every recorded
    history, including the post-crash [resolve] responses, is checked for
    strict linearizability against [D<queue>]; structural invariants are
    checked after every recovery.  The sweeps and the randomized
    concurrent crash trials run on every detectable queue (the DSS queue
    and the log and CASWE baselines): what Theorem 1 claims for the DSS
    queue holds for the baselines too.  Multi-crash and exhaustive
    scenarios of the DSS queue follow.  [cross_queue_suite] runs the same
    sweeps and trials on their cross-queue inputs. *)

open Helpers

let dq ?(nthreads = 2) ?(capacity = 48) () =
  make_dss_queue ~reclaim:true ~nthreads ~capacity ()

type recovery_style = Centralized | Per_thread

let recover_with style (q : dq) ~nthreads =
  match style with
  | Centralized -> q.recover ()
  | Per_thread ->
      q.recover_pool ();
      for tid = 0 to nthreads - 1 do
        q.recover_thread ~tid
      done

let post_recovery_checks ?(style = Centralized) (q : dq) =
  match style with
  | Centralized ->
      let violations = q.recovered_violations () in
      if violations <> [] then
        Alcotest.failf "recovery invariants violated: %s"
          (String.concat "; " violations)
  | Per_thread ->
      (* Per-thread recovery deliberately leaves head/tail repair to the
         normal helping mechanisms, so only X consistency is checked
         (through resolve + lincheck by the caller). *)
      ()

(* Drain the queue with recorded non-detectable dequeues so the checker
   validates the final abstract state, not just the resolve responses. *)
let drain_recorded rec_ (q : dq) ~tid =
  let rec go guard =
    if guard > 0 then begin
      let v = ref 0 in
      ignore
        (Recorder.record rec_ ~tid (Dss_spec.Base Specs.Queue.Dequeue)
           (fun () ->
             v := q.dequeue ~tid;
             deq_response !v));
      if !v <> Queue_intf.empty_value then go (guard - 1)
    end
  in
  go 100

(* A sweep runs on every detectable queue once per (capacity, seed0)
   run, restarting step [s] with seed [seed0 + s]. *)
let sweep ~runs ~evict_p run =
  List.iter
    (fun (capacity, seed0) ->
      List.iter
        (fun (name, setup) ->
          run name
            (sweep_crashes ~setup ~heap:dq_heap ~evict_p ~seed:(fun step ->
                 seed0 + step)))
        (queues ~capacity))
    runs

(* ---------------------------------------------------------------------- *)
(* Crash at every step: detectable enqueue                                 *)
(* ---------------------------------------------------------------------- *)

let sweep_enqueue ?(runs = [ (48, 1000) ]) ~evict_p ~style () =
  sweep ~runs ~evict_p @@ fun name sweep_crashes ->
  let crashed =
    sweep_crashes (fun ~step q ->
        let rec_ = Recorder.create () in
        (* Non-empty start so both list shapes are exercised; recorded so
           the checker knows the abstract state. *)
        Record.enqueue rec_ q ~tid:1 90;
        let thread () =
          Record.prep_enqueue rec_ q ~tid:0 5;
          Record.exec_enqueue rec_ q ~tid:0 5
        in
        ( [ thread ],
          fun outcome -> function
            | None ->
                (* Program ran to completion: the sweep covered every
                   step. *)
                Sim.check_thread_errors outcome;
                check_strict ~nthreads:2 (Recorder.history rec_)
            | Some q ->
                Recorder.crash rec_;
                recover_with style q ~nthreads:2;
                post_recovery_checks ~style q;
                Record.resolve rec_ q ~tid:0;
                (* Exactly-once completion: retry based on the
                   resolution. *)
                (match q.resolve ~tid:0 with
                | Queue_intf.Enq_done 5 -> ()
                | Queue_intf.Enq_pending 5 ->
                    Record.exec_enqueue rec_ q ~tid:0 5
                | Queue_intf.Nothing ->
                    Record.prep_enqueue rec_ q ~tid:0 5;
                    Record.exec_enqueue rec_ q ~tid:0 5
                | r ->
                    Alcotest.failf
                      "%s: unexpected resolution after enqueue crash: %s" name
                      (Format.asprintf "%a" Queue_intf.pp_resolved r));
                let fives = List.filter (( = ) 5) (q.to_list ()) in
                Alcotest.(check int)
                  (Printf.sprintf "%s: exactly one 5 after crash at step %d"
                     name step)
                  1 (List.length fives);
                drain_recorded rec_ q ~tid:1;
                check_strict ~nthreads:2 (Recorder.history rec_) ))
  in
  Alcotest.(check bool)
    (name ^ ": sweep covered at least 10 crash points")
    true (crashed >= 10)

(* ---------------------------------------------------------------------- *)
(* Crash at every step: detectable dequeue                                 *)
(* ---------------------------------------------------------------------- *)

let sweep_dequeue ?(runs = [ (48, 2000) ]) ~evict_p ~style () =
  sweep ~runs ~evict_p @@ fun name sweep_crashes ->
  ignore
  @@ sweep_crashes (fun ~step q ->
         let rec_ = Recorder.create () in
         List.iter (fun v -> Record.enqueue rec_ q ~tid:1 v) [ 1; 2; 3 ];
         let thread () =
           Record.prep_dequeue rec_ q ~tid:0;
           Record.exec_dequeue rec_ q ~tid:0
         in
         ( [ thread ],
           fun outcome -> function
             | None ->
                 Sim.check_thread_errors outcome;
                 check_strict ~nthreads:2 (Recorder.history rec_)
             | Some q ->
                 Recorder.crash rec_;
                 recover_with style q ~nthreads:2;
                 post_recovery_checks ~style q;
                 Record.resolve rec_ q ~tid:0;
                 (* Retry until the dequeue has happened exactly once. *)
                 let exec () =
                   let v = ref 0 in
                   ignore
                     (Recorder.record rec_ ~tid:0
                        (Dss_spec.Exec Specs.Queue.Dequeue) (fun () ->
                          v := q.exec_dequeue ~tid:0;
                          deq_response !v));
                   !v
                 in
                 let dequeued =
                   match q.resolve ~tid:0 with
                   | Queue_intf.Deq_done v -> v
                   | Queue_intf.Deq_pending -> exec ()
                   | Queue_intf.Nothing ->
                       Record.prep_dequeue rec_ q ~tid:0;
                       exec ()
                   | r ->
                       Alcotest.failf
                         "%s: unexpected resolution after dequeue crash: %s"
                         name
                         (Format.asprintf "%a" Queue_intf.pp_resolved r)
                 in
                 Alcotest.(check int)
                   (Printf.sprintf "%s: dequeued head exactly once (step %d)"
                      name step)
                   1 dequeued;
                 Alcotest.check int_list (name ^ ": remaining values") [ 2; 3 ]
                   (q.to_list ());
                 drain_recorded rec_ q ~tid:1;
                 check_strict ~nthreads:2 (Recorder.history rec_) ))

(* ---------------------------------------------------------------------- *)
(* Crash at every step: detectable dequeue on an empty queue               *)
(* ---------------------------------------------------------------------- *)

let sweep_dequeue_empty ~evict_p () =
  sweep ~runs:[ (48, 3000) ] ~evict_p @@ fun name sweep_crashes ->
  ignore
  @@ sweep_crashes (fun ~step:_ q ->
         let rec_ = Recorder.create () in
         let thread () =
           Record.prep_dequeue rec_ q ~tid:0;
           Record.exec_dequeue rec_ q ~tid:0
         in
         ( [ thread ],
           fun _ -> function
             | None -> ()
             | Some q ->
                 Recorder.crash rec_;
                 q.recover ();
                 Record.resolve rec_ q ~tid:0;
                 (match q.resolve ~tid:0 with
                 | Queue_intf.Deq_empty | Queue_intf.Deq_pending
                 | Queue_intf.Nothing ->
                     ()
                 | r ->
                     Alcotest.failf
                       "%s: unexpected resolution on empty queue: %s" name
                       (Format.asprintf "%a" Queue_intf.pp_resolved r));
                 check_strict ~nthreads:2 (Recorder.history rec_) ))

(* ---------------------------------------------------------------------- *)
(* Randomized concurrent crash trials                                      *)
(* ---------------------------------------------------------------------- *)

(* Over a preloaded 50, thread 0 enqueues 60 while thread 1 dequeues
   ({!Trial.queue} worlds).  [inputs trial] calls [trial queue inputs]
   once per trial; [expected] is how many trials run and crash. *)
let concurrent_trials expected inputs () =
  let program = queue_trial ~base:[ 50 ] 60 in
  let trials = ref 0 and crashed = ref 0 in
  let trial (name, kind) (i : Trial.inputs) =
    let r = Trial.run (Trial.queue ~policy:Eager kind) program i in
    incr trials;
    if r.crashed then incr crashed;
    match r.verdict with
    | Lincheck.Linearizable _ -> ()
    | Lincheck.Not_linearizable _ ->
        Alcotest.failf
          "%s: seed %d crash %d evict %.1f: not strictly linearizable:@.%a"
          name i.seed i.crash_step i.evict_p
          (History.pp ~pp_op:program.spec.pp_op
             ~pp_response:program.spec.pp_response)
          r.history
  in
  inputs trial;
  Alcotest.(check (pair int int))
    "trials, crashed trials" expected (!trials, !crashed)

(* The DSS queue: three eviction probabilities x 12 seeds x crash steps
   1-40. *)
let test_concurrent_crash_lincheck =
  concurrent_trials (1440, 1080) @@ fun trial ->
  List.iter
    (fun evict_p ->
      for seed = 1 to 12 do
        for crash_step = 1 to 40 do
          trial ("dss", `Dss)
            {
              seed;
              crash_step;
              evict_p;
              restart_seed = (seed * 100) + crash_step;
            }
        done
      done)
    [ 0.0; 1.0; 0.5 ]

(* Every queue: 6 seeds x every other crash step from 5 to 60, with the
   eviction probability cycling through 0, 0.5 and 1. *)
let test_cross_queue_concurrent =
  concurrent_trials (672, 540) @@ fun trial ->
  List.iter
    (fun queue ->
      for seed = 1 to 6 do
        for crash_step = 5 to 60 do
          if crash_step mod 2 = seed mod 2 then
            trial queue
              {
                seed;
                crash_step;
                evict_p = float_of_int (crash_step mod 3) /. 2.;
                restart_seed = seed + crash_step;
              }
        done
      done)
    Trial.queues

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
      Trial.run world (queue_trial ~base:[] 60)
        { seed = 1; crash_step = step; evict_p = 0.; restart_seed = 1 }
    with
    | _ -> Alcotest.failf "crash step %d: the exception went unreported" step
    | exception Trial.Thread_raised (Failure _) -> !enqueued
  in
  Alcotest.(check bool) "no crash: reported after thread 0 finished" true
    (reported max_int);
  Alcotest.(check bool) "crash: reported, thread 0 cut off" false (reported 50)

(* ---------------------------------------------------------------------- *)
(* Multiple crashes and repeated resolution                                 *)
(* ---------------------------------------------------------------------- *)

let test_double_crash () =
  let setup () = dq () in
  for crash1 = 1 to 12 do
    let q = setup () in
    let rec_ = Recorder.create () in
    let thread () =
      Record.prep_enqueue rec_ q ~tid:0 7;
      Record.exec_enqueue rec_ q ~tid:0 7
    in
    let outcome =
      Sim.run q.heap ~crash:(Sim.Crash_at_step crash1) ~threads:[ thread ]
    in
    if outcome.Sim.crashed then begin
      Recorder.crash rec_;
      let q = restart ~setup ~heap:dq_heap q ~evict_p:0.5 ~seed:crash1 in
      q.recover ();
      Record.resolve rec_ q ~tid:0;
      (* A second crash before the thread does anything else: resolve
         must answer the same afterwards (it is idempotent and its
         inputs are persistent). *)
      let before = q.resolve ~tid:0 in
      Recorder.crash rec_;
      let q = restart ~setup ~heap:dq_heap q ~evict_p:0.0 ~seed:(crash1 + 777) in
      q.recover ();
      Record.resolve rec_ q ~tid:0;
      let after = q.resolve ~tid:0 in
      Alcotest.check resolved "resolution stable across second crash" before
        after;
      check_strict ~nthreads:2 (Recorder.history rec_)
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
      (sweep_enqueue ~evict_p:0.0 ~style:Centralized);
    Alcotest.test_case "enqueue sweep, cache evicted, centralized" `Quick
      (sweep_enqueue ~evict_p:1.0 ~style:Centralized);
    Alcotest.test_case "enqueue sweep, random eviction, centralized" `Quick
      (sweep_enqueue ~evict_p:0.5 ~style:Centralized);
    Alcotest.test_case "enqueue sweep, cache lost, per-thread" `Quick
      (sweep_enqueue ~evict_p:0.0 ~style:Per_thread);
    Alcotest.test_case "enqueue sweep, random eviction, per-thread" `Quick
      (sweep_enqueue ~evict_p:0.5 ~style:Per_thread);
    Alcotest.test_case "dequeue sweep, cache lost" `Quick
      (sweep_dequeue ~evict_p:0.0 ~style:Centralized);
    Alcotest.test_case "dequeue sweep, cache evicted" `Quick
      (sweep_dequeue ~evict_p:1.0 ~style:Centralized);
    Alcotest.test_case "dequeue sweep, random eviction" `Quick
      (sweep_dequeue ~evict_p:0.5 ~style:Centralized);
    Alcotest.test_case "dequeue-empty sweep" `Quick
      (sweep_dequeue_empty ~evict_p:0.5);
    Alcotest.test_case "concurrent crashes strictly linearizable" `Slow
      test_concurrent_crash_lincheck;
    Alcotest.test_case "trial: a thread's exception fails it" `Quick
      test_trial_thread_raises;
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

(* Capacity 64 and restart seeds 100000+step / 200000+step. *)
let cross_queue_suite =
  [
    Alcotest.test_case "enqueue crash sweep (all detectable queues)" `Quick
      (sweep_enqueue ~runs:[ (64, 100_000) ] ~evict_p:0.5 ~style:Centralized);
    Alcotest.test_case "dequeue crash sweep (all detectable queues)" `Quick
      (sweep_dequeue ~runs:[ (64, 200_000) ] ~evict_p:0.5 ~style:Centralized);
    Alcotest.test_case "concurrent crashes (all detectable queues)" `Slow
      test_cross_queue_concurrent;
  ]
