(** Crash-recovery tests for the DSS queue: a crash is injected at
    {e every} step of sequential detectable programs (with the cache
    either fully lost or fully evicted, plus a randomized mix), recovery
    runs, the interrupted operation is resolved and — where the
    application wants exactly-once semantics — retried.  Every recorded
    history, including the post-crash [resolve] responses, is checked for
    strict linearizability against [D<queue>]; structural invariants are
    checked after every recovery.  Randomized concurrent crash tests and
    multi-crash scenarios follow. *)

open Helpers

let dq ?(nthreads = 2) ?(capacity = 48) () =
  make_dss_queue ~reclaim:true ~nthreads ~capacity ()

type recovery_style = Centralized | Per_thread

let recover_with style (q : dq) ~nthreads =
  match style with
  | Centralized -> q.recover ()
  | Per_thread ->
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

(* ---------------------------------------------------------------------- *)
(* Crash at every step: detectable enqueue                                 *)
(* ---------------------------------------------------------------------- *)

let sweep_enqueue ~evict_p ~style () =
  let steps_seen = ref 0 in
  let finished = ref false in
  let step = ref 0 in
  while not !finished do
    let q = dq () in
    let rec_ = Recorder.create () in
    (* Non-empty start so both list shapes are exercised; recorded so the
       checker knows the abstract state. *)
    Record.enqueue rec_ q ~tid:1 90;
    let thread () =
      Record.prep_enqueue rec_ q ~tid:0 5;
      Record.exec_enqueue rec_ q ~tid:0 5
    in
    let outcome =
      Sim.run q.heap ~crash:(Sim.Crash_at_step !step) ~threads:[ thread ]
    in
    if not outcome.Sim.crashed then begin
      (* Program ran to completion: the sweep covered every step. *)
      Sim.check_thread_errors outcome;
      check_strict ~nthreads:2 (Recorder.history rec_);
      finished := true
    end
    else begin
      Recorder.crash rec_;
      Sim.apply_crash q.heap ~evict_p ~seed:(1000 + !step);
      recover_with style q ~nthreads:2;
      post_recovery_checks ~style q;
      Record.resolve rec_ q ~tid:0;
      (* Exactly-once completion: retry based on the resolution. *)
      (match q.resolve ~tid:0 with
      | Queue_intf.Enq_done 5 -> ()
      | Queue_intf.Enq_pending 5 ->
          Record.exec_enqueue rec_ q ~tid:0 5
      | Queue_intf.Nothing ->
          Record.prep_enqueue rec_ q ~tid:0 5;
          Record.exec_enqueue rec_ q ~tid:0 5
      | r ->
          Alcotest.failf "unexpected resolution after enqueue crash: %s"
            (Format.asprintf "%a" Queue_intf.pp_resolved r));
      let fives = List.filter (( = ) 5) (q.to_list ()) in
      Alcotest.(check int)
        (Printf.sprintf "exactly one 5 after crash at step %d" !step)
        1 (List.length fives);
      drain_recorded rec_ q ~tid:1;
      check_strict ~nthreads:2 (Recorder.history rec_);
      incr steps_seen
    end;
    incr step
  done;
  Alcotest.(check bool) "sweep covered at least 10 crash points" true
    (!steps_seen >= 10)

(* ---------------------------------------------------------------------- *)
(* Crash at every step: detectable dequeue                                 *)
(* ---------------------------------------------------------------------- *)

let sweep_dequeue ~evict_p ~style () =
  let finished = ref false in
  let step = ref 0 in
  while not !finished do
    let q = dq () in
    let rec_ = Recorder.create () in
    List.iter (fun v -> Record.enqueue rec_ q ~tid:1 v) [ 1; 2; 3 ];
    let thread () =
      Record.prep_dequeue rec_ q ~tid:0;
      Record.exec_dequeue rec_ q ~tid:0
    in
    let outcome =
      Sim.run q.heap ~crash:(Sim.Crash_at_step !step) ~threads:[ thread ]
    in
    if not outcome.Sim.crashed then begin
      Sim.check_thread_errors outcome;
      check_strict ~nthreads:2 (Recorder.history rec_);
      finished := true
    end
    else begin
      Recorder.crash rec_;
      Sim.apply_crash q.heap ~evict_p ~seed:(2000 + !step);
      recover_with style q ~nthreads:2;
      post_recovery_checks ~style q;
      Record.resolve rec_ q ~tid:0;
      (* Retry until the dequeue has happened exactly once. *)
      let dequeued =
        match q.resolve ~tid:0 with
        | Queue_intf.Deq_done v -> v
        | Queue_intf.Deq_pending ->
            let v = ref 0 in
            ignore
              (Recorder.record rec_ ~tid:0 (Dss_spec.Exec Specs.Queue.Dequeue)
                 (fun () ->
                   v := q.exec_dequeue ~tid:0;
                   deq_response !v));
            !v
        | Queue_intf.Nothing ->
            Record.prep_dequeue rec_ q ~tid:0;
            let v = ref 0 in
            ignore
              (Recorder.record rec_ ~tid:0 (Dss_spec.Exec Specs.Queue.Dequeue)
                 (fun () ->
                   v := q.exec_dequeue ~tid:0;
                   deq_response !v));
            !v
        | r ->
            Alcotest.failf "unexpected resolution after dequeue crash: %s"
              (Format.asprintf "%a" Queue_intf.pp_resolved r)
      in
      Alcotest.(check int)
        (Printf.sprintf "dequeued head exactly once (crash step %d)" !step)
        1 dequeued;
      Alcotest.check int_list "remaining values" [ 2; 3 ] (q.to_list ());
      drain_recorded rec_ q ~tid:1;
      check_strict ~nthreads:2 (Recorder.history rec_)
    end;
    incr step
  done

(* ---------------------------------------------------------------------- *)
(* Crash at every step: detectable dequeue on an empty queue               *)
(* ---------------------------------------------------------------------- *)

let sweep_dequeue_empty ~evict_p () =
  let finished = ref false in
  let step = ref 0 in
  while not !finished do
    let q = dq () in
    let rec_ = Recorder.create () in
    let thread () =
      Record.prep_dequeue rec_ q ~tid:0;
      Record.exec_dequeue rec_ q ~tid:0
    in
    let outcome =
      Sim.run q.heap ~crash:(Sim.Crash_at_step !step) ~threads:[ thread ]
    in
    if not outcome.Sim.crashed then finished := true
    else begin
      Recorder.crash rec_;
      Sim.apply_crash q.heap ~evict_p ~seed:(3000 + !step);
      q.recover ();
      Record.resolve rec_ q ~tid:0;
      (match q.resolve ~tid:0 with
      | Queue_intf.Deq_empty | Queue_intf.Deq_pending | Queue_intf.Nothing -> ()
      | r ->
          Alcotest.failf "unexpected resolution on empty queue: %s"
            (Format.asprintf "%a" Queue_intf.pp_resolved r));
      check_strict ~nthreads:2 (Recorder.history rec_)
    end;
    incr step
  done

(* ---------------------------------------------------------------------- *)
(* Randomized concurrent crash tests                                       *)
(* ---------------------------------------------------------------------- *)

let test_concurrent_crash_lincheck () =
  let nthreads = 2 in
  List.iter
    (fun evict_p ->
      for seed = 1 to 12 do
        for crash_step = 1 to 40 do
          if true then begin
            let q = dq ~nthreads ~capacity:64 () in
          let rec_ = Recorder.create () in
          Record.enqueue rec_ q ~tid:0 50;
          let programs =
            [
              (fun () ->
                Record.prep_enqueue rec_ q ~tid:0 60;
                Record.exec_enqueue rec_ q ~tid:0 60);
              (fun () ->
                Record.prep_dequeue rec_ q ~tid:1;
                Record.exec_dequeue rec_ q ~tid:1);
            ]
          in
          let outcome =
            Sim.run q.heap
              ~policy:(Sim.Random_seed seed)
              ~crash:(Sim.Crash_at_step crash_step)
              ~threads:programs
          in
          if outcome.Sim.crashed then begin
            Recorder.crash rec_;
            Sim.apply_crash q.heap ~evict_p ~seed:(seed * 100 + crash_step);
            q.recover ();
            post_recovery_checks q;
            Record.resolve rec_ q ~tid:0;
            Record.resolve rec_ q ~tid:1;
            drain_recorded rec_ q ~tid:0
          end
            else Sim.check_thread_errors outcome;
            check_strict ~nthreads (Recorder.history rec_)
          end
        done
      done)
    [ 0.0; 1.0; 0.5 ]

(* ---------------------------------------------------------------------- *)
(* Multiple crashes and repeated resolution                                 *)
(* ---------------------------------------------------------------------- *)

let test_double_crash () =
  for crash1 = 1 to 12 do
    let q = dq () in
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
      Sim.apply_crash q.heap ~evict_p:0.5 ~seed:crash1;
      q.recover ();
      Record.resolve rec_ q ~tid:0;
      (* A second crash before the thread does anything else: resolve
         must answer the same afterwards (it is idempotent and its
         inputs are persistent). *)
      let before = q.resolve ~tid:0 in
      Recorder.crash rec_;
      Sim.apply_crash q.heap ~evict_p:0.0 ~seed:(crash1 + 777);
      q.recover ();
      Record.resolve rec_ q ~tid:0;
      let after = q.resolve ~tid:0 in
      Alcotest.check resolved "resolution stable across second crash" before
        after;
      check_strict ~nthreads:2 (Recorder.history rec_)
    end
  done

let test_recover_idempotent () =
  for crash_step = 1 to 20 do
    let q = dq () in
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
      Sim.apply_crash q.heap ~evict_p:0.5 ~seed:crash_step;
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
     nodes pinned by X references. *)
  let q = dq ~nthreads:1 ~capacity:24 () in
  for round = 1 to 60 do
    let thread () =
      q.prep_enqueue ~tid:0 round;
      q.exec_enqueue ~tid:0;
      q.prep_dequeue ~tid:0;
      ignore (q.exec_dequeue ~tid:0)
    in
    let outcome =
      Sim.run q.heap
        ~crash:(Sim.Crash_at_step (3 + (round mod 25)))
        ~threads:[ thread ]
    in
    if outcome.Sim.crashed then begin
      Sim.apply_crash q.heap ~evict_p:0.3 ~seed:round;
      q.recover ();
      (* Complete the interrupted pair so the queue drains. *)
      (match q.resolve ~tid:0 with
      | Queue_intf.Enq_pending _ ->
          q.exec_enqueue ~tid:0;
          q.prep_dequeue ~tid:0;
          ignore (q.exec_dequeue ~tid:0)
      | Queue_intf.Enq_done _ | Queue_intf.Deq_pending ->
          q.prep_dequeue ~tid:0;
          ignore (q.exec_dequeue ~tid:0)
      | Queue_intf.Nothing ->
          q.prep_enqueue ~tid:0 round;
          q.exec_enqueue ~tid:0;
          q.prep_dequeue ~tid:0;
          ignore (q.exec_dequeue ~tid:0)
      | Queue_intf.Deq_done _ | Queue_intf.Deq_empty -> ())
    end;
    (* Drain anything left over so rounds stay bounded. *)
    while q.dequeue ~tid:0 <> Queue_intf.empty_value do
      ()
    done
  done;
  Alcotest.(check bool) "pool did not run dry" true (q.free_count () > 0)

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
