(** The detectability contract, checked uniformly across EVERY detectable
    queue implementation in the repository (DSS queue, log queue, both
    CASWithEffect variants): the same crash-sweep, exactly-once and
    strict-linearizability scenarios, parameterized by implementation.
    What Theorem 1 claims for the DSS queue should hold — and does — for
    the baselines too; only the costs differ. *)

open Helpers

let kinds =
  [
    ("dss", fun () -> make_dss_queue ~nthreads:2 ~capacity:64 ());
    ("log", fun () -> make_log_queue ~nthreads:2 ~capacity:64 ());
    ("fast-caswe", fun () -> make_caswe_queue ~variant:`Fast ~nthreads:2 ~capacity:64 ());
    ("gen-caswe", fun () -> make_caswe_queue ~variant:`General ~nthreads:2 ~capacity:64 ());
  ]

let for_kinds f () = List.iter (fun (name, mk) -> f name mk) kinds

(* Crash at every step of a detectable enqueue; resolve; retry to
   exactly-once; validate the final state through the checker. *)
let test_enqueue_sweep =
  for_kinds (fun name mk ->
      ignore
      @@ sweep_crashes ~setup:mk ~heap:dq_heap ~evict_p:0.5
           ~seed:(fun step -> 100_000 + step)
           (fun ~step q ->
             let rec_ = Recorder.create () in
             Record.enqueue rec_ q ~tid:1 90;
             let t () =
               Record.prep_enqueue rec_ q ~tid:0 5;
               Record.exec_enqueue rec_ q ~tid:0 5
             in
             ( [ t ],
               fun outcome -> function
                 | None -> Sim.check_thread_errors outcome
                 | Some q ->
                     Recorder.crash rec_;
                     q.recover ();
                     Record.resolve rec_ q ~tid:0;
                     (match q.resolve ~tid:0 with
                     | Queue_intf.Enq_done 5 -> ()
                     | Queue_intf.Enq_pending 5 -> Record.exec_enqueue rec_ q ~tid:0 5
                     | Queue_intf.Nothing ->
                         Record.prep_enqueue rec_ q ~tid:0 5;
                         Record.exec_enqueue rec_ q ~tid:0 5
                     | r ->
                         Alcotest.failf "%s: unexpected resolution at step %d: %s"
                           name step
                           (Format.asprintf "%a" Queue_intf.pp_resolved r));
                     let fives = List.filter (( = ) 5) (q.to_list ()) in
                     Alcotest.(check int)
                       (Printf.sprintf "%s: exactly one 5 (crash step %d)" name step)
                       1 (List.length fives);
                     (* Validate final abstract state via recorded drain. *)
                     let rec drain guard =
                       if guard > 0 then begin
                         let v = ref 0 in
                         ignore
                           (Recorder.record rec_ ~tid:1
                              (Dss_spec.Base Specs.Queue.Dequeue) (fun () ->
                                v := q.dequeue ~tid:1;
                                deq_response !v));
                         if !v <> Queue_intf.empty_value then drain (guard - 1)
                       end
                     in
                     drain 20;
                     check_strict ~nthreads:2 (Recorder.history rec_) )))

(* Crash at every step of a detectable dequeue; exactly-once. *)
let test_dequeue_sweep =
  for_kinds (fun name mk ->
      ignore
      @@ sweep_crashes ~setup:mk ~heap:dq_heap ~evict_p:0.5
           ~seed:(fun step -> 200_000 + step)
           (fun ~step q ->
             List.iter (fun v -> q.enqueue ~tid:1 v) [ 1; 2; 3 ];
             let t () =
               q.prep_dequeue ~tid:0;
               ignore (q.exec_dequeue ~tid:0)
             in
             ( [ t ],
               fun _ -> function
                 | None -> ()
                 | Some q ->
                     q.recover ();
                     let dequeued =
                       match q.resolve ~tid:0 with
                       | Queue_intf.Deq_done v -> v
                       | Queue_intf.Deq_pending -> q.exec_dequeue ~tid:0
                       | Queue_intf.Nothing ->
                           q.prep_dequeue ~tid:0;
                           q.exec_dequeue ~tid:0
                       | r ->
                           Alcotest.failf "%s: unexpected resolution: %s" name
                             (Format.asprintf "%a" Queue_intf.pp_resolved r)
                     in
                     Alcotest.(check int)
                       (Printf.sprintf "%s: head dequeued exactly once (step %d)"
                          name step)
                       1 dequeued;
                     Alcotest.check int_list
                       (Printf.sprintf "%s: remaining (step %d)" name step)
                       [ 2; 3 ] (q.to_list ()) )))

(* Randomized concurrent crashes, strict linearizability. *)
let test_concurrent_crash_lincheck =
  for_kinds (fun name mk ->
      for seed = 1 to 6 do
        for crash_step = 5 to 60 do
          if crash_step mod 2 = seed mod 2 then begin
            let q = mk () in
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
              let q =
                restart ~setup:mk ~heap:dq_heap q
                  ~evict_p:(float_of_int (crash_step mod 3) /. 2.)
                  ~seed:(seed + crash_step)
              in
              q.recover ();
              Record.resolve rec_ q ~tid:0;
              Record.resolve rec_ q ~tid:1;
              let rec drain guard =
                if guard > 0 then begin
                  let v = ref 0 in
                  ignore
                    (Recorder.record rec_ ~tid:0
                       (Dss_spec.Base Specs.Queue.Dequeue) (fun () ->
                         v := q.dequeue ~tid:0;
                         deq_response !v));
                  if !v <> Queue_intf.empty_value then drain (guard - 1)
                end
              in
              drain 20
            end
            else Sim.check_thread_errors outcome;
            (match
               Lincheck.check ~mode:Lincheck.Strict (queue_spec ~nthreads:2)
                 (Recorder.history rec_)
             with
            | Lincheck.Linearizable _ -> ()
            | Lincheck.Not_linearizable _ ->
                Alcotest.failf "%s: seed %d crash %d not strictly linearizable"
                  name seed crash_step)
          end
        done
      done)

let suite =
  [
    Alcotest.test_case "enqueue crash sweep (all detectable queues)" `Quick
      test_enqueue_sweep;
    Alcotest.test_case "dequeue crash sweep (all detectable queues)" `Quick
      test_dequeue_sweep;
    Alcotest.test_case "concurrent crashes (all detectable queues)" `Slow
      test_concurrent_crash_lincheck;
  ]
