(** Deeper coverage scenarios that cut across modules:
    - the universal construction under concurrent crashes, checked
      against [D<counter>] with the linearizability checker;
    - the DSS queue's decentralized recovery running {e concurrently}
      with other threads' recovery and normal operations (the Section
      3.3 claim);
    - exhaustive exploration of a PMwCAS race with crash injection. *)

open Helpers
module Cnt = Specs.Counter

(* ------------------ universal construction, crashes ------------------ *)

let test_universal_concurrent_crash_lincheck () =
  let spec = Dss_spec.make ~nthreads:2 (Cnt.spec ()) in
  for seed = 1 to 10 do
    for crash_step = 3 to 48 do
      if (crash_step + seed) mod 4 = 0 then begin
        let heap = Heap.create () in
        let (module M) = Sim.memory heap in
        let module U = Dssq_universal.Universal.Make (M) in
        let u = U.create ~nthreads:2 ~capacity:128 (Cnt.spec ()) in
        let rec_ = Recorder.create () in
        let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
        let prog ~tid () =
          record ~tid (Dss_spec.Prep Cnt.Increment) (fun () ->
              U.prep u ~tid Cnt.Increment;
              Dss_spec.Ack);
          record ~tid (Dss_spec.Exec Cnt.Increment) (fun () ->
              match U.exec u ~tid Cnt.Increment with
              | Some r -> Dss_spec.Ret r
              | None -> Dss_spec.Ret Cnt.Ok (* unreachable: prep precedes *))
        in
        let outcome =
          Sim.run heap
            ~policy:(Sim.Random_seed seed)
            ~crash:(Sim.Crash_at_step crash_step)
            ~threads:[ prog ~tid:0; prog ~tid:1 ]
        in
        if outcome.Sim.crashed then begin
          Recorder.crash rec_;
          Sim.apply_crash heap ~evict_p:(float_of_int (seed mod 3) /. 2.) ~seed;
          record ~tid:0 Dss_spec.Resolve (fun () ->
              let a, r = U.resolve u ~tid:0 in
              Dss_spec.Status (a, r));
          record ~tid:1 Dss_spec.Resolve (fun () ->
              let a, r = U.resolve u ~tid:1 in
              Dss_spec.Status (a, r))
        end;
        (* Observe the final count so the checker pins the state. *)
        record ~tid:0 (Dss_spec.Base Cnt.Get) (fun () ->
            match U.apply u ~tid:0 Cnt.Get with
            | Some r -> Dss_spec.Ret r
            | None -> Dss_spec.Ret (Cnt.Value (-1)));
        match
          Lincheck.check ~mode:Lincheck.Strict spec (Recorder.history rec_)
        with
        | Lincheck.Linearizable _ -> ()
        | Lincheck.Not_linearizable _ ->
            Alcotest.failf "universal: seed %d crash %d not linearizable" seed
              crash_step
      end
    done
  done

(* ------------- decentralized recovery, truly concurrent -------------- *)

let test_decentralized_recovery_concurrent () =
  (* Crash a two-thread detectable workload, then run BOTH threads'
     recovery + resolution + retry + further operations concurrently in
     a second simulated phase — no centralized recovery at all
     (Section 3.3: "allow threads to recover independently...").  The
     final state must conserve values exactly once. *)
  for seed = 1 to 10 do
    for crash_step = 5 to 50 do
      if (crash_step + seed) mod 5 = 0 then begin
        let q = make_dss_queue ~reclaim:true ~nthreads:2 ~capacity:64 () in
        q.enqueue ~tid:0 90;
        let t0 () =
          q.prep_enqueue ~tid:0 10;
          q.exec_enqueue ~tid:0
        in
        let t1 () =
          q.prep_enqueue ~tid:1 20;
          q.exec_enqueue ~tid:1
        in
        let outcome =
          Sim.run q.heap
            ~policy:(Sim.Random_seed seed)
            ~crash:(Sim.Crash_at_step crash_step) ~threads:[ t0; t1 ]
        in
        if outcome.Sim.crashed then begin
          Sim.apply_crash q.heap ~evict_p:0.5 ~seed:(seed * 77 + crash_step);
          (* Process restart: volatile runtime state is gone... *)
          q.reset_volatile ();
          (* ...and each thread recovers for itself, concurrently, then
             completes its own operation per its own resolution and
             moves on to another operation. *)
          let recov ~tid v () =
            q.recover_thread ~tid;
            (match q.resolve ~tid with
            | Queue_intf.Enq_done _ -> ()
            | Queue_intf.Enq_pending _ -> q.exec_enqueue ~tid
            | Queue_intf.Nothing ->
                q.prep_enqueue ~tid v;
                q.exec_enqueue ~tid
            | _ -> ());
            q.prep_enqueue ~tid (v + 1);
            q.exec_enqueue ~tid
          in
          let outcome2 =
            Sim.run q.heap
              ~policy:(Sim.Random_seed (seed + 1000))
              ~threads:[ recov ~tid:0 10; recov ~tid:1 20 ]
          in
          Sim.check_thread_errors outcome2;
          let contents = List.sort compare (q.to_list ()) in
          Alcotest.check int_list
            (Printf.sprintf "exactly-once, concurrent recovery (s%d c%d)" seed
               crash_step)
            [ 10; 11; 20; 21; 90 ] contents
        end
      end
    done
  done

(* --------------- pmwcas: exhaustive race with crashes ---------------- *)

let test_pmwcas_explore_race_with_crashes () =
  (* Two conflicting single-word pmwcas operations, every preemption-
     bounded interleaving, every crash point with both cache outcomes:
     after recovery the word holds one of the three legal values and
     never a descriptor. *)
  ignore
    (Explore.run
       (Explore.make ~crashes:true ~max_preemptions:1
          ~setup:(fun () ->
            let heap = Heap.create () in
            let (module M) = Sim.memory heap in
            let module P = Dssq_pmwcas.Pmwcas.Make (M) in
            let p = P.create ~nwords:2 ~nthreads:2 () in
            let a = P.alloc p 0 in
            let read_after () = P.read p ~tid:0 a in
            let recover () = P.recover p in
            {
              Explore.history = Explore.no_history;
              ctx = (read_after, recover);
              heap;
              threads =
                [
                  (fun () -> ignore (P.pmwcas p ~tid:0 [ (a, 0, 1, `Shared) ]));
                  (fun () -> ignore (P.pmwcas p ~tid:1 [ (a, 0, 2, `Shared) ]));
                ];
            })
          ~check:(fun (read_after, recover) _heap ~crashed ->
            if crashed then recover ();
            let v = read_after () in
            Alcotest.(check bool)
              (Printf.sprintf "clean value after %s (got %d)"
                 (if crashed then "crash" else "completion")
                 v)
              true
              (List.mem v [ 0; 1; 2 ]))
          ()));
  ()

let suite =
  [
    Alcotest.test_case "universal: concurrent crashes linearizable" `Quick
      test_universal_concurrent_crash_lincheck;
    Alcotest.test_case "decentralized recovery runs concurrently" `Quick
      test_decentralized_recovery_concurrent;
    Alcotest.test_case "pmwcas: exhaustive race with crashes" `Quick
      test_pmwcas_explore_race_with_crashes;
  ]
