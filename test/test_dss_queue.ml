(** Behavioural tests for the DSS queue in failure-free executions:
    FIFO semantics, the detectable operation protocol, resolve in every
    reachable X state, reclamation, and concurrent executions checked
    against D<queue> with the linearizability checker. *)

open Helpers

let dq ?(reclaim = true) ?(nthreads = 2) ?(capacity = 64) () =
  make_dss_queue ~reclaim ~nthreads ~capacity ()

(* ----------------------- sequential, non-detectable ------------------- *)

let test_fifo () =
  let q = dq () in
  List.iter (fun v -> q.enqueue ~tid:0 v) [ 1; 2; 3 ];
  Alcotest.(check int) "deq 1" 1 (q.dequeue ~tid:0);
  Alcotest.(check int) "deq 2" 2 (q.dequeue ~tid:1);
  q.enqueue ~tid:1 4;
  Alcotest.(check int) "deq 3" 3 (q.dequeue ~tid:0);
  Alcotest.(check int) "deq 4" 4 (q.dequeue ~tid:0);
  Alcotest.(check int) "empty" Queue_intf.empty_value (q.dequeue ~tid:0)

let test_empty_queue () =
  let q = dq () in
  Alcotest.(check int) "empty from start" Queue_intf.empty_value
    (q.dequeue ~tid:0);
  q.enqueue ~tid:0 9;
  Alcotest.(check int) "one in one out" 9 (q.dequeue ~tid:0);
  Alcotest.(check int) "empty again" Queue_intf.empty_value (q.dequeue ~tid:0)

let test_to_list () =
  let q = dq () in
  Alcotest.check int_list "initially empty" [] (q.to_list ());
  List.iter (fun v -> q.enqueue ~tid:0 v) [ 5; 6; 7 ];
  Alcotest.check int_list "contents" [ 5; 6; 7 ] (q.to_list ());
  ignore (q.dequeue ~tid:0);
  Alcotest.check int_list "after dequeue" [ 6; 7 ] (q.to_list ())

let test_interleaved_threads_sequential () =
  let q = dq ~nthreads:4 () in
  for tid = 0 to 3 do
    q.enqueue ~tid (100 + tid)
  done;
  let out = List.init 4 (fun tid -> q.dequeue ~tid) in
  Alcotest.check int_list "fifo across threads" [ 100; 101; 102; 103 ] out

(* ----------------------- detectable protocol -------------------------- *)

let test_resolve_initial () =
  let q = dq () in
  Alcotest.check resolved "nothing prepared" Queue_intf.Nothing (q.resolve ~tid:0)

let test_detectable_enqueue_lifecycle () =
  let q = dq () in
  q.prep_enqueue ~tid:0 11;
  Alcotest.check resolved "prepared" (Queue_intf.Enq_pending 11)
    (q.resolve ~tid:0);
  q.exec_enqueue ~tid:0;
  Alcotest.check resolved "completed" (Queue_intf.Enq_done 11) (q.resolve ~tid:0);
  Alcotest.check resolved "resolve idempotent" (Queue_intf.Enq_done 11)
    (q.resolve ~tid:0);
  Alcotest.check int_list "value in queue" [ 11 ] (q.to_list ())

let test_detectable_dequeue_lifecycle () =
  let q = dq () in
  q.enqueue ~tid:0 21;
  q.prep_dequeue ~tid:0;
  Alcotest.check resolved "prepared" Queue_intf.Deq_pending (q.resolve ~tid:0);
  let v = q.exec_dequeue ~tid:0 in
  Alcotest.(check int) "dequeued" 21 v;
  Alcotest.check resolved "completed" (Queue_intf.Deq_done 21) (q.resolve ~tid:0)

let test_detectable_dequeue_empty () =
  let q = dq () in
  q.prep_dequeue ~tid:0;
  Alcotest.(check int) "empty" Queue_intf.empty_value (q.exec_dequeue ~tid:0);
  Alcotest.check resolved "empty recorded" Queue_intf.Deq_empty (q.resolve ~tid:0)

let test_prep_overwrites () =
  let q = dq () in
  q.prep_enqueue ~tid:0 1;
  q.exec_enqueue ~tid:0;
  q.prep_dequeue ~tid:0;
  Alcotest.check resolved "new prep wins" Queue_intf.Deq_pending
    (q.resolve ~tid:0)

let test_per_thread_resolution () =
  let q = dq ~nthreads:3 () in
  q.prep_enqueue ~tid:0 1;
  q.exec_enqueue ~tid:0;
  q.prep_enqueue ~tid:1 2;
  Alcotest.check resolved "t0 done" (Queue_intf.Enq_done 1) (q.resolve ~tid:0);
  Alcotest.check resolved "t1 pending" (Queue_intf.Enq_pending 2)
    (q.resolve ~tid:1);
  Alcotest.check resolved "t2 nothing" Queue_intf.Nothing (q.resolve ~tid:2)

let test_nondetectable_dequeue_does_not_confuse_resolve () =
  (* Section 3.2: a non-detectable dequeue marks deqThreadID with an
     extra tag so a later resolve of a pending detectable dequeue by the
     same thread does not claim it. *)
  let q = dq () in
  q.enqueue ~tid:0 7;
  q.prep_dequeue ~tid:0;
  (* The detectable dequeue never executes; the thread (for this test's
     purposes) dequeues non-detectably instead. *)
  Alcotest.(check int) "nondet dequeue" 7 (q.dequeue ~tid:0);
  Alcotest.check resolved "detectable deq still pending" Queue_intf.Deq_pending
    (q.resolve ~tid:0)

let test_mixed_det_and_nondet () =
  let q = dq () in
  q.enqueue ~tid:0 1;
  q.prep_enqueue ~tid:0 2;
  q.exec_enqueue ~tid:0;
  q.enqueue ~tid:0 3;
  Alcotest.check int_list "order preserved" [ 1; 2; 3 ] (q.to_list ());
  q.prep_dequeue ~tid:1;
  Alcotest.(check int) "det deq" 1 (q.exec_dequeue ~tid:1);
  Alcotest.(check int) "nondet deq" 2 (q.dequeue ~tid:1);
  Alcotest.check resolved "last det deq reported" (Queue_intf.Deq_done 1)
    (q.resolve ~tid:1)

(* ----------------------- resource management -------------------------- *)

let test_pool_exhaustion () =
  let q = dq ~reclaim:false ~nthreads:1 ~capacity:4 () in
  (* capacity 4: one node is the sentinel; three enqueues fit. *)
  q.enqueue ~tid:0 1;
  q.enqueue ~tid:0 2;
  q.enqueue ~tid:0 3;
  Alcotest.check_raises "pool exhausted"
    (Dssq_core.Node_pool.Pool_exhausted 0) (fun () -> q.enqueue ~tid:0 4)

let test_reclamation_recycles_nodes () =
  (* With reclamation on, a small pool supports many operations. *)
  let q = dq ~reclaim:true ~nthreads:1 ~capacity:32 () in
  for i = 1 to 500 do
    q.enqueue ~tid:0 i;
    Alcotest.(check int) "fifo under recycling" i (q.dequeue ~tid:0)
  done

let test_reclamation_detectable_recycles_nodes () =
  let q = dq ~reclaim:true ~nthreads:1 ~capacity:32 () in
  for i = 1 to 500 do
    q.prep_enqueue ~tid:0 i;
    q.exec_enqueue ~tid:0;
    q.prep_dequeue ~tid:0;
    Alcotest.(check int) "fifo under recycling" i (q.exec_dequeue ~tid:0)
  done

(* A completed detectable dequeue leaves X[0] on the old sentinel, and
   resolve reads the dequeued node's claim mark through it.  Another
   client's next dequeue retires that node; without a pin, its free
   resets the mark and resolve answers pending. *)
let test_resolve_dequeue_survives_recycling () =
  let q = dq ~nthreads:2 ~capacity:16 () in
  q.enqueue ~tid:1 1;
  q.prep_dequeue ~tid:0;
  Alcotest.(check int) "dequeued" 1 (q.exec_dequeue ~tid:0);
  Alcotest.check resolved "done" (Queue_intf.Deq_done 1) (q.resolve ~tid:0);
  for i = 1 to 50 do
    q.enqueue ~tid:1 (100 + i);
    Alcotest.(check int) "pair" (100 + i) (q.dequeue ~tid:1)
  done;
  Alcotest.check resolved "still done after 50 pairs" (Queue_intf.Deq_done 1)
    (q.resolve ~tid:0)

(* A restart drops the volatile pins; recovery must re-pin what resolve
   reads, here the dequeued node, which is then the live head sentinel. *)
let test_resolve_dequeue_survives_recycling_after_recovery () =
  let q = dq ~nthreads:2 ~capacity:16 () in
  q.enqueue ~tid:1 1;
  q.prep_dequeue ~tid:0;
  Alcotest.(check int) "dequeued" 1 (q.exec_dequeue ~tid:0);
  q.recover ();
  for i = 1 to 50 do
    q.enqueue ~tid:1 (100 + i);
    Alcotest.(check int) "pair" (100 + i) (q.dequeue ~tid:1)
  done;
  Alcotest.check resolved "still done after recovery and 50 pairs"
    (Queue_intf.Deq_done 1) (q.resolve ~tid:0)

(* Same for an enqueue: once another client dequeues past the enqueued
   node, it is retired, and reallocating it (a freed node returns to its
   home thread, here the enqueuer's own plain enqueues) would overwrite
   the value resolve reports. *)
let test_resolve_enqueue_survives_recycling () =
  let q = dq ~nthreads:2 ~capacity:16 () in
  q.prep_enqueue ~tid:0 7;
  q.exec_enqueue ~tid:0;
  for i = 1 to 50 do
    q.enqueue ~tid:1 (100 + i);
    ignore (q.dequeue ~tid:1 : int)
  done;
  for i = 1 to 4 do
    q.enqueue ~tid:0 (200 + i)
  done;
  Alcotest.check resolved "still done after 50 pairs" (Queue_intf.Enq_done 7)
    (q.resolve ~tid:0)

(* ----------------------- concurrent, failure-free --------------------- *)

let run_concurrent ~seed ~nthreads ~program =
  let q = dq ~nthreads ~capacity:256 () in
  let rec_ = Recorder.create () in
  let threads = List.init nthreads (fun tid () -> program rec_ q ~tid) in
  let outcome = Sim.run q.heap ~policy:(Sim.Random_seed seed) ~threads in
  Sim.check_thread_errors outcome;
  Alcotest.(check bool) "no crash" false outcome.Sim.crashed;
  (q, Recorder.history rec_)

let test_concurrent_detectable_lincheck () =
  for seed = 1 to 25 do
    let program rec_ q ~tid =
      Record.prep_enqueue rec_ q ~tid (10 + tid);
      Record.exec_enqueue rec_ q ~tid (10 + tid);
      Record.prep_dequeue rec_ q ~tid;
      Record.exec_dequeue rec_ q ~tid;
      Record.resolve rec_ q ~tid
    in
    let _, history = run_concurrent ~seed ~nthreads:3 ~program in
    check_strict ~nthreads:3 history
  done

let test_concurrent_mixed_lincheck () =
  for seed = 1 to 25 do
    let program rec_ q ~tid =
      if tid mod 2 = 0 then begin
        Record.enqueue rec_ q ~tid (100 + tid);
        Record.prep_enqueue rec_ q ~tid (200 + tid);
        Record.exec_enqueue rec_ q ~tid (200 + tid);
        Record.resolve rec_ q ~tid
      end
      else begin
        Record.prep_dequeue rec_ q ~tid;
        Record.exec_dequeue rec_ q ~tid;
        Record.dequeue rec_ q ~tid;
        Record.resolve rec_ q ~tid
      end
    in
    let _, history = run_concurrent ~seed ~nthreads:4 ~program in
    check_strict ~nthreads:4 history
  done

let test_concurrent_values_conserved () =
  (* Every enqueued value is either still in the queue or was dequeued by
     exactly one thread; no duplicates, no inventions. *)
  for seed = 1 to 20 do
    let nthreads = 4 in
    let dequeued = Array.make nthreads [] in
    let q = dq ~nthreads ~capacity:512 () in
    let program ~tid () =
      for i = 0 to 9 do
        q.enqueue ~tid ((tid * 100) + i);
        let v = q.dequeue ~tid in
        if v <> Queue_intf.empty_value then
          dequeued.(tid) <- v :: dequeued.(tid)
      done
    in
    let outcome =
      Sim.run q.heap ~policy:(Sim.Random_seed seed)
        ~threads:(List.init nthreads (fun tid -> program ~tid))
    in
    Sim.check_thread_errors outcome;
    let out = Array.to_list dequeued |> List.concat in
    let remaining = q.to_list () in
    let all = List.sort compare (out @ remaining) in
    let expected =
      List.sort compare
        (List.concat_map
           (fun tid -> List.init 10 (fun i -> (tid * 100) + i))
           [ 0; 1; 2; 3 ])
    in
    Alcotest.check int_list "multiset conserved" expected all
  done

let test_explore_two_enqueues () =
  (* Exhaustively interleave two concurrent exec-enqueues: both values
     always end up in the queue, in either order, and both threads
     resolve as completed. *)
  let orders = ref [] in
  ignore
    (Explore.run
       (Explore.make ~max_preemptions:2
          ~setup:(fun () ->
            let q = dq ~nthreads:2 ~capacity:16 () in
            q.prep_enqueue ~tid:0 1;
            q.prep_enqueue ~tid:1 2;
            {
              Explore.history = Explore.no_history;
              prologue = ignore;
              ctx = q;
              heap = q.heap;
              threads =
                [ (fun () -> q.exec_enqueue ~tid:0); (fun () -> q.exec_enqueue ~tid:1) ];
            })
          ~check:(fun q _heap ~crashed:_ ->
            let contents = q.to_list () in
            orders := contents :: !orders;
            Alcotest.(check bool)
              "both enqueued" true
              (contents = [ 1; 2 ] || contents = [ 2; 1 ]);
            Alcotest.check resolved "t0 done" (Queue_intf.Enq_done 1)
              (q.resolve ~tid:0);
            Alcotest.check resolved "t1 done" (Queue_intf.Enq_done 2)
              (q.resolve ~tid:1))
          ()));
  let distinct = List.sort_uniq compare !orders in
  Alcotest.(check int) "both orders reachable" 2 (List.length distinct)

let test_explore_enqueue_vs_dequeue () =
  (* One enqueuer and one dequeuer over a queue holding one element. *)
  ignore
    (Explore.run
       (Explore.make ~max_preemptions:2
          ~setup:(fun () ->
            let q = dq ~nthreads:2 ~capacity:16 () in
            q.enqueue ~tid:0 1;
            q.prep_enqueue ~tid:0 2;
            q.prep_dequeue ~tid:1;
            let out = ref min_int in
            {
              Explore.history = Explore.no_history;
              prologue = ignore;
              ctx = (q, out);
              heap = q.heap;
              threads =
                [
                  (fun () -> q.exec_enqueue ~tid:0);
                  (fun () -> out := q.exec_dequeue ~tid:1);
                ];
            })
          ~check:(fun (q, out) _heap ~crashed:_ ->
            Alcotest.(check int) "dequeuer got the head" 1 !out;
            Alcotest.check resolved "deq resolved" (Queue_intf.Deq_done 1)
              (q.resolve ~tid:1);
            Alcotest.check int_list "enqueue landed" [ 2 ] (q.to_list ()))
          ()));
  ()

(* ----------------------- per-op allocation (Native) ------------------ *)

module Native_queue = Dssq_core.Dss_queue.Make (Dssq_memory.Native)
module Native_stack = Dssq_core.Dss_stack.Make (Dssq_memory.Native)

(* Minor words one detectable pair allocates, averaged over 10,000 pairs
   after warm-up.  With tracing and profiling off an op may allocate
   only what reclamation keeps: one list cell (3 words) each for the
   deferred retirement, the limbo bucket and the free list. *)
let words_per_pair pair =
  Alcotest.(check bool) "tracing off" false (Dssq_obs.Trace.is_on ());
  Alcotest.(check bool) "profiling off" false (Dssq_obs.Attrib.is_on ());
  for i = 1 to 1_000 do
    pair i
  done;
  let pairs = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to pairs do
    pair i
  done;
  (Gc.minor_words () -. before) /. float_of_int pairs

let test_native_pair_allocation () =
  (* Without reclamation nothing is recycled: size the pool for every
     enqueue the two loops make. *)
  let check_words label ~reclaim ~within w =
    if w > within then
      Alcotest.failf "%s (reclaim %b): %.2f minor words per pair, limit %.0f"
        label reclaim w within
  in
  List.iter
    (fun (reclaim, within) ->
      let q = Native_queue.create ~reclaim ~nthreads:1 ~capacity:12_000 () in
      check_words "queue enqueue/dequeue" ~reclaim ~within
        (words_per_pair (fun v ->
             Native_queue.prep_enqueue q ~tid:0 v;
             Native_queue.exec_enqueue q ~tid:0;
             Native_queue.prep_dequeue q ~tid:0;
             if Native_queue.exec_dequeue q ~tid:0 <> v then
               Alcotest.fail "queue: wrong value"));
      let s = Native_stack.create ~reclaim ~nthreads:1 ~capacity:12_000 () in
      check_words "stack push/pop" ~reclaim ~within
        (words_per_pair (fun v ->
             Native_stack.prep_push s ~tid:0 v;
             Native_stack.exec_push s ~tid:0;
             Native_stack.prep_pop s ~tid:0;
             if Native_stack.exec_pop s ~tid:0 <> v then
               Alcotest.fail "stack: wrong value")))
    [ (false, 0.); (true, 9.) ]

let suite =
  [
    Alcotest.test_case "native detectable pairs allocate nothing per call"
      `Quick test_native_pair_allocation;
    Alcotest.test_case "fifo order" `Quick test_fifo;
    Alcotest.test_case "empty queue returns EMPTY" `Quick test_empty_queue;
    Alcotest.test_case "to_list reflects contents" `Quick test_to_list;
    Alcotest.test_case "fifo across threads (sequential)" `Quick
      test_interleaved_threads_sequential;
    Alcotest.test_case "resolve with nothing prepared" `Quick
      test_resolve_initial;
    Alcotest.test_case "detectable enqueue lifecycle" `Quick
      test_detectable_enqueue_lifecycle;
    Alcotest.test_case "detectable dequeue lifecycle" `Quick
      test_detectable_dequeue_lifecycle;
    Alcotest.test_case "detectable dequeue on empty queue" `Quick
      test_detectable_dequeue_empty;
    Alcotest.test_case "prep overwrites previous context" `Quick
      test_prep_overwrites;
    Alcotest.test_case "per-thread resolution" `Quick test_per_thread_resolution;
    Alcotest.test_case "non-detectable dequeue marking" `Quick
      test_nondetectable_dequeue_does_not_confuse_resolve;
    Alcotest.test_case "mixed detectable and plain operations" `Quick
      test_mixed_det_and_nondet;
    Alcotest.test_case "pool exhaustion raises" `Quick test_pool_exhaustion;
    Alcotest.test_case "reclamation recycles nodes (plain)" `Quick
      test_reclamation_recycles_nodes;
    Alcotest.test_case "resolve dequeue survives node recycling" `Quick
      test_resolve_dequeue_survives_recycling;
    Alcotest.test_case "resolve survives recycling after recovery" `Quick
      test_resolve_dequeue_survives_recycling_after_recovery;
    Alcotest.test_case "resolve enqueue survives node recycling" `Quick
      test_resolve_enqueue_survives_recycling;
    Alcotest.test_case "reclamation recycles nodes (detectable)" `Quick
      test_reclamation_detectable_recycles_nodes;
    Alcotest.test_case "concurrent detectable ops strictly linearizable"
      `Quick test_concurrent_detectable_lincheck;
    Alcotest.test_case "concurrent mixed ops strictly linearizable" `Quick
      test_concurrent_mixed_lincheck;
    Alcotest.test_case "concurrent values conserved" `Quick
      test_concurrent_values_conserved;
    Alcotest.test_case "explore: two concurrent enqueues" `Quick
      test_explore_two_enqueues;
    Alcotest.test_case "explore: enqueue vs dequeue" `Quick
      test_explore_enqueue_vs_dequeue;
  ]
