(** Tests for the General and Fast CASWithEffect queues: semantics,
    detectability, the atomicity advantage (X always consistent with the
    structure, even mid-crash), and crash sweeps. *)

open Helpers

let make ~variant ~nthreads ~capacity =
  make_queue variant ~nthreads ~capacity ()

let variants = [ ("general", `General); ("fast", `Fast) ]

let for_variants f () = List.iter (fun (name, v) -> f name v) variants

let test_fifo =
  for_variants (fun name v ->
      let q = make ~variant:v ~nthreads:2 ~capacity:64 in
      List.iter (fun x -> q.enqueue ~tid:0 x) [ 1; 2; 3 ];
      Alcotest.(check int) (name ^ ": 1") 1 (q.dequeue ~tid:1);
      Alcotest.(check int) (name ^ ": 2") 2 (q.dequeue ~tid:0);
      Alcotest.(check int) (name ^ ": 3") 3 (q.dequeue ~tid:0);
      Alcotest.(check int)
        (name ^ ": empty")
        Queue_intf.empty_value (q.dequeue ~tid:0))

let test_detectable_lifecycle =
  for_variants (fun name v ->
      let q = make ~variant:v ~nthreads:2 ~capacity:64 in
      Alcotest.check resolved (name ^ ": nothing") Queue_intf.Nothing
        (q.resolve ~tid:0);
      q.prep_enqueue ~tid:0 11;
      Alcotest.check resolved (name ^ ": enq pending")
        (Queue_intf.Enq_pending 11) (q.resolve ~tid:0);
      q.exec_enqueue ~tid:0;
      Alcotest.check resolved (name ^ ": enq done") (Queue_intf.Enq_done 11)
        (q.resolve ~tid:0);
      q.prep_dequeue ~tid:1;
      Alcotest.check resolved (name ^ ": deq pending") Queue_intf.Deq_pending
        (q.resolve ~tid:1);
      Alcotest.(check int) (name ^ ": deq value") 11 (q.exec_dequeue ~tid:1);
      Alcotest.check resolved (name ^ ": deq done") (Queue_intf.Deq_done 11)
        (q.resolve ~tid:1);
      q.prep_dequeue ~tid:0;
      Alcotest.(check int)
        (name ^ ": empty deq")
        Queue_intf.empty_value (q.exec_dequeue ~tid:0);
      Alcotest.check resolved (name ^ ": deq empty") Queue_intf.Deq_empty
        (q.resolve ~tid:0))

let test_concurrent_conservation =
  for_variants (fun name v ->
      for seed = 1 to 8 do
        let nthreads = 2 in
        let q = make ~variant:v ~nthreads ~capacity:128 in
        let dequeued = Array.make nthreads [] in
        let program ~tid () =
          for i = 0 to 4 do
            q.prep_enqueue ~tid ((tid * 100) + i);
            q.exec_enqueue ~tid;
            q.prep_dequeue ~tid;
            let x = q.exec_dequeue ~tid in
            if x <> Queue_intf.empty_value then
              dequeued.(tid) <- x :: dequeued.(tid)
          done
        in
        let outcome =
          Sim.run q.heap ~policy:(Sim.Random_seed seed)
            ~threads:(List.init nthreads (fun tid -> program ~tid))
        in
        Sim.check_thread_errors outcome;
        let out = Array.to_list dequeued |> List.concat in
        let all = List.sort compare (out @ q.to_list ()) in
        let expected =
          List.sort compare
            (List.concat_map
               (fun tid -> List.init 5 (fun i -> (tid * 100) + i))
               [ 0; 1 ])
        in
        Alcotest.check int_list
          (Printf.sprintf "%s: conserved (seed %d)" name seed)
          expected all
      done)

(* The headline property of CASWithEffect: because the structure and X
   change in one PMwCAS, a crash can never leave an enqueue visible in
   the list but unrecorded in X, or vice versa.  A crash at every step
   of one detectable operation on each variant's world, restarting step
   [s] with seed [7 s] (enqueue) or [13 s] (dequeue). *)
let worlds =
  List.map (fun (name, kind) -> (name, Trial.queue ~policy:Eager kind)) variants

let test_crash_atomic_detectability =
  sweep (95, 93) worlds
    (queue_program ~base:[] Specs.Queue.[ Enqueue 5 ])
    ~evictions:[ 0.5 ]
    ~seed:(fun step -> step * 7)

let test_crash_atomic_dequeue =
  sweep (87, 85) worlds
    (queue_program ~base:[ 1; 2 ] Specs.Queue.[ Dequeue ])
    ~evictions:[ 0.5 ]
    ~seed:(fun step -> step * 13)

let test_fast_uses_fewer_events () =
  (* The Fast variant's private-X optimization must show up as strictly
     fewer CAS+flush events per detectable pair. *)
  let count variant =
    let q = make ~variant ~nthreads:1 ~capacity:64 in
    Heap.reset_stats q.heap;
    for i = 1 to 20 do
      q.prep_enqueue ~tid:0 i;
      q.exec_enqueue ~tid:0;
      q.prep_dequeue ~tid:0;
      ignore (q.exec_dequeue ~tid:0)
    done;
    let s = Heap.stats q.heap in
    s.Heap.cases + s.Heap.flushes
  in
  let fast = count `Fast and general = count `General in
  Alcotest.(check bool)
    (Printf.sprintf "fast (%d) < general (%d)" fast general)
    true (fast < general)

(* [dssq lincheck --queue general-caswe --policy px86], iteration 30
   alone: thread 0 prepares and executes an enqueue, thread 1 a dequeue
   of the empty queue, under random schedule 30 with a crash before step
   35; the crash image is drawn with evict_p 0 and seed 30.  The image
   holds X[1] mid-install — an RDCSS pointer of thread 1's descriptor —
   while the meta word that would make the descriptor active was still
   buffered.  Recovery used to skip the inactive descriptor, and
   thread 1's resolve then spun in [Pmwcas.read] forever. *)
let test_px86_iteration_30 () =
  let i = 30 in
  let make () =
    let heap = Heap.create ~policy:Heap.Policy.Px86 () in
    let (module M) = Sim.memory heap in
    let module Q = Dssq_baselines.Caswe_queue.General (M) in
    let q = Q.create ~nthreads:2 ~capacity:64 () in
    Heap.log_persists heap;
    let x1 () = M.read (Q.P.cell q.Q.p q.Q.x.(1)) in
    let run ~tid = function
      | `Enq v ->
          Q.prep_enqueue q ~tid v;
          Q.exec_enqueue q ~tid
      | `Deq ->
          Q.prep_dequeue q ~tid;
          ignore (Q.exec_dequeue q ~tid : int)
    in
    (heap, run, x1, (fun () -> Q.recover q), fun ~tid -> Q.resolve q ~tid)
  in
  let heap, run, _, _, _ = make () in
  let outcome =
    Sim.run heap ~policy:(Sim.Random_seed i)
      ~crash:(Sim.Crash_at_step (5 + (i mod 45)))
      ~threads:[ (fun () -> run ~tid:0 (`Enq i)); (fun () -> run ~tid:1 `Deq) ]
  in
  Alcotest.(check bool) "crashed" true outcome.Sim.crashed;
  let fresh, _, x1, recover, resolve = make () in
  Sim.restart heap ~into:fresh ~evict_p:(float_of_int (i mod 3) /. 2.) ~seed:i;
  Alcotest.(check bool)
    "X[1] persisted mid-install" true
    (Tagged.has (x1 ()) Tagged.pmwcas_rdcss);
  recover ();
  Alcotest.(check bool)
    "X[1] rolled back to thread 1's announcement" true
    (x1 () = Tagged.deq_prep);
  (match resolve ~tid:0 with
  | Queue_intf.Nothing | Queue_intf.Enq_pending _ -> ()
  | _ -> Alcotest.fail "thread 0's enqueue resolved as something else");
  match resolve ~tid:1 with
  | Queue_intf.Deq_pending -> ()
  | _ -> Alcotest.fail "thread 1's dequeue did not resolve as pending"

let suite =
  [
    Alcotest.test_case "fifo (both variants)" `Quick test_fifo;
    Alcotest.test_case "detectable lifecycle (both variants)" `Quick
      test_detectable_lifecycle;
    Alcotest.test_case "concurrent conservation (both variants)" `Quick
      test_concurrent_conservation;
    Alcotest.test_case "crash: enqueue atomic with X (both)" `Quick
      test_crash_atomic_detectability;
    Alcotest.test_case "crash: dequeue atomic with X (both)" `Quick
      test_crash_atomic_dequeue;
    Alcotest.test_case "fast variant does fewer CAS+flush" `Quick
      test_fast_uses_fewer_events;
    Alcotest.test_case "px86 lincheck iteration 30: both resolves return"
      `Quick test_px86_iteration_30;
  ]
