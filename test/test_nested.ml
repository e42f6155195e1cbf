(** Application-managed nesting (Section 2.2): the unmodified DSS queue
    algorithm running over base objects that are themselves detectable
    ([Dss_cell] via [Nested_memory]), as the paper describes —
    "D<queue> can be constructed using implementations of
    D<read/write register> and D<CAS>".

    The whole DSS-queue test battery is replayed on the nested
    instantiation: sequential semantics, detectable lifecycle, concurrent
    strict linearizability, and crash sweeps with exactly-once retry.
    A final test exercises detectability at BOTH levels at once. *)

open Helpers

module Config2 = struct
  let nthreads = 2
end

let make_nested ?reclaim ~capacity () =
  let memory heap =
    let (module B) = Sim.memory heap in
    (module Dssq_core.Nested_memory.Make (B) (Config2)
    : Dssq_memory.Memory_intf.S)
  in
  let q = make_dss_queue ?reclaim ~memory ~nthreads:2 ~capacity () in
  (q.heap, q)

let test_fifo_over_nested_memory () =
  let _, q = make_nested ~capacity:64 () in
  List.iter (fun v -> q.enqueue ~tid:0 v) [ 1; 2; 3 ];
  Alcotest.(check int) "1" 1 (q.dequeue ~tid:1);
  Alcotest.(check int) "2" 2 (q.dequeue ~tid:0);
  Alcotest.(check int) "3" 3 (q.dequeue ~tid:0);
  Alcotest.(check int) "empty" Queue_intf.empty_value (q.dequeue ~tid:0)

let test_detectable_lifecycle_nested () =
  let _, q = make_nested ~capacity:64 () in
  q.prep_enqueue ~tid:0 11;
  Alcotest.check resolved "prepared" (Queue_intf.Enq_pending 11)
    (q.resolve ~tid:0);
  q.exec_enqueue ~tid:0;
  Alcotest.check resolved "done" (Queue_intf.Enq_done 11) (q.resolve ~tid:0);
  q.prep_dequeue ~tid:1;
  Alcotest.(check int) "dequeues" 11 (q.exec_dequeue ~tid:1);
  Alcotest.check resolved "deq done" (Queue_intf.Deq_done 11) (q.resolve ~tid:1)

let test_concurrent_lincheck_nested () =
  for seed = 1 to 10 do
    let _, q = make_nested ~capacity:128 () in
    let rec_ = Recorder.create () in
    let program ~tid () =
      let open Specs.Queue in
      Scenarios.prep rec_ q.obj ~tid (Enqueue (10 + tid));
      Scenarios.exec rec_ q.obj ~tid (Enqueue (10 + tid));
      Scenarios.prep rec_ q.obj ~tid Dequeue;
      Scenarios.exec rec_ q.obj ~tid Dequeue;
      ignore (Scenarios.resolve rec_ q.obj ~tid)
    in
    let outcome =
      Sim.run q.heap ~policy:(Sim.Random_seed seed)
        ~threads:[ program ~tid:0; program ~tid:1 ]
    in
    Sim.check_thread_errors outcome;
    Oracle.assert_linearizable (queue_spec ~nthreads:2) (Recorder.history rec_)
  done

let test_crash_sweep_nested () =
  (* The crash sweep on the nested instantiation, sampled (every step is
     slow: each queue word is a full detectable object). *)
  let world () =
    let heap = Heap.create () in
    let (module B) = Sim.memory heap in
    let module NM = Dssq_core.Nested_memory.Make (B) (Config2) in
    let module Q = Dssq_core.Dss_queue.Make (NM) in
    let q = Q.create ~nthreads:2 ~capacity:48 () in
    Heap.log_persists heap;
    {
      Trial.heap;
      obj = Queue_intf.adapter (module Q) q;
      recover = (fun () -> Q.recover q);
    }
  in
  sweep ~stride:3 (11, 10) [ ("nested", world) ]
    (queue_program ~base:[ 90 ] Specs.Queue.[ Enqueue 5 ])
    ~evictions:[ 0.5 ] ~seed:(( + ) 9000) ()

let test_both_levels_detectable () =
  (* A thread uses the queue detectably while another uses a raw
     detectable cell — and after a crash both resolve correctly:
     detection composes. *)
  let module World (B : Dssq_memory.Memory_intf.S) = struct
    module NM = Dssq_core.Nested_memory.Make (B) (Config2)
    module Q = Dssq_core.Dss_queue.Make (NM)
    module C = Dssq_core.Dss_cell.Make (B)

    let q = Q.create ~nthreads:2 ~capacity:48 ()
    let c = C.create ~nthreads:2 0
  end in
  for crash_step = 2 to 40 do
    let live = Heap.create () in
    let (module L) = Sim.memory live in
    let module L = World (L) in
    Heap.log_persists live;
    let t0 () =
      L.Q.prep_enqueue L.q ~tid:0 5;
      L.Q.exec_enqueue L.q ~tid:0
    in
    let t1 () =
      L.C.prep_write L.c ~tid:1 7;
      L.C.exec_write L.c ~tid:1
    in
    let outcome =
      Sim.run live ~policy:(Sim.Random_seed crash_step)
        ~crash:(Sim.Crash_at_step crash_step) ~threads:[ t0; t1 ]
    in
    if outcome.Sim.crashed then begin
      let heap = Heap.create () in
      let (module B) = Sim.memory heap in
      let module W = World (B) in
      let module Q = W.Q in
      let module C = W.C in
      let q = W.q and c = W.c in
      Sim.restart live ~into:heap ~evict_p:0.5 ~seed:crash_step;
      Q.recover q;
      (* Queue-level detection. *)
      (match Q.resolve q ~tid:0 with
      | Queue_intf.Enq_done 5 ->
          Alcotest.(check bool) "enq done => present" true
            (List.mem 5 (Q.to_list q))
      | Queue_intf.Enq_pending 5 ->
          Alcotest.(check bool) "enq pending => absent" false
            (List.mem 5 (Q.to_list q))
      | Queue_intf.Nothing -> ()
      | r ->
          Alcotest.failf "queue: unexpected resolution %s"
            (Format.asprintf "%a" Queue_intf.pp_resolved r));
      (* Cell-level detection. *)
      match C.resolve c ~tid:1 with
      | C.Write_done 7 -> Alcotest.(check int) "cell done => present" 7 (C.read c)
      | C.Write_pending 7 -> Alcotest.(check int) "cell pending => absent" 0 (C.read c)
      | C.Nothing -> Alcotest.(check int) "cell prep lost" 0 (C.read c)
      | _ -> Alcotest.fail "cell: unexpected resolution"
    end
  done

let suite =
  [
    Alcotest.test_case "fifo over nested memory" `Quick
      test_fifo_over_nested_memory;
    Alcotest.test_case "detectable lifecycle (nested)" `Quick
      test_detectable_lifecycle_nested;
    Alcotest.test_case "concurrent lincheck (nested)" `Quick
      test_concurrent_lincheck_nested;
    Alcotest.test_case "crash sweep (nested, sampled)" `Quick
      test_crash_sweep_nested;
    Alcotest.test_case "detection composes across levels" `Quick
      test_both_levels_detectable;
  ]
