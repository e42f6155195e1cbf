(** Tests for the baseline queues: MS queue, durable queue, log queue —
    FIFO semantics, concurrency, persistence/detectability where each
    provides it. *)

open Helpers

(* Generic closures over any QUEUE-shaped instance. *)
type bq = {
  heap : Heap.t;
  enqueue : tid:int -> int -> unit;
  dequeue : tid:int -> int;
  to_list : unit -> int list;
}

let make_ms ~nthreads ~capacity : bq =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Q = Dssq_baselines.Ms_queue.Make (M) in
  let q = Q.create ~nthreads ~capacity in
  {
    heap;
    enqueue = (fun ~tid v -> Q.enqueue q ~tid v);
    dequeue = (fun ~tid -> Q.dequeue q ~tid);
    to_list = (fun () -> Q.to_list q);
  }

let fifo_smoke (q : bq) =
  List.iter (fun v -> q.enqueue ~tid:0 v) [ 1; 2; 3 ];
  Alcotest.(check int) "1" 1 (q.dequeue ~tid:1);
  Alcotest.(check int) "2" 2 (q.dequeue ~tid:0);
  Alcotest.(check int) "3" 3 (q.dequeue ~tid:1);
  Alcotest.(check int) "empty" Queue_intf.empty_value (q.dequeue ~tid:0)

let concurrency_conservation (q : bq) ~nthreads ~seed =
  let dequeued = Array.make nthreads [] in
  let program ~tid () =
    for i = 0 to 7 do
      q.enqueue ~tid ((tid * 100) + i);
      let v = q.dequeue ~tid in
      if v <> Queue_intf.empty_value then dequeued.(tid) <- v :: dequeued.(tid)
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
         (fun tid -> List.init 8 (fun i -> (tid * 100) + i))
         (List.init nthreads Fun.id))
  in
  Alcotest.check int_list "values conserved" expected all

(* ------------------------------ MS queue ------------------------------ *)

let test_ms_fifo () = fifo_smoke (make_ms ~nthreads:2 ~capacity:64)

let test_ms_concurrent () =
  for seed = 1 to 15 do
    concurrency_conservation (make_ms ~nthreads:3 ~capacity:256) ~nthreads:3 ~seed
  done

let test_ms_recycles () =
  let q = make_ms ~nthreads:1 ~capacity:16 in
  for i = 1 to 300 do
    q.enqueue ~tid:0 i;
    Alcotest.(check int) "fifo under recycling" i (q.dequeue ~tid:0)
  done

let test_ms_uses_no_flushes () =
  let q = make_ms ~nthreads:1 ~capacity:16 in
  Heap.reset_stats q.heap;
  q.enqueue ~tid:0 1;
  ignore (q.dequeue ~tid:0);
  Alcotest.(check int) "volatile algorithm: zero flushes" 0
    (Heap.stats q.heap).Heap.flushes

(* ---------------------------- durable queue --------------------------- *)

type dur = {
  b : bq;
  recover : unit -> unit;
  returned_value : tid:int -> int option;
}

let make_durable ~nthreads ~capacity : dur =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Q = Dssq_baselines.Durable_queue.Make (M) in
  let q = Q.create ~nthreads ~capacity in
  Heap.log_persists heap;
  {
    b =
      {
        heap;
        enqueue = (fun ~tid v -> Q.enqueue q ~tid v);
        dequeue = (fun ~tid -> Q.dequeue q ~tid);
        to_list = (fun () -> Q.to_list q);
      };
    recover = (fun () -> Q.recover q);
    returned_value = (fun ~tid -> Q.returned_value q ~tid);
  }

let test_durable_fifo () = fifo_smoke (make_durable ~nthreads:2 ~capacity:64).b

let test_durable_concurrent () =
  for seed = 1 to 15 do
    concurrency_conservation (make_durable ~nthreads:3 ~capacity:256).b
      ~nthreads:3 ~seed
  done

let durable_setup () = make_durable ~nthreads:1 ~capacity:32
let dur_heap (d : dur) = d.b.heap

let test_durable_crash_preserves_contents () =
  (* Crash at every step of an enqueue+dequeue pair: after recovery the
     queue holds a sensible subset/superset per effects, and no value is
     duplicated. *)
  ignore
  @@ sweep_crashes ~setup:durable_setup ~heap:dur_heap ~evict_p:0.5 ~seed:Fun.id
       (fun ~step d ->
         List.iter (fun v -> d.b.enqueue ~tid:0 v) [ 1; 2 ];
         let t () =
           d.b.enqueue ~tid:0 3;
           ignore (d.b.dequeue ~tid:0)
         in
         ( [ t ],
           fun _ -> function
             | None -> ()
             | Some d ->
                 d.recover ();
                 let contents = d.b.to_list () in
                 let sorted = List.sort compare contents in
                 Alcotest.(check bool)
                   (Printf.sprintf "no duplicates after crash at %d" step)
                   true
                   (List.sort_uniq compare sorted = sorted);
                 (* 2 must still be present unless dequeued... 1 is the
                    only possibly-dequeued value; 3 present only if its
                    enqueue stuck. *)
                 Alcotest.(check bool) "2 never lost" true (List.mem 2 contents) ))

let test_durable_recovery_publishes_pending_dequeue () =
  (* Find a crash point where the dequeue marked the node but the value
     was not yet returned: recovery must publish it in returnedValues. *)
  let observed_published = ref false in
  ignore
  @@ sweep_crashes ~setup:durable_setup ~heap:dur_heap ~evict_p:1.0 ~seed:Fun.id
       (fun ~step:_ d ->
         d.b.enqueue ~tid:0 7;
         ( [ (fun () -> ignore (d.b.dequeue ~tid:0)) ],
           fun _ -> function
             | None -> ()
             | Some d -> (
                 d.recover ();
                 match d.returned_value ~tid:0 with
                 | Some 7 ->
                     observed_published := true;
                     Alcotest.check int_list "value consumed" [] (d.b.to_list ())
                 | Some v when v = Queue_intf.empty_value ->
                     Alcotest.fail "queue was not empty"
                 | Some v -> Alcotest.failf "unexpected returned value %d" v
                 | None ->
                     Alcotest.check int_list "value still queued" [ 7 ]
                       (d.b.to_list ())) ));
  Alcotest.(check bool) "some crash point exercised publication" true
    !observed_published

(* ------------------------------ log queue ----------------------------- *)

let make_log ~nthreads ~capacity = make_queue `Log ~nthreads ~capacity ()

let bq (l : dq) : bq =
  {
    heap = l.heap;
    enqueue = l.enqueue;
    dequeue = l.dequeue;
    to_list = l.to_list;
  }

let test_log_fifo () = fifo_smoke (bq (make_log ~nthreads:2 ~capacity:64))

let test_log_concurrent () =
  for seed = 1 to 15 do
    concurrency_conservation
      (bq (make_log ~nthreads:3 ~capacity:256))
      ~nthreads:3 ~seed
  done

let test_log_detectable_lifecycle () =
  let l = make_log ~nthreads:2 ~capacity:64 in
  Alcotest.check resolved "initially nothing" Queue_intf.Nothing
    (l.resolve ~tid:0);
  l.prep_enqueue ~tid:0 11;
  Alcotest.check resolved "enq pending" (Queue_intf.Enq_pending 11)
    (l.resolve ~tid:0);
  l.exec_enqueue ~tid:0;
  Alcotest.check resolved "enq done" (Queue_intf.Enq_done 11) (l.resolve ~tid:0);
  l.prep_dequeue ~tid:0;
  Alcotest.check resolved "deq pending" Queue_intf.Deq_pending (l.resolve ~tid:0);
  Alcotest.(check int) "dequeues" 11 (l.exec_dequeue ~tid:0);
  Alcotest.check resolved "deq done" (Queue_intf.Deq_done 11) (l.resolve ~tid:0);
  l.prep_dequeue ~tid:1;
  Alcotest.(check int) "empty" Queue_intf.empty_value (l.exec_dequeue ~tid:1);
  Alcotest.check resolved "deq empty" Queue_intf.Deq_empty (l.resolve ~tid:1)

(* The log queue's world, for a crash at every step of one detectable
   operation, restarting step [s] with seed [s]. *)
let log = [ ("log", Trial.queue ~policy:Eager `Log) ]

let test_log_crash_detectability_enqueue =
  sweep (28, 27) log
    (queue_program ~base:[] Specs.Queue.[ Enqueue 5 ])
    ~evictions:[ 0.0 ] ~seed:Fun.id

let test_log_crash_detectability_dequeue =
  sweep (21, 20) log
    (queue_program ~base:[ 1; 2 ] Specs.Queue.[ Dequeue ])
    ~evictions:[ 1.0 ] ~seed:Fun.id

let suite =
  [
    Alcotest.test_case "ms: fifo" `Quick test_ms_fifo;
    Alcotest.test_case "ms: concurrent conservation" `Quick test_ms_concurrent;
    Alcotest.test_case "ms: node recycling" `Quick test_ms_recycles;
    Alcotest.test_case "ms: no persistence instructions" `Quick
      test_ms_uses_no_flushes;
    Alcotest.test_case "durable: fifo" `Quick test_durable_fifo;
    Alcotest.test_case "durable: concurrent conservation" `Quick
      test_durable_concurrent;
    Alcotest.test_case "durable: crash preserves contents" `Quick
      test_durable_crash_preserves_contents;
    Alcotest.test_case "durable: recovery publishes pending dequeue" `Quick
      test_durable_recovery_publishes_pending_dequeue;
    Alcotest.test_case "log: fifo" `Quick test_log_fifo;
    Alcotest.test_case "log: concurrent conservation" `Quick test_log_concurrent;
    Alcotest.test_case "log: detectable lifecycle" `Quick
      test_log_detectable_lifecycle;
    Alcotest.test_case "log: crash detectability (enqueue)" `Quick
      test_log_crash_detectability_enqueue;
    Alcotest.test_case "log: crash detectability (dequeue)" `Quick
      test_log_crash_detectability_dequeue;
  ]
