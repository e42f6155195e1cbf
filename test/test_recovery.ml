(** Whole-system recovery: the node pool's crash rebuild partitions
    [1 .. capacity] exactly (unit + QCheck), alloc/free intents follow
    the log-then-link discipline (the WAL record is durable before the
    node changes), [Recovery.reattach] brings a crashed system back
    with zero leaked nodes, and [fsck] refuses a deliberately
    corrupted log. *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Wal = Dssq_pmem.Wal
module Recovery = Dssq_core.Recovery
module Queue_intf = Dssq_core.Queue_intf

(* --------------------- node-pool crash rebuild ------------------------ *)

let test_rebuild_partitions () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Pool = Dssq_core.Node_pool.Make (M) in
  let p = Pool.create ~capacity:16 ~nthreads:2 () in
  (* allocate a few, "lose" the volatile free lists in a crash, rebuild
     keeping exactly the allocated set *)
  let kept = List.init 5 (fun i -> Pool.alloc p ~tid:(i mod 2) ~value:i) in
  let keep i = List.mem i kept in
  Pool.rebuild_free_lists p ~keep;
  let a = Pool.audit p ~keep in
  Alcotest.(check (list int)) "no leaks" [] a.Dssq_core.Node_pool.leaked;
  Alcotest.(check (list int)) "no duals" [] a.Dssq_core.Node_pool.dual;
  Alcotest.(check int) "kept" 5 a.Dssq_core.Node_pool.kept_nodes;
  Alcotest.(check int) "free" 11 a.Dssq_core.Node_pool.free_nodes

(* Any keep set whatsoever: the rebuilt free lists and the kept set
   partition [1 .. capacity] exactly — no node leaked, none in two
   places. *)
let prop_rebuild_partitions =
  QCheck.Test.make ~count:200
    ~name:"node pool: rebuilt free lists partition 1..capacity"
    QCheck.(pair (int_range 1 48) (list_of_size Gen.(int_range 0 64) bool))
    (fun (capacity, keep_bits) ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module Pool = Dssq_core.Node_pool.Make (M) in
      let p = Pool.create ~capacity ~nthreads:3 () in
      let keep i = i <= List.length keep_bits && List.nth keep_bits (i - 1) in
      Pool.rebuild_free_lists p ~keep;
      let a = Pool.audit p ~keep in
      a.Dssq_core.Node_pool.leaked = []
      && a.Dssq_core.Node_pool.dual = []
      && a.Dssq_core.Node_pool.kept_nodes + a.Dssq_core.Node_pool.free_nodes
         = capacity)

(* ------------------------- log-then-link ------------------------------ *)

let test_log_then_link () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Pool = Dssq_core.Node_pool.Make (M) in
  let wal = Pool.Wal.create ~lanes:2 ~lane_capacity:16 () in
  let p = Pool.create ~wal ~pool_id:7 ~capacity:8 ~nthreads:2 () in
  let n1 = Pool.alloc p ~tid:0 ~value:41 in
  let n2 = Pool.alloc p ~tid:1 ~value:42 in
  Pool.free p ~tid:1 n2;
  Alcotest.(check int) "three intents logged" 3 (Pool.Wal.appended wal);
  let records, torn = Pool.Wal.replay wal in
  Alcotest.(check int) "no torn records" 0 torn;
  Alcotest.(check (list (pair int (pair int int))))
    "alloc/free intents, node and pool id as payload"
    [
      (Wal.Codec.kind_alloc, (n1, 7));
      (Wal.Codec.kind_alloc, (n2, 7));
      (Wal.Codec.kind_free, (n2, 7));
    ]
    (List.map (fun r -> (r.Wal.r_kind, (r.Wal.r_a, r.Wal.r_b))) records)

(* ---------------------- system-level reattach ------------------------- *)

(* A dss-queue rooted in a recovery system: one world, set up the same
   way every time.  A crash restarts cold, into a fresh one. *)
let queue_system ?reclaim ~nthreads ~lane_capacity ~init_nodes ~capacity () =
  let heap = Heap.create ~line_size:8 () in
  let (module M) = Sim.memory heap in
  let module R = Dssq_workload.Registry.Make (M) in
  let sys = R.Sys.create ~nthreads ~wal_lane_capacity:lane_capacity () in
  let ops =
    R.setup ~system:sys ~mk:"dss-queue" ~init_nodes
      (Queue_intf.config ?reclaim ~nthreads ~capacity ())
  in
  Heap.log_persists heap;
  (heap, ops, (fun () -> R.Sys.reattach sys), fun () -> R.Sys.fsck sys)

(* A crashed dss-queue comes back through the one system entry point:
   WAL replayed, root directory re-attached, recover run, audit clean. *)
let test_reattach_end_to_end () =
  let world =
    queue_system ~nthreads:1 ~lane_capacity:128 ~init_nodes:2 ~capacity:64
  in
  let live, ops, _, _ = world () in
  for i = 1 to 20 do
    ops.Queue_intf.d_enqueue ~tid:0 (100 + i);
    if i mod 2 = 0 then ignore (ops.Queue_intf.d_dequeue ~tid:0)
  done;
  let heap, ops, reattach, _ = world () in
  Sim.restart live ~into:heap ~evict_p:0.5 ~seed:3;
  let rep = reattach () in
  Alcotest.(check int) "zero leaked nodes" 0 rep.Recovery.leaked_total;
  Alcotest.(check int) "one root attached" 1 rep.Recovery.roots_attached;
  Alcotest.(check (list string))
    "object recovered" [ "dss-queue" ]
    (List.map (fun o -> o.Recovery.o_name) rep.Recovery.objects);
  if rep.Recovery.replayed <= 0 then
    Alcotest.failf "expected replayed WAL records, got %d"
      rep.Recovery.replayed;
  (* reattach truncated the log: a fresh crash replays only new intents *)
  ops.Queue_intf.d_enqueue ~tid:0 999;
  let heap', ops, reattach, _ = world () in
  Sim.restart heap ~into:heap' ~evict_p:0.5 ~seed:4;
  let rep2 = reattach () in
  Alcotest.(check int) "zero leaks after second crash" 0
    rep2.Recovery.leaked_total;
  if rep2.Recovery.replayed >= rep.Recovery.replayed then
    Alcotest.failf "log not truncated: %d records replayed after checkpoint"
      rep2.Recovery.replayed;
  (* and the queue still works *)
  ops.Queue_intf.enqueue ~tid:0 7;
  let rec drain acc =
    match ops.Queue_intf.dequeue ~tid:0 with
    | v when v = Queue_intf.empty_value -> List.rev acc
    | v -> drain (v :: acc)
  in
  let drained = drain [] in
  if not (List.mem 7 drained) then
    Alcotest.failf "post-recovery enqueue lost (drained %d values)"
      (List.length drained);
  Alcotest.(check bool) "999 survived both crashes" true (List.mem 999 drained)

(* Random programs: whatever the pre-crash history, reattach reports
   zero leaks, every drained value was enqueued, and no value is
   dequeued twice. *)
let prop_reattach_no_leaks =
  QCheck.Test.make ~count:60 ~name:"recovery: random program, crash, 0 leaks"
    QCheck.(
      pair (int_range 0 1000)
        (make
           ~print:(fun ops ->
             String.concat ""
               (List.map (function true -> "E" | false -> "D") ops))
           Gen.(list_size (int_range 1 40) bool)))
    (fun (seed, prog) ->
      let world =
        queue_system ~nthreads:1 ~lane_capacity:256 ~init_nodes:0 ~capacity:64
      in
      let live, ops, _, _ = world () in
      let enqueued = ref [] in
      let dequeued = ref [] in
      let next = ref 0 in
      List.iter
        (fun enq ->
          if enq then begin
            incr next;
            enqueued := !next :: !enqueued;
            ops.Queue_intf.d_enqueue ~tid:0 !next
          end
          else
            match ops.Queue_intf.d_dequeue ~tid:0 with
            | v when v = Queue_intf.empty_value -> ()
            | v -> dequeued := v :: !dequeued)
        prog;
      let heap, ops, reattach, _ = world () in
      Sim.restart live ~into:heap ~evict_p:0.5 ~seed;
      let rep = reattach () in
      let rec drain acc =
        match ops.Queue_intf.dequeue ~tid:0 with
        | v when v = Queue_intf.empty_value -> acc
        | v -> drain (v :: acc)
      in
      let post = drain [] in
      let seen = !dequeued @ post in
      rep.Recovery.leaked_total = 0
      && List.for_all (fun v -> List.mem v !enqueued) post
      && List.length (List.sort_uniq compare seen) = List.length seen)

(* A node that one thread allocates and another frees cancels in the
   in-flight count: the free is logged on the freeing thread's lane, so
   the count must key on the node, not on the lane.  The count is
   fsck's: reattach does recovery work only. *)
let test_in_flight_cross_thread_free () =
  let world =
    queue_system ~reclaim:true ~nthreads:2 ~lane_capacity:128 ~init_nodes:0
      ~capacity:32
  in
  let live, ops, _, _ = world () in
  for i = 1 to 24 do
    ops.Queue_intf.enqueue ~tid:0 i;
    ignore (ops.Queue_intf.dequeue ~tid:1 : int)
  done;
  (* Every node outside the free lists was allocated through the log
     and never freed: the sentinel, and one dequeued node whose
     retirement is still pending.  Before keying on the node, the
     23 frees t1 logged cancelled none of t0's 25 intents. *)
  let outside = 32 - List.assoc "pool_free" (ops.Queue_intf.stats ()) in
  Alcotest.(check int) "nodes outside the free lists" 2 outside;
  let heap, _, _, fsck = world () in
  Sim.restart live ~into:heap ~evict_p:0. ~seed:1;
  match fsck () with
  | Error e -> Alcotest.failf "fsck of a clean crash failed: %s" e
  | Ok r ->
      Alcotest.(check int) "zero leaks" 0 r.Recovery.recovery.leaked_total;
      Alcotest.(check int) "exact in-flight count" outside r.Recovery.in_flight

(* The free-list rebuild stores a word only when it differs from its
   reset value, but flushes it either way.  Durable either way: after
   crash -> reattach -> a second crash that evicts nothing, every free
   node still reads deq_tid = -1 and next = NULL, and the second
   reattach leaks nothing — for the queue and the stack under every
   persist policy. *)
let test_rebuild_elision_durable () =
  let module Policy = Dssq_memory.Memory_intf.Policy in
  let run ~obj policy =
    let what = obj ^ "/" ^ Policy.to_string policy in
    let combine = policy = Policy.Combine in
    (* One world; each crash restarts cold, into a fresh one. *)
    let module World (M : Dssq_memory.Memory_intf.S) = struct
      module Sys = Recovery.Make (M)
      module Q = Dssq_core.Dss_queue.Make (M)
      module S = Dssq_core.Dss_stack.Make (M)

      let sys = Sys.create ~nthreads:2 ~wal_lane_capacity:128 ()
      let wal = Sys.wal sys and pool_id = Sys.fresh_pool_id sys

      (* the pool, the two clients' pairs, recover and audit *)
      let pool, client, recover, audit =
        if obj = "queue" then
          let q = Q.create ~wal ~pool_id ~combine ~nthreads:2 ~capacity:24 () in
          for v = 1 to 6 do
            Q.enqueue q ~tid:0 v
          done;
          ( Q.pool q,
            (fun tid v ->
              Q.prep_enqueue q ~tid v;
              Q.exec_enqueue q ~tid;
              Q.prep_dequeue q ~tid;
              ignore (Q.exec_dequeue q ~tid : int)),
            (fun () -> Q.recover q),
            fun () -> Q.audit q )
        else
          let s = S.create ~wal ~pool_id ~combine ~nthreads:2 ~capacity:24 () in
          for v = 1 to 6 do
            S.push s ~tid:0 v
          done;
          ( S.pool s,
            (fun tid v ->
              S.prep_push s ~tid v;
              S.exec_push s ~tid;
              S.prep_pop s ~tid;
              ignore (S.exec_pop s ~tid : int)),
            (fun () -> S.recover s),
            fun () -> S.audit s )

      let () =
        ignore
          (Sys.register sys ~name:obj
             ~audit:(fun () -> Recovery.audit_of_pool (audit ()))
             recover
            : int)
    end in
    let live = Heap.create ~line_size:8 ~policy () in
    let (module L) = Sim.memory live in
    let module L = World (L) in
    Heap.log_persists live;
    let threads =
      List.init 2 (fun tid () ->
          for i = 1 to 4 do
            L.client tid ((10 * tid) + i)
          done)
    in
    ignore
      (Sim.run live ~policy:(Sim.Random_seed 3) ~crash:(Sim.Crash_at_step 90)
         ~threads
        : Sim.outcome);
    let heap = Heap.create ~line_size:8 ~policy () in
    let (module B) = Sim.memory heap in
    let module B = World (B) in
    Sim.restart live ~into:heap ~evict_p:0.5 ~seed:5;
    let rep = B.Sys.reattach B.sys in
    Alcotest.(check int) (what ^ ": zero leaks") 0 rep.Recovery.leaked_total;
    let free =
      Array.fold_left
        (fun acc l -> Dssq_memory.Memory_intf.Padded.get l @ acc)
        [] B.pool.B.Q.Pool.free_lists
    in
    if free = [] then Alcotest.failf "%s: no free nodes to check" what;
    let heap' = Heap.create ~line_size:8 ~policy () in
    let (module M) = Sim.memory heap' in
    let module C = World (M) in
    Sim.restart heap ~into:heap' ~evict_p:0. ~seed:0;
    List.iter
      (fun i ->
        Alcotest.(check int)
          (Printf.sprintf "%s: node %d persisted deq_tid" what i)
          (-1)
          (M.read (C.Q.Pool.deq_tid C.pool i));
        Alcotest.(check int)
          (Printf.sprintf "%s: node %d persisted next" what i)
          Dssq_core.Tagged.null
          (M.read (C.Q.Pool.next C.pool i)))
      free;
    let rep2 = C.Sys.reattach C.sys in
    Alcotest.(check int) (what ^ ": zero leaks after the second crash") 0
      rep2.Recovery.leaked_total
  in
  List.iter
    (fun policy -> List.iter (fun obj -> run ~obj policy) [ "queue"; "stack" ])
    Policy.all

(* ------------------------------ fsck ---------------------------------- *)

let test_fsck_rejects_corruption () =
  let heap = Heap.create ~line_size:8 () in
  let (module M) = Sim.memory heap in
  let module R = Dssq_workload.Registry.Make (M) in
  let sys = R.Sys.create ~nthreads:1 ~wal_lane_capacity:64 () in
  let ops =
    R.setup ~system:sys ~mk:"dss-queue" ~init_nodes:0
      (Queue_intf.config ~nthreads:1 ~capacity:32 ())
  in
  for i = 1 to 8 do
    ops.Queue_intf.d_enqueue ~tid:0 i
  done;
  (* clean heap: fsck passes and reports real numbers *)
  (match R.Sys.fsck sys with
  | Ok { Recovery.recovery = rep; _ } ->
      if rep.Recovery.leaked_total <> 0 then
        Alcotest.failf "clean fsck reports %d leaks" rep.Recovery.leaked_total
  | Error e -> Alcotest.failf "clean fsck failed: %s" e);
  (* flip one payload bit of a committed record: fsck must refuse *)
  R.Sys.Wal.corrupt_word (R.Sys.wal sys) ~lane:0 ~slot:1 ~word:1
    ~f:(fun a -> a lxor (1 lsl 5));
  match R.Sys.fsck sys with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fsck accepted a bit-flipped log"

(* ------------------------------ roots --------------------------------- *)

let test_roots_directory () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Roots = Dssq_pmem.Roots.Make (M) in
  let r = Roots.create ~capacity:4 () in
  let i0 = Roots.register r ~name:"queue" ~value:10 in
  let i1 = Roots.register r ~name:"stack" ~value:20 in
  Alcotest.(check (option int)) "lookup queue" (Some 10)
    (Roots.lookup r "queue");
  Alcotest.(check (option int)) "lookup stack" (Some 20)
    (Roots.lookup r "stack");
  Alcotest.(check (option int)) "lookup missing" None (Roots.lookup r "heap");
  (* re-registering a name updates in place *)
  let i0' = Roots.register r ~name:"queue" ~value:11 in
  Alcotest.(check int) "update reuses the entry" i0 i0';
  Alcotest.(check (option int)) "updated value" (Some 11)
    (Roots.lookup r "queue");
  ignore i1;
  match Roots.verify r with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "verify counts %d entries" n
  | Error e -> Alcotest.failf "verify failed: %s" e

let suite =
  [
    Alcotest.test_case "pool rebuild partitions 1..capacity" `Quick
      test_rebuild_partitions;
    Alcotest.test_case "alloc/free log before linking" `Quick
      test_log_then_link;
    Alcotest.test_case "reattach end to end, zero leaks" `Quick
      test_reattach_end_to_end;
    Alcotest.test_case "in-flight count cancels a cross-thread free" `Quick
      test_in_flight_cross_thread_free;
    Alcotest.test_case "rebuild's skipped stores are durable" `Quick
      test_rebuild_elision_durable;
    Alcotest.test_case "fsck rejects a corrupted log" `Quick
      test_fsck_rejects_corruption;
    Alcotest.test_case "root directory register/lookup/update" `Quick
      test_roots_directory;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_rebuild_partitions; prop_reattach_no_leaks ]
