(** Tests for the effects-based scheduler: interleaving control,
    determinism, crash injection, and the exhaustive explorer. *)

open Helpers
module Machine = Dssq_sim.Machine

let with_mem () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  (heap, (module M : Dssq_memory.Memory_intf.S))

(* [Heap]'s own operations as a MEMORY, the reference [Sim.memory]'s
   direct mode must match. *)
let heap_memory heap : (module Dssq_memory.Memory_intf.S) =
  (module struct
    type 'a cell = 'a Dssq_pmem.Cell.t

    let alloc ?name ?placement v = Heap.alloc heap ?name ?placement v
    let alloc_block ?name vs = Heap.alloc_block heap ?name vs
    let read c = Heap.read heap c
    let write c v = Heap.write heap c v
    let cas c ~expected ~desired = Heap.cas heap c ~expected ~desired
    let flush c = Heap.flush heap c
    let fence () = Heap.fence heap
    let drain () = Heap.drain heap
  end)

(* Outside [run], [Sim.memory] is the heap itself: one sequence through
   it and the same sequence straight through [Heap] leave identical
   counters, cells and persist-event streams (names included), at both
   line sizes and under every policy. *)
let test_direct_mode_outside_run () =
  let module PE = Dssq_memory.Persist_event in
  let module Cell = Dssq_pmem.Cell in
  let run ~line_size ~policy memory =
    let heap = Heap.create ~line_size ~policy () in
    let (module M : Dssq_memory.Memory_intf.S) = memory heap in
    let events = ref [] in
    let sub = PE.subscribe (fun ev -> events := ev :: !events) in
    let cells =
      Fun.protect
        ~finally:(fun () -> PE.unsubscribe sub)
        (fun () ->
          let named = M.alloc_block ~name:(fun () -> "node") [ 1; 2; 3 ] in
          let unnamed = M.alloc_block [ 4; 5 ] in
          let a = List.hd named and b = List.nth named 2 in
          M.write a 10;
          Alcotest.(check bool) "cas hits" true (M.cas b ~expected:3 ~desired:30);
          Alcotest.(check bool) "cas misses" false (M.cas b ~expected:3 ~desired:31);
          M.flush a;
          M.flush (List.hd unnamed);
          Alcotest.(check int) "read" 30 (M.read b);
          M.drain ();
          named @ unnamed)
    in
    let counters = Heap.counters heap in
    (* Cell state: id, name and dirtiness from the line table; volatile
       values by direct reads, persisted ones by reads after a crash that
       evicts nothing. *)
    let tags =
      List.init (Heap.line_count heap) (Heap.line heap)
      |> List.concat_map (Heap.members heap)
      |> List.map (fun (Cell.Packed c) -> (c.Cell.id, Cell.name c, c.Cell.dirty))
    in
    let volatile = List.map M.read cells in
    Heap.crash_lines heap ~evict:(fun _ -> false);
    (counters, tags, volatile, List.map M.read cells, List.rev !events)
  in
  List.iter
    (fun line_size ->
      List.iter
        (fun policy ->
          let sim = run ~line_size ~policy Sim.memory
          and direct = run ~line_size ~policy heap_memory in
          let _, tags, _, _, _ = direct in
          Alcotest.(check bool) "block elements named" true
            (List.exists (fun (_, name, _) -> name = "node[2]") tags);
          Alcotest.(check bool)
            (Printf.sprintf "Sim.memory = Heap, line size %d, %s" line_size
               (Dssq_memory.Memory_intf.Policy.to_string policy))
            true (sim = direct))
        Dssq_memory.Memory_intf.Policy.all)
    [ 1; 8 ]

let test_threads_complete () =
  let heap, (module M) = with_mem () in
  let cells = Array.init 3 (fun _ -> M.alloc 0) in
  let body i () = M.write cells.(i) (i + 1) in
  let outcome = Sim.run heap ~threads:[ body 0; body 1; body 2 ] in
  Alcotest.(check bool) "not crashed" false outcome.Sim.crashed;
  Array.iteri
    (fun i c -> Alcotest.(check int) "each thread ran" (i + 1) (M.read c))
    cells

let test_interleaving_lost_update () =
  (* Classic lost update: both threads read 0, then both write 1.  A
     schedule that runs threads to completion one-by-one yields 2. *)
  let run_with policy =
    let heap, (module M) = with_mem () in
    let c = M.alloc 0 in
    let body () =
      let v = M.read c in
      M.write c (v + 1)
    in
    ignore (Sim.run heap ~policy ~threads:[ body; body ]);
    M.read c
  in
  Alcotest.(check int) "round-robin interleaves reads first" 1
    (run_with Sim.Round_robin);
  Alcotest.(check int) "scripted serial execution" 2
    (run_with (Sim.Script [| 0; 0; 0; 1; 1; 1 |]))

let test_random_policy_deterministic () =
  let run seed =
    let heap, (module M) = with_mem () in
    let c = M.alloc 0 in
    let body k () =
      for _ = 1 to 5 do
        M.write c ((M.read c * 10) + k)
      done
    in
    ignore (Sim.run heap ~policy:(Sim.Random_seed seed) ~threads:[ body 1; body 2 ]);
    M.read c
  in
  Alcotest.(check int) "same seed, same schedule" (run 7) (run 7);
  (* Different seeds should (for this scenario) give a different trace. *)
  let distinct = List.sort_uniq compare (List.init 10 run) in
  Alcotest.(check bool) "schedules vary with seed" true (List.length distinct > 1)

let test_cas_through_sim () =
  let heap, (module M) = with_mem () in
  let c = M.alloc 0 in
  let winners = ref 0 in
  let body () = if M.cas c ~expected:0 ~desired:1 then incr winners in
  ignore (Sim.run heap ~threads:[ body; body; body ]);
  Alcotest.(check int) "exactly one cas wins" 1 !winners

let test_crash_at_step () =
  let heap, (module M) = with_mem () in
  let c = M.alloc 0 in
  let body () =
    M.write c 1;
    M.flush c;
    M.write c 2;
    M.flush c
  in
  (* Steps: 0:start->write pending... crash before the second flush. *)
  let outcome = Sim.run heap ~crash:(Sim.Crash_at_step 3) ~threads:[ body ] in
  Alcotest.(check bool) "crashed" true outcome.Sim.crashed;
  Sim.apply_crash heap ~evict_p:0.0 ~seed:1;
  Alcotest.(check int) "only first write persisted" 1 (M.read c)

let test_crash_kills_all_threads () =
  let heap, (module M) = with_mem () in
  let c = M.alloc 0 in
  let body () =
    for _ = 1 to 100 do
      M.write c (M.read c + 1)
    done
  in
  let outcome = Sim.run heap ~crash:(Sim.Crash_at_step 10) ~threads:[ body; body ] in
  Alcotest.(check bool) "crashed" true outcome.Sim.crashed;
  Array.iter
    (fun r -> Alcotest.(check bool) "thread killed" true (r = None))
    outcome.Sim.results

let test_thread_exception_reported () =
  let heap, (module M) = with_mem () in
  ignore (module M : Dssq_memory.Memory_intf.S);
  let body () = failwith "boom" in
  let outcome = Sim.run heap ~threads:[ body ] in
  match outcome.Sim.results.(0) with
  | Some (Error (Failure msg)) -> Alcotest.(check string) "exn" "boom" msg
  | _ -> Alcotest.fail "expected thread failure to be captured"

let test_max_steps_guard () =
  let heap, (module M) = with_mem () in
  let c = M.alloc 0 in
  let body () =
    while M.read c = 0 do
      ()
    done
  in
  Alcotest.check_raises "livelock detected"
    (Failure "Sim.run: exceeded max_steps=100 (livelock?)") (fun () ->
      ignore (Sim.run heap ~max_steps:100 ~threads:[ body ]))

(* Pinned schedules: a fixed three-thread program in which thread 0
   finishes after one event, run under each policy and a probabilistic
   crash.  The log records which thread completed each memory event, so
   any change in how [Sim.run] selects the next thread changes the
   fingerprint. *)
let test_run_schedules_pinned () =
  let fingerprint ?crash policy =
    let heap, (module M) = with_mem () in
    let a = M.alloc 0 and b = M.alloc 0 in
    let log = Buffer.create 64 in
    let mark tid = Buffer.add_char log (Char.chr (Char.code '0' + tid)) in
    let t0 () =
      M.write a 1;
      mark 0
    in
    let t1 () =
      for _ = 1 to 4 do
        let v = M.read a in
        mark 1;
        ignore (M.cas b ~expected:v ~desired:(v + 1));
        mark 1
      done
    in
    let t2 () =
      for i = 1 to 3 do
        M.write b (10 * i);
        mark 2;
        M.flush b;
        mark 2;
        M.fence ();
        mark 2
      done
    in
    let o = Sim.run heap ~policy ?crash ~threads:[ t0; t1; t2 ] in
    let result = function
      | None -> "killed"
      | Some (Ok ()) -> "ok"
      | Some (Error e) -> Printexc.to_string e
    in
    let c = Heap.counters heap in
    Printf.sprintf
      "steps=%d crashed=%b results=%s log=%s a=%d b=%d reads=%d writes=%d \
       cas=%d flushes=%d fences=%d"
      o.Sim.steps o.Sim.crashed
      (String.concat "," (Array.to_list (Array.map result o.Sim.results)))
      (Buffer.contents log) (M.read a) (M.read b) c.reads c.writes c.cases
      c.flushes c.fences
  in
  let check name expected got = Alcotest.(check string) name expected got in
  check "round robin"
    "steps=21 crashed=false results=ok,ok,ok log=012121212121212122 a=1 b=30 \
     reads=4 writes=4 cas=4 flushes=3 fences=3"
    (fingerprint Sim.Round_robin);
  check "random seed 42"
    "steps=21 crashed=false results=ok,ok,ok log=111011112221222222 a=1 b=30 \
     reads=4 writes=4 cas=4 flushes=3 fences=3"
    (fingerprint (Sim.Random_seed 42));
  (* Thread 0 has finished by the third entry; the script then falls
     back to round-robin for that step. *)
  check "script"
    "steps=21 crashed=false results=ok,ok,ok log=012212121212121212 a=1 b=30 \
     reads=4 writes=4 cas=4 flushes=3 fences=3"
    (fingerprint (Sim.Script [| 2; 0; 0; 0; 1; 2; 2 |]));
  check "crash prob"
    "steps=12 crashed=true results=ok,killed,killed log=111011112 a=1 b=10 \
     reads=4 writes=2 cas=3 flushes=0 fences=0"
    (fingerprint ~crash:(Sim.Crash_prob (0.08, 3)) (Sim.Random_seed 42))

let test_explore_counts_interleavings () =
  (* Two threads, one memory step each => exactly 2 schedules. *)
  let executions =
    (Explore.run
       (Explore.make
         ~setup:(fun () ->
           let heap, (module M) = with_mem () in
           let c = M.alloc 0 in
           ignore c;
           {
             Explore.history = Explore.no_history;
             ctx = ();
             heap;
             threads = [ (fun () -> M.write c 1); (fun () -> M.write c 2) ];
           })
          ~check:(fun () _ ~crashed:_ -> ())
          ()))
      .Explore.executions
  in
  (* Each thread takes 2 steps (start-run-to-first-op, then the op); the
     interleavings of 2x2 steps = C(4,2) = 6.  Both writes hit the same
     cell, so they conflict and sleep-set reduction prunes nothing. *)
  Alcotest.(check int) "interleaving count" 6 executions

let test_explore_finds_lost_update () =
  (* The explorer must visit at least one schedule where the increments
     collide and one where they do not. *)
  let outcomes = ref [] in
  ignore
    (Explore.run
       (Explore.make
          ~setup:(fun () ->
            let heap, (module M) = with_mem () in
            let c = M.alloc 0 in
            let body () = M.write c (M.read c + 1) in
            {
              Explore.history = Explore.no_history;
              ctx = (fun () -> M.read c);
              heap;
              threads = [ body; body ];
            })
          ~check:(fun get _heap ~crashed:_ -> outcomes := get () :: !outcomes)
          ()));
  let distinct = List.sort_uniq compare !outcomes in
  Alcotest.(check (list int)) "both final values observed" [ 1; 2 ] distinct

let test_explore_crashes_branch () =
  let crashes = ref 0 and completes = ref 0 in
  ignore
    (Explore.run
       (Explore.make ~crashes:true
          ~setup:(fun () ->
            let heap, (module M) = with_mem () in
            let c = M.alloc 0 in
            {
              Explore.history = Explore.no_history;
              ctx = ();
              heap;
              threads = [ (fun () -> M.write c 1) ];
            })
          ~check:(fun () _ ~crashed ->
            if crashed then incr crashes else incr completes)
          ()));
  Alcotest.(check bool) "some crashing branches" true (!crashes > 0);
  Alcotest.(check bool) "some complete branches" true (!completes > 0)

(* What each step did: the facts the throughput model prices and the
   explorer's skip reads.  Only the store and the write-back change what
   a crash could leave. *)
let test_step_record () =
  let heap = Heap.create ~line_size:8 () in
  let (module M) = Sim.memory heap in
  let c = M.alloc 0 in
  let m =
    Machine.create heap
      [
        (fun () ->
          ignore (M.read c);
          ignore (M.cas c ~expected:5 ~desired:6);
          M.flush c;
          M.fence ();
          M.write c 1;
          M.flush c);
      ]
  in
  let steps = ref [] in
  heap.Heap.in_sim <- true;
  while Machine.runnable m <> [] do
    Machine.step m 0;
    let l = Machine.last m in
    steps := (l.Machine.kind, l.Machine.line >= 0, l.Machine.changed) :: !steps
  done;
  heap.Heap.in_sim <- false;
  Alcotest.(check (list (triple string bool bool)))
    "kind, on a line, changed"
    [
      ("yield", false, false);
      ("read", true, false);
      ("cas", true, false);
      ("flush", true, false);
      ("fence", false, false);
      ("write", true, true);
      ("flush", true, true);
    ]
    (List.rev_map
       (fun (k, on_line, changed) ->
         ( (match k with
           | Dssq_sim.Sim_op.Read -> "read"
           | Write -> "write"
           | Cas -> "cas"
           | Flush -> "flush"
           | Drain -> "drain"
           | Fence -> "fence"
           | Yield -> "yield"),
           on_line,
           changed ))
       !steps)

let suite =
  [
    Alcotest.test_case "direct mode outside run" `Quick
      test_direct_mode_outside_run;
    Alcotest.test_case "threads run to completion" `Quick test_threads_complete;
    Alcotest.test_case "interleaving produces lost update" `Quick
      test_interleaving_lost_update;
    Alcotest.test_case "random policy is deterministic per seed" `Quick
      test_random_policy_deterministic;
    Alcotest.test_case "cas atomicity across threads" `Quick
      test_cas_through_sim;
    Alcotest.test_case "crash at step loses unflushed state" `Quick
      test_crash_at_step;
    Alcotest.test_case "crash kills all threads" `Quick
      test_crash_kills_all_threads;
    Alcotest.test_case "thread exceptions are captured" `Quick
      test_thread_exception_reported;
    Alcotest.test_case "max_steps livelock guard" `Quick test_max_steps_guard;
    Alcotest.test_case "run: pinned schedules per policy" `Quick
      test_run_schedules_pinned;
    Alcotest.test_case "explore: interleaving count" `Quick
      test_explore_counts_interleavings;
    Alcotest.test_case "explore: finds lost update" `Quick
      test_explore_finds_lost_update;
    Alcotest.test_case "explore: crash branches" `Quick
      test_explore_crashes_branch;
    Alcotest.test_case "step record: kind, line and what changed" `Quick
      test_step_record;
  ]
