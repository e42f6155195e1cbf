(** Tests for the detectable stack ([Dss_stack]): LIFO semantics,
    detectability lifecycle, concurrency against [D<stack>], and crash
    sweeps with exactly-once retry — the DSS-queue test plan replayed on
    a different type, evidencing that the methodology generalizes. *)

open Helpers
module St = Specs.Stack

type ds = {
  heap : Heap.t;
  obj : (St.op, St.response) Dssq_core.Detectable_intf.adapter;
  push : tid:int -> int -> unit;
  pop : tid:int -> int;
  prep_push : tid:int -> int -> unit;
  exec_push : tid:int -> unit;
  prep_pop : tid:int -> unit;
  exec_pop : tid:int -> int;
  resolve : tid:int -> Queue_intf.resolved;
  to_list : unit -> int list;
}

let make ?(reclaim = true) ~nthreads ~capacity () : ds =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module S = Dssq_core.Dss_stack.Make (M) in
  let s = S.create ~reclaim ~nthreads ~capacity () in
  Heap.log_persists heap;
  {
    heap;
    obj = Queue_intf.stack_adapter (module S) s;
    push = (fun ~tid v -> S.push s ~tid v);
    pop = (fun ~tid -> S.pop s ~tid);
    prep_push = (fun ~tid v -> S.prep_push s ~tid v);
    exec_push = (fun ~tid -> S.exec_push s ~tid);
    prep_pop = (fun ~tid -> S.prep_pop s ~tid);
    exec_pop = (fun ~tid -> S.exec_pop s ~tid);
    resolve = (fun ~tid -> S.resolve s ~tid);
    to_list = (fun () -> S.to_list s);
  }

let test_lifo () =
  let s = make ~nthreads:2 ~capacity:64 () in
  List.iter (fun v -> s.push ~tid:0 v) [ 1; 2; 3 ];
  Alcotest.check int_list "contents" [ 3; 2; 1 ] (s.to_list ());
  Alcotest.(check int) "pop 3" 3 (s.pop ~tid:1);
  Alcotest.(check int) "pop 2" 2 (s.pop ~tid:0);
  s.push ~tid:1 4;
  Alcotest.(check int) "pop 4" 4 (s.pop ~tid:0);
  Alcotest.(check int) "pop 1" 1 (s.pop ~tid:0);
  Alcotest.(check int) "empty" Queue_intf.empty_value (s.pop ~tid:0)

let test_detectable_lifecycle () =
  let s = make ~nthreads:2 ~capacity:64 () in
  Alcotest.check resolved "nothing" Queue_intf.Nothing (s.resolve ~tid:0);
  s.prep_push ~tid:0 7;
  Alcotest.check resolved "push pending" (Queue_intf.Enq_pending 7)
    (s.resolve ~tid:0);
  s.exec_push ~tid:0;
  Alcotest.check resolved "push done" (Queue_intf.Enq_done 7) (s.resolve ~tid:0);
  s.prep_pop ~tid:1;
  Alcotest.check resolved "pop pending" Queue_intf.Deq_pending (s.resolve ~tid:1);
  Alcotest.(check int) "pops the value" 7 (s.exec_pop ~tid:1);
  Alcotest.check resolved "pop done" (Queue_intf.Deq_done 7) (s.resolve ~tid:1);
  s.prep_pop ~tid:0;
  Alcotest.(check int) "empty pop" Queue_intf.empty_value (s.exec_pop ~tid:0);
  Alcotest.check resolved "pop empty" Queue_intf.Deq_empty (s.resolve ~tid:0)

let test_nondet_pop_marking () =
  let s = make ~nthreads:1 ~capacity:64 () in
  s.push ~tid:0 5;
  s.prep_pop ~tid:0;
  (* A non-detectable pop claims the node the prepared pop targeted. *)
  Alcotest.(check int) "nondet pop" 5 (s.pop ~tid:0);
  Alcotest.check resolved "detectable pop still pending" Queue_intf.Deq_pending
    (s.resolve ~tid:0)

let test_recycling () =
  let s = make ~nthreads:1 ~capacity:32 () in
  for i = 1 to 400 do
    s.prep_push ~tid:0 i;
    s.exec_push ~tid:0;
    s.prep_pop ~tid:0;
    Alcotest.(check int) "lifo under recycling" i (s.exec_pop ~tid:0)
  done

(* ----------------------- concurrent lincheck ----------------------- *)

let dstack ~nthreads = Dss_spec.make ~nthreads (St.spec ())

let test_concurrent_lincheck () =
  for seed = 1 to 25 do
    let s = make ~nthreads:2 ~capacity:128 () in
    let rec_ = Recorder.create () in
    let prog ~tid () =
      Scenarios.prep rec_ s.obj ~tid (St.Push (10 + tid));
      Scenarios.exec rec_ s.obj ~tid (St.Push (10 + tid));
      Scenarios.prep rec_ s.obj ~tid St.Pop;
      Scenarios.exec rec_ s.obj ~tid St.Pop;
      ignore (Scenarios.resolve rec_ s.obj ~tid)
    in
    let outcome =
      Sim.run s.heap ~policy:(Sim.Random_seed seed)
        ~threads:[ prog ~tid:0; prog ~tid:1 ]
    in
    Sim.check_thread_errors outcome;
    Oracle.assert_linearizable (dstack ~nthreads:2) (Recorder.history rec_)
  done

(* ------------------------- crash sweeps ---------------------------- *)

let world () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module S = Dssq_core.Dss_stack.Make (M) in
  let s = S.create ~nthreads:2 ~capacity:48 () in
  Heap.log_persists heap;
  {
    Trial.heap;
    obj = Queue_intf.stack_adapter (module S) s;
    recover = (fun () -> S.recover s);
  }

(* Thread 0 pushes [base], then preps and execs [op]; the stack is
   drained at the end.  Each eviction probability is swept, restarting
   step [s] with seed [seed0 + s]. *)
let sweep_stack expected ~seed0 ~base op () =
  let p : _ Trial.program =
    {
      spec = dstack ~nthreads:2;
      base = List.map (fun v -> St.Push v) base;
      threads = [ op ];
      observe = Drain (St.Pop, St.Empty);
    }
  in
  sweep expected [ ("stack", world) ] p ~evictions:[ 0.0; 1.0; 0.5 ]
    ~seed:(( + ) seed0) ()

let test_crash_sweep_push =
  sweep_stack (48, 45) ~seed0:7000 ~base:[ 90 ] (St.Push 5)

let test_crash_sweep_pop =
  sweep_stack (42, 39) ~seed0:8000 ~base:[ 1; 2; 3 ] St.Pop

let test_values_conserved_concurrent () =
  for seed = 1 to 15 do
    let nthreads = 3 in
    let s = make ~nthreads ~capacity:256 () in
    let popped = Array.make nthreads [] in
    let prog ~tid () =
      for i = 0 to 7 do
        s.push ~tid ((tid * 100) + i);
        let v = s.pop ~tid in
        if v <> Queue_intf.empty_value then popped.(tid) <- v :: popped.(tid)
      done
    in
    let outcome =
      Sim.run s.heap ~policy:(Sim.Random_seed seed)
        ~threads:(List.init nthreads (fun tid -> prog ~tid))
    in
    Sim.check_thread_errors outcome;
    let out = Array.to_list popped |> List.concat in
    let all = List.sort compare (out @ s.to_list ()) in
    let expected =
      List.sort compare
        (List.concat_map
           (fun tid -> List.init 8 (fun i -> (tid * 100) + i))
           [ 0; 1; 2 ])
    in
    Alcotest.check int_list "multiset conserved" expected all
  done

let suite =
  [
    Alcotest.test_case "lifo order" `Quick test_lifo;
    Alcotest.test_case "detectable lifecycle" `Quick test_detectable_lifecycle;
    Alcotest.test_case "non-detectable pop marking" `Quick
      test_nondet_pop_marking;
    Alcotest.test_case "node recycling" `Quick test_recycling;
    Alcotest.test_case "concurrent strictly linearizable" `Quick
      test_concurrent_lincheck;
    Alcotest.test_case "crash sweep: push (exactly once)" `Quick
      test_crash_sweep_push;
    Alcotest.test_case "crash sweep: pop (exactly once)" `Quick
      test_crash_sweep_pop;
    Alcotest.test_case "concurrent values conserved" `Quick
      test_values_conserved_concurrent;
  ]
