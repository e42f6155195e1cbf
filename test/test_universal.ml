(** Tests for the recoverable universal construction of D<T>: it must
    implement the DSS of any base type, linearizably, with trivial
    recovery (the persisted log is always a prefix). *)

open Helpers
module Reg = Specs.Register
module Cnt = Specs.Counter

type ('s, 'op, 'r) u = {
  heap : Heap.t;
  prep : tid:int -> 'op -> unit;
  exec : tid:int -> 'op -> 'r option;
  apply : tid:int -> 'op -> 'r option;
  resolve : tid:int -> 'op option * 'r option;
  length : unit -> int;
}

let make_u ~nthreads ~capacity spec =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module U = Dssq_universal.Universal.Make (M) in
  let u = U.create ~nthreads ~capacity spec in
  Heap.log_persists heap;
  {
    heap;
    prep = (fun ~tid op -> U.prep u ~tid op);
    exec = (fun ~tid op -> U.exec u ~tid op);
    apply = (fun ~tid op -> U.apply u ~tid op);
    resolve = (fun ~tid -> U.resolve u ~tid);
    length = (fun () -> U.length u);
  }

let test_register_lifecycle () =
  let u = make_u ~nthreads:2 ~capacity:64 (Reg.spec ()) in
  Alcotest.(check bool) "initially bottom" true (u.resolve ~tid:0 = (None, None));
  u.prep ~tid:0 (Reg.Write 5);
  Alcotest.(check bool) "prepared" true
    (u.resolve ~tid:0 = (Some (Reg.Write 5), None));
  Alcotest.(check bool) "exec returns OK" true
    (u.exec ~tid:0 (Reg.Write 5) = Some Reg.Ok);
  Alcotest.(check bool) "resolved done" true
    (u.resolve ~tid:0 = (Some (Reg.Write 5), Some Reg.Ok));
  Alcotest.(check bool) "read sees write" true
    (u.apply ~tid:1 Reg.Read = Some (Reg.Value 5))

let test_exec_without_prep_disabled () =
  let u = make_u ~nthreads:1 ~capacity:16 (Reg.spec ()) in
  Alcotest.(check bool) "exec without prep returns None" true
    (u.exec ~tid:0 (Reg.Write 1) = None);
  (* But the slot is consumed: the log records the attempt. *)
  Alcotest.(check bool) "attempt logged" true (u.length () >= 1)

let test_counter_many_threads () =
  let u = make_u ~nthreads:4 ~capacity:256 (Cnt.spec ()) in
  let program ~tid () =
    for _ = 1 to 5 do
      ignore (u.apply ~tid Cnt.Increment)
    done
  in
  let outcome =
    Sim.run u.heap ~policy:(Sim.Random_seed 3)
      ~threads:(List.init 4 (fun tid -> program ~tid))
  in
  Sim.check_thread_errors outcome;
  Alcotest.(check bool) "all increments counted" true
    (u.apply ~tid:0 Cnt.Get = Some (Cnt.Value 20))

let test_concurrent_detectable_ops () =
  for seed = 1 to 10 do
    let u = make_u ~nthreads:2 ~capacity:128 (Cnt.spec ()) in
    let program ~tid () =
      u.prep ~tid Cnt.Increment;
      ignore (u.exec ~tid Cnt.Increment)
    in
    let outcome =
      Sim.run u.heap ~policy:(Sim.Random_seed seed)
        ~threads:[ program ~tid:0; program ~tid:1 ]
    in
    Sim.check_thread_errors outcome;
    Alcotest.(check bool) "both took effect" true
      (u.apply ~tid:0 Cnt.Get = Some (Cnt.Value 2));
    Alcotest.(check bool) "t0 resolved" true
      (u.resolve ~tid:0 = (Some Cnt.Increment, Some Cnt.Ok));
    Alcotest.(check bool) "t1 resolved" true
      (u.resolve ~tid:1 = (Some Cnt.Increment, Some Cnt.Ok))
  done

(* The universal construction of [D<counter>] as a trial world. *)
let counter_world ~nthreads ~capacity () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module U = Dssq_universal.Universal.Make (M) in
  let u = U.create ~nthreads ~capacity (Cnt.spec ()) in
  Heap.log_persists heap;
  {
    Trial.heap;
    obj =
      {
        prep = U.prep u;
        exec =
          (fun ~tid op ->
            match U.exec u ~tid op with
            | Some r -> r
            | None -> failwith "exec: no pending prep");
        base = (fun ~tid op -> Option.get (U.apply u ~tid op));
        resolve =
          (fun ~tid : _ Dssq_core.Detectable_intf.resolved ->
            match U.resolve u ~tid with
            | Some op, Some r -> Done (op, r)
            | Some op, None -> Pending op
            | None, _ -> Nothing);
      };
    recover = (fun () -> ignore (U.recover u));
  }

(* The threads' increments from 0, then a read of the count. *)
let increments ~nthreads : _ Trial.program =
  {
    spec = Dss_spec.make ~nthreads (Cnt.spec ());
    base = [];
    threads = List.init nthreads (fun _ -> Cnt.Increment);
    observe = Reads [ Cnt.Get ];
  }

let test_crash_every_step =
  sweep (39, 36)
    [ ("universal", counter_world ~nthreads:1 ~capacity:64) ]
    (increments ~nthreads:1) ~evictions:[ 0.0; 1.0; 0.5 ] ~seed:Fun.id

let test_log_prefix_property () =
  (* After any crash the persisted log has no holes: replay never skips
     a slot.  We check this by crashing at random points under a random
     schedule and verifying the state equals replaying some prefix. *)
  let setup () = make_u ~nthreads:2 ~capacity:128 (Cnt.spec ()) in
  for seed = 1 to 15 do
    let u = setup () in
    let program ~tid () =
      for _ = 1 to 3 do
        ignore (u.apply ~tid Cnt.Increment)
      done
    in
    let outcome =
      Sim.run u.heap
        ~policy:(Sim.Random_seed seed)
        ~crash:(Sim.Crash_at_step (5 + (seed * 3)))
        ~threads:[ program ~tid:0; program ~tid:1 ]
    in
    if outcome.Sim.crashed then begin
      let u = restart ~setup ~heap:(fun u -> u.heap) u ~evict_p:0.5 ~seed in
      let n = u.length () in
      match u.apply ~tid:0 Cnt.Get with
      | Some (Cnt.Value v) ->
          (* Get is logged too, so it occupies one slot itself. *)
          Alcotest.(check bool)
            (Printf.sprintf "count %d consistent with %d surviving slots" v n)
            true
            (v >= 0 && v <= n)
      | _ -> Alcotest.fail "get failed"
    end
  done

let test_stack_instance () =
  (* The construction is generic: D<stack> for free. *)
  let module St = Specs.Stack in
  let u = make_u ~nthreads:1 ~capacity:32 (St.spec ()) in
  ignore (u.apply ~tid:0 (St.Push 1));
  ignore (u.apply ~tid:0 (St.Push 2));
  u.prep ~tid:0 St.Pop;
  Alcotest.(check bool) "pop top" true (u.exec ~tid:0 St.Pop = Some (St.Value 2));
  Alcotest.(check bool) "resolve pop" true
    (u.resolve ~tid:0 = (Some St.Pop, Some (St.Value 2)))

let test_log_full () =
  let u = make_u ~nthreads:1 ~capacity:3 (Cnt.spec ()) in
  ignore (u.apply ~tid:0 Cnt.Increment);
  ignore (u.apply ~tid:0 Cnt.Increment);
  ignore (u.apply ~tid:0 Cnt.Increment);
  Alcotest.check_raises "log full" Dssq_universal.Universal.Log_full (fun () ->
      ignore (u.apply ~tid:0 Cnt.Increment))

let suite =
  [
    Alcotest.test_case "register: detectable lifecycle" `Quick
      test_register_lifecycle;
    Alcotest.test_case "exec without prep is a no-op" `Quick
      test_exec_without_prep_disabled;
    Alcotest.test_case "counter: concurrent increments" `Quick
      test_counter_many_threads;
    Alcotest.test_case "concurrent detectable ops" `Quick
      test_concurrent_detectable_ops;
    Alcotest.test_case "crash at every step: exactly once" `Quick
      test_crash_every_step;
    Alcotest.test_case "persisted log is a prefix" `Quick
      test_log_prefix_property;
    Alcotest.test_case "works for stacks too" `Quick test_stack_instance;
    Alcotest.test_case "log capacity exhaustion" `Quick test_log_full;
  ]
