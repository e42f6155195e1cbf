(** The {!Detectable} engine: the register-equivalence QCheck property
    (the engine-backed register must be observationally equivalent to
    the pre-refactor packed-word register on random operation/crash
    schedules, on both backends and at line sizes 1 and 8), plus unit
    suites for the four zoo objects the engine made cheap — swap,
    deque, priority queue, bounded counter — and the words-per-op
    accounting rows they feed. *)

open Helpers
module Reg = Dssq_core.Dss_register
module DI = Dssq_core.Detectable_intf
module Zoo = Dssq_workload.Zoo

(* ------------------- register: engine = packed oracle ------------------ *)

(* One step of a random schedule.  Crashes land between operations —
   every operation ends at a persistence point (drain), so at a
   boundary the two implementations have durably equivalent abstract
   state and must produce identical traces from there on.  (Mid-
   operation crash soundness of each implementation separately is the
   explore corpus's job; equivalence is only claimed at boundaries.) *)
type step =
  | SWrite of int * int  (** base write: tid, value *)
  | SRead of int
  | SDetWrite of int * int  (** prep + exec *)
  | SDetRead of int
  | SPrepWrite of int * int  (** prep only: left pending across steps *)
  | SPrepRead of int
  | SResolve of int
  | SCrash of int  (** crash + recover + per-thread resolve and retry *)

let pp_step = function
  | SWrite (t, v) -> Printf.sprintf "w%d:%d" t v
  | SRead t -> Printf.sprintf "r%d" t
  | SDetWrite (t, v) -> Printf.sprintf "dw%d:%d" t v
  | SDetRead t -> Printf.sprintf "dr%d" t
  | SPrepWrite (t, v) -> Printf.sprintf "pw%d:%d" t v
  | SPrepRead t -> Printf.sprintf "pr%d" t
  | SResolve t -> Printf.sprintf "res%d" t
  | SCrash s -> Printf.sprintf "crash@%d" s

let gen_step =
  QCheck.Gen.(
    let tid = int_range 0 1 in
    let v = int_range 0 999 in
    frequency
      [
        (3, map2 (fun t v -> SWrite (t, v)) tid v);
        (3, map (fun t -> SRead t) tid);
        (3, map2 (fun t v -> SDetWrite (t, v)) tid v);
        (3, map (fun t -> SDetRead t) tid);
        (1, map2 (fun t v -> SPrepWrite (t, v)) tid v);
        (1, map (fun t -> SPrepRead t) tid);
        (2, map (fun t -> SResolve t) tid);
        (2, map (fun s -> SCrash s) (int_range 0 9999));
      ])

let arb_schedule =
  QCheck.make
    ~print:(fun s -> String.concat ";" (List.map pp_step s))
    QCheck.Gen.(list_size (int_range 1 30) gen_step)

(* A register instance packaged with its module, so the interpreter is
   written once for both implementations. *)
type reg_pack = Pack : (module Reg.S with type t = 'a) * 'a -> reg_pack

(* Run [steps] sequentially and return the observation trace: every
   response, every resolve rendering, and the final value.  [crash seed]
   returns the register a crash leaves: a cold restart of it. *)
let interp ~crash pack steps : string list =
  let obs = ref [] in
  let push s = obs := s :: !obs in
  let cur = ref pack in
  List.iter
    (fun step ->
      let (Pack ((module R), r)) = !cur in
      let resolved tid = Format.asprintf "%a" R.pp_resolved (R.resolve r ~tid) in
      match step with
      | SWrite (tid, v) -> R.write r ~tid v
      | SRead tid -> push (Printf.sprintf "r=%d" (R.read r ~tid))
      | SDetWrite (tid, v) ->
          R.prep_write r ~tid v;
          R.exec_write r ~tid
      | SDetRead tid ->
          R.prep_read r ~tid;
          push (Printf.sprintf "dr=%d" (R.exec_read r ~tid))
      | SPrepWrite (tid, v) -> R.prep_write r ~tid v
      | SPrepRead tid -> R.prep_read r ~tid
      | SResolve tid -> push (resolved tid)
      | SCrash seed ->
          cur := crash seed;
          let (Pack ((module R), r)) = !cur in
          R.recover r;
          for tid = 0 to 1 do
            push (Format.asprintf "%a" R.pp_resolved (R.resolve r ~tid));
            (* Exactly-once retry of whatever the crash left pending. *)
            match R.resolve r ~tid with
            | R.Write_pending _ -> R.exec_write r ~tid
            | R.Read_pending ->
                push (Printf.sprintf "retry-r=%d" (R.exec_read r ~tid))
            | _ -> ()
          done)
    steps;
  let (Pack ((module R), r)) = !cur in
  push (Printf.sprintf "final=%d" (R.read r ~tid:0));
  List.rev !obs

(* Build both registers on the given backend and compare traces; a
   crash restarts cold, into a fresh register. *)
let sim_pair ~line_size impl =
  let world () =
    let heap = Heap.create ~line_size () in
    let (module M) = Sim.memory heap in
    let pack =
      match impl with
      | `Engine ->
          let module R = Reg.Make (M) in
          Pack ((module R), R.create ~nthreads:2 ())
      | `Packed ->
          let module R = Packed_register.Make (M) in
          Pack ((module R), R.create ~nthreads:2 ())
    in
    Heap.log_persists heap;
    (heap, pack)
  in
  let live, pack = world () in
  let live = ref live in
  let crash seed =
    let heap, pack = world () in
    Sim.restart !live ~into:heap ~evict_p:0.5 ~seed;
    live := heap;
    pack
  in
  (pack, crash)

let native_pair impl =
  (* Crashes cannot be exercised natively; a crash step degrades to
     recover + resolve + retry, which must still agree. *)
  let module M = Dssq_memory.Native.Counted () in
  let pack =
    match impl with
    | `Engine ->
        let module R = Reg.Make (M) in
        Pack ((module R), R.create ~nthreads:2 ())
    | `Packed ->
        let module R = Packed_register.Make (M) in
        Pack ((module R), R.create ~nthreads:2 ())
  in
  (pack, fun _seed -> pack)

let equivalence_prop ~name mk =
  QCheck.Test.make ~count:200 ~name arb_schedule (fun steps ->
      let run impl =
        let pack, crash = mk impl in
        interp ~crash pack steps
      in
      run `Engine = run `Packed)

let prop_register_equiv_sim_ls1 =
  equivalence_prop ~name:"engine register = packed register (sim, line size 1)"
    (sim_pair ~line_size:1)

let prop_register_equiv_sim_ls8 =
  equivalence_prop ~name:"engine register = packed register (sim, line size 8)"
    (sim_pair ~line_size:8)

let prop_register_equiv_native =
  equivalence_prop ~name:"engine register = packed register (native)"
    native_pair

(* ------------------------- zoo object units --------------------------- *)

let with_sim f =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  f (module M : Dssq_memory.Memory_intf.S) heap

(* Swap: the displaced value chains, detectable swap resolves with its
   response, prep survives a crash as Pending and retries exactly once. *)
let test_swap_sequential () =
  with_sim (fun (module M) _heap ->
      let module W = Dssq_core.Dss_swap.Make (M) in
      let w = W.create ~init:7 ~nthreads:2 () in
      Alcotest.(check int) "displaced init" 7 (W.swap w ~tid:0 10);
      Alcotest.(check int) "displaced previous" 10 (W.swap w ~tid:1 20);
      Alcotest.(check int) "read" 20 (W.read w ~tid:0);
      W.prep_swap w ~tid:0 30;
      Alcotest.(check int) "detectable swap displaces" 20 (W.exec_swap w ~tid:0);
      match W.resolve w ~tid:0 with
      | DI.Done (Specs.Swap.Swap 30, Specs.Swap.Value 20) -> ()
      | r -> Alcotest.failf "unexpected resolution %a" W.pp_resolved r)

let test_swap_crash_retry () =
  let module World (M : Dssq_memory.Memory_intf.S) = struct
    module W = Dssq_core.Dss_swap.Make (M)

    let w = W.create ~init:1 ~nthreads:2 ()
  end in
  let live = Heap.create () in
  let (module L) = Sim.memory live in
  let module L = World (L) in
  Heap.log_persists live;
  L.W.prep_swap L.w ~tid:0 5;
  (* Restart cold: a fresh swap object holding the crash's image. *)
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module S = World (M) in
  let module W = S.W in
  let w = S.w in
  Sim.restart live ~into:heap ~evict_p:0.5 ~seed:42;
  W.recover w;
  (match W.resolve w ~tid:0 with
  | DI.Pending (Specs.Swap.Swap 5) -> ()
  | r -> Alcotest.failf "expected pending swap, got %a" W.pp_resolved r);
  Alcotest.(check int) "retry displaces init" 1 (W.exec_swap w ~tid:0);
  (match W.resolve w ~tid:0 with
  | DI.Done (Specs.Swap.Swap 5, Specs.Swap.Value 1) -> ()
  | r -> Alcotest.failf "expected done swap, got %a" W.pp_resolved r);
  Alcotest.(check int) "state" 5 (W.peek w)

(* The sequence counters that tell a thread's operations apart are
   volatile, so a cold restart begins them at 0 and [recover] must
   restore them from the persisted announce records: otherwise a prep
   after the restart reuses the completed swap(7)'s sequence number and
   resolve takes the new swap(9) for done. *)
let test_swap_prep_after_restart () =
  let module World (M : Dssq_memory.Memory_intf.S) = struct
    module W = Dssq_core.Dss_swap.Make (M)

    let w = W.create ~init:1 ~nthreads:2 ()
  end in
  let live = Heap.create () in
  let (module L) = Sim.memory live in
  let module L = World (L) in
  Heap.log_persists live;
  L.W.prep_swap L.w ~tid:0 7;
  ignore (L.W.exec_swap L.w ~tid:0 : int);
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module S = World (M) in
  Sim.restart live ~into:heap ~evict_p:0.5 ~seed:7;
  S.W.recover S.w;
  S.W.prep_swap S.w ~tid:0 9;
  match S.W.resolve S.w ~tid:0 with
  | DI.Pending (Specs.Swap.Swap 9) -> ()
  | r -> Alcotest.failf "expected pending swap(9), got %a" S.W.pp_resolved r

(* Deque: both ends, empty responses through the read-only path. *)
let test_deque_sequential () =
  with_sim (fun (module M) _heap ->
      let module D = Dssq_core.Dss_deque.Make (M) in
      let d = D.create ~nthreads:2 () in
      Alcotest.(check (option int)) "pop empty" None (D.pop_front d ~tid:0);
      D.push_back d ~tid:0 1;
      D.push_back d ~tid:0 2;
      D.push_front d ~tid:1 0;
      Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (D.to_list d);
      Alcotest.(check (option int)) "pop front" (Some 0) (D.pop_front d ~tid:0);
      Alcotest.(check (option int)) "pop back" (Some 2) (D.pop_back d ~tid:1);
      D.prep_pop_front d ~tid:0;
      (match D.exec d ~tid:0 with
      | Specs.Deque.Value 1 -> ()
      | _ -> Alcotest.fail "detectable pop front");
      match D.resolve d ~tid:0 with
      | DI.Done (Specs.Deque.Pop_front, Specs.Deque.Value 1) -> ()
      | r -> Alcotest.failf "unexpected resolution %a" D.pp_resolved r)

(* Priority queue: extract-min returns the minimum regardless of insert
   order; empty extraction resolves Done Empty. *)
let test_pqueue_sequential () =
  with_sim (fun (module M) _heap ->
      let module P = Dssq_core.Dss_pqueue.Make (M) in
      let p = P.create ~nthreads:2 () in
      List.iter (fun v -> P.insert p ~tid:0 v) [ 5; 1; 3 ];
      Alcotest.(check (option int)) "min" (Some 1) (P.extract_min p ~tid:1);
      P.prep_extract_min p ~tid:0;
      (match P.exec p ~tid:0 with
      | Specs.Pqueue.Value 3 -> ()
      | _ -> Alcotest.fail "detectable extract-min");
      Alcotest.(check (option int)) "next" (Some 5) (P.extract_min p ~tid:0);
      P.prep_extract_min p ~tid:1;
      match P.exec p ~tid:1 with
      | Specs.Pqueue.Empty -> ()
      | _ -> Alcotest.fail "empty extract-min")

(* Bounded counter: saturation at both ends fails without moving the
   state, and failing operations still resolve Done. *)
let test_bcounter_sequential () =
  with_sim (fun (module M) _heap ->
      let module B = Dssq_core.Dss_bcounter.Make (M) in
      let b = B.create ~nthreads:2 () in
      Alcotest.(check bool) "decrement at zero fails" false (B.decr b ~tid:0);
      for _ = 1 to Dssq_core.Dss_bcounter.bound do
        Alcotest.(check bool) "increment" true (B.incr b ~tid:0)
      done;
      Alcotest.(check bool) "increment at bound fails" false (B.incr b ~tid:1);
      Alcotest.(check int) "saturated" Dssq_core.Dss_bcounter.bound
        (B.get b ~tid:0);
      B.prep_incr b ~tid:1;
      (match B.exec b ~tid:1 with
      | Specs.Bcounter.Fail -> ()
      | _ -> Alcotest.fail "saturated detectable increment");
      match B.resolve b ~tid:1 with
      | DI.Done (Specs.Bcounter.Increment, Specs.Bcounter.Fail) -> ()
      | r -> Alcotest.failf "unexpected resolution %a" B.pp_resolved r)

(* ------------------- lincheck: the four new D<T> specs ------------------ *)

(* Hand-written histories against the transformed specifications, the
   same way test_lincheck.ml pins down D<register>: one accepting and
   one rejecting history per new object, with the swap pair exercising
   the crash/resolve vocabulary (swap is the object whose response
   makes re-execution observable). *)

let ev_inv uid tid op = History.Inv { uid; tid; op }
let ev_res uid r = History.Res { uid; r }

let check_lin name expected spec h =
  Alcotest.(check bool) name expected (Lincheck.is_linearizable spec h)

let test_lincheck_swap () =
  let dswap = Dss_spec.make ~nthreads:2 (Specs.Swap.spec ()) in
  let crash_resolve status =
    [
      ev_inv 0 0 (Dss_spec.Prep (Specs.Swap.Swap 5));
      ev_res 0 Dss_spec.Ack;
      ev_inv 1 0 (Dss_spec.Exec (Specs.Swap.Swap 5));
      History.Crash;
      ev_inv 2 0 Dss_spec.Resolve;
      ev_res 2 status;
    ]
  in
  check_lin "crashed swap may be pending" true dswap
    (crash_resolve (Dss_spec.Status (Some (Specs.Swap.Swap 5), None)));
  check_lin "crashed swap may have displaced init" true dswap
    (crash_resolve
       (Dss_spec.Status
          (Some (Specs.Swap.Swap 5), Some (Specs.Swap.Value 0))));
  check_lin "crashed swap cannot invent a displaced value" false dswap
    (crash_resolve
       (Dss_spec.Status
          (Some (Specs.Swap.Swap 5), Some (Specs.Swap.Value 99))));
  (* Two sequential swaps cannot both displace the initial value. *)
  check_lin "swap responses must chain" false dswap
    [
      ev_inv 0 0 (Dss_spec.Base (Specs.Swap.Swap 5));
      ev_res 0 (Dss_spec.Ret (Specs.Swap.Value 0));
      ev_inv 1 1 (Dss_spec.Base (Specs.Swap.Swap 7));
      ev_res 1 (Dss_spec.Ret (Specs.Swap.Value 0));
    ]

let test_lincheck_deque () =
  let ddeque = Dss_spec.make ~nthreads:2 (Specs.Deque.spec ()) in
  let h pop_result =
    [
      ev_inv 0 0 (Dss_spec.Base (Specs.Deque.Push_back 1));
      ev_res 0 (Dss_spec.Ret Specs.Deque.Ok);
      ev_inv 1 1 (Dss_spec.Base Specs.Deque.Pop_front);
      ev_res 1 (Dss_spec.Ret pop_result);
    ]
  in
  check_lin "pop sees the push" true ddeque (h (Specs.Deque.Value 1));
  check_lin "pop cannot miss a completed push" false ddeque
    (h Specs.Deque.Empty)

let test_lincheck_pqueue () =
  let dpq = Dss_spec.make ~nthreads:2 (Specs.Pqueue.spec ()) in
  let h min_result =
    [
      ev_inv 0 0 (Dss_spec.Base (Specs.Pqueue.Insert 5));
      ev_res 0 (Dss_spec.Ret Specs.Pqueue.Ok);
      ev_inv 1 0 (Dss_spec.Base (Specs.Pqueue.Insert 1));
      ev_res 1 (Dss_spec.Ret Specs.Pqueue.Ok);
      ev_inv 2 1 (Dss_spec.Base Specs.Pqueue.Extract_min);
      ev_res 2 (Dss_spec.Ret min_result);
    ]
  in
  check_lin "extract-min returns the minimum" true dpq
    (h (Specs.Pqueue.Value 1));
  check_lin "extract-min cannot return a non-minimum" false dpq
    (h (Specs.Pqueue.Value 5))

let test_lincheck_bcounter () =
  let dbc =
    Dss_spec.make ~nthreads:2
      (Specs.Bcounter.spec ~bound:Dssq_core.Dss_bcounter.bound ())
  in
  let h get_result =
    [
      ev_inv 0 0 (Dss_spec.Base Specs.Bcounter.Increment);
      ev_res 0 (Dss_spec.Ret Specs.Bcounter.Ok);
      ev_inv 1 1 (Dss_spec.Base Specs.Bcounter.Get);
      ev_res 1 (Dss_spec.Ret get_result);
    ]
  in
  check_lin "get sees the increment" true dbc
    (h (Specs.Bcounter.Value 1));
  check_lin "get cannot ignore a completed increment" false dbc
    (h (Specs.Bcounter.Value 0));
  (* A decrement at zero must fail; claiming Ok is unlinearizable. *)
  check_lin "decrement at zero fails" false dbc
    [
      ev_inv 0 0 (Dss_spec.Base Specs.Bcounter.Decrement);
      ev_res 0 (Dss_spec.Ret Specs.Bcounter.Ok);
    ]

(* ----------------------- words-per-op accounting ----------------------- *)

(* Every zoo object produces a meaningful accounting row: operations
   completed, pwrites counted, and at least one announce word per
   thread (the Ben-Baruch et al. floor). *)
let test_zoo_rows () =
  let rows = Zoo.run_all ~pairs:25 () in
  Alcotest.(check (list string)) "all objects accounted" Zoo.objects
    (List.map (fun (r : Zoo.row) -> r.z_object) rows);
  List.iter
    (fun (r : Zoo.row) ->
      Alcotest.(check bool)
        (r.z_object ^ " completed ops") true (r.z_ops > 0);
      Alcotest.(check bool)
        (r.z_object ^ " words/op >= 1") true
        (Zoo.words_per_op r >= 1.0);
      Alcotest.(check bool)
        (r.z_object ^ " announce floor") true
        (r.z_stats.DI.announce_words >= 2))
    rows

(* The zoo report round-trips through the schema-v4 JSON encoding. *)
let test_zoo_report_roundtrip () =
  let rows = Zoo.run_all ~pairs:10 () in
  let report = Zoo.to_report ~pairs:10 rows in
  Alcotest.(check int)
    "schema v4" Dssq_obs.Run_report.schema_version
    report.Dssq_obs.Run_report.version;
  let decoded =
    Dssq_obs.Run_report.of_string (Dssq_obs.Run_report.to_string report)
  in
  Alcotest.(check bool)
    "roundtrip" true
    (Dssq_obs.Run_report.equal report decoded);
  Alcotest.(check bool)
    "footprint metrics present" true
    (List.mem_assoc "zoo.dss-queue.state_words"
       decoded.Dssq_obs.Run_report.metrics)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_register_equiv_sim_ls1;
      prop_register_equiv_sim_ls8;
      prop_register_equiv_native;
    ]
  @ [
      Alcotest.test_case "swap sequential + resolve" `Quick
        test_swap_sequential;
      Alcotest.test_case "swap crash retry exactly-once" `Quick
        test_swap_crash_retry;
      Alcotest.test_case "swap prep after a cold restart is pending" `Quick
        test_swap_prep_after_restart;
      Alcotest.test_case "deque sequential + resolve" `Quick
        test_deque_sequential;
      Alcotest.test_case "pqueue sequential" `Quick test_pqueue_sequential;
      Alcotest.test_case "bcounter saturation" `Quick
        test_bcounter_sequential;
      Alcotest.test_case "lincheck D<swap> histories" `Quick
        test_lincheck_swap;
      Alcotest.test_case "lincheck D<deque> histories" `Quick
        test_lincheck_deque;
      Alcotest.test_case "lincheck D<pqueue> histories" `Quick
        test_lincheck_pqueue;
      Alcotest.test_case "lincheck D<bcounter> histories" `Quick
        test_lincheck_bcounter;
      Alcotest.test_case "zoo accounting rows" `Quick test_zoo_rows;
      Alcotest.test_case "zoo report schema-v4 roundtrip" `Quick
        test_zoo_report_roundtrip;
    ]
