(** Tests for the packed single-word detectable register
    ([Dss_register]): sequential semantics, the helping protocol that
    preserves detection evidence across overwrites, crash sweeps, and
    strict linearizability against [D<register>]. *)

open Helpers
module Reg = Specs.Register
module D = Dssq_core.Detectable_intf

type dr = {
  heap : Heap.t;
  obj : (Reg.op, Reg.response) D.adapter;
  read : tid:int -> int;
  write : tid:int -> int -> unit;
  prep_write : tid:int -> int -> unit;
  exec_write : tid:int -> unit;
  prep_read : tid:int -> unit;
  exec_read : tid:int -> int;
}

let make ?(init = 0) ~nthreads () : dr =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module R = Dssq_core.Dss_register.Make (M) in
  let r = R.create ~init ~nthreads () in
  Heap.log_persists heap;
  {
    heap;
    obj = Dssq_core.Dss_register.adapter (module R) r;
    read = (fun ~tid -> R.read r ~tid);
    write = (fun ~tid v -> R.write r ~tid v);
    prep_write = (fun ~tid v -> R.prep_write r ~tid v);
    exec_write = (fun ~tid -> R.exec_write r ~tid);
    prep_read = (fun ~tid -> R.prep_read r ~tid);
    exec_read = (fun ~tid -> R.exec_read r ~tid);
  }

(* [resolve]'s answer, through the adapter, in [D<register>]'s terms. *)
let resolved_reg =
  let open Reg in
  Alcotest.testable (D.pp_resolved pp_op pp_response) ( = )

let test_plain_read_write () =
  let r = make ~nthreads:2 () in
  Alcotest.(check int) "initial" 0 (r.read ~tid:0);
  r.write ~tid:0 7;
  Alcotest.(check int) "after write" 7 (r.read ~tid:1);
  r.write ~tid:1 9;
  Alcotest.(check int) "overwrite" 9 (r.read ~tid:0)

let test_detectable_write_lifecycle () =
  let r = make ~nthreads:2 () in
  Alcotest.check resolved_reg "initially nothing" D.Nothing
    (r.obj.resolve ~tid:0);
  r.prep_write ~tid:0 5;
  Alcotest.check resolved_reg "prepared" (D.Pending (Reg.Write 5))
    (r.obj.resolve ~tid:0);
  r.exec_write ~tid:0;
  Alcotest.check resolved_reg "done" (D.Done (Reg.Write 5, Reg.Ok))
    (r.obj.resolve ~tid:0);
  Alcotest.(check int) "value visible" 5 (r.read ~tid:1)

let test_detectable_read_lifecycle () =
  let r = make ~init:3 ~nthreads:1 () in
  r.prep_read ~tid:0;
  Alcotest.check resolved_reg "prepared" (D.Pending Reg.Read)
    (r.obj.resolve ~tid:0);
  Alcotest.(check int) "read value" 3 (r.exec_read ~tid:0);
  Alcotest.check resolved_reg "done" (D.Done (Reg.Read, Reg.Value 3))
    (r.obj.resolve ~tid:0)

let test_overwrite_preserves_detection () =
  (* The helping protocol: even after other threads overwrite the
     register (destroying the provenance), the first writer's completion
     must already be persisted in its own X. *)
  let r = make ~nthreads:3 () in
  r.prep_write ~tid:0 5;
  r.exec_write ~tid:0;
  r.write ~tid:1 8;
  r.prep_write ~tid:2 9;
  r.exec_write ~tid:2;
  Alcotest.check resolved_reg "t0 still resolves done"
    (D.Done (Reg.Write 5, Reg.Ok))
    (r.obj.resolve ~tid:0);
  Alcotest.check resolved_reg "t2 resolves done" (D.Done (Reg.Write 9, Reg.Ok))
    (r.obj.resolve ~tid:2)

let test_repeated_same_value_disambiguated () =
  (* Writing the same value twice: the sequence number keeps resolve
     anchored to the LAST prepared instance. *)
  let r = make ~nthreads:1 () in
  r.prep_write ~tid:0 5;
  r.exec_write ~tid:0;
  r.prep_write ~tid:0 5;
  Alcotest.check resolved_reg "second instance pending"
    (D.Pending (Reg.Write 5))
    (r.obj.resolve ~tid:0);
  r.exec_write ~tid:0;
  Alcotest.check resolved_reg "second instance done"
    (D.Done (Reg.Write 5, Reg.Ok))
    (r.obj.resolve ~tid:0)

(* ------------------------- crash sweeps --------------------------- *)

let setup () = make ~nthreads:2 ()
let dr_heap r = r.heap

let dreg ~nthreads = Dss_spec.make ~nthreads (Reg.spec ())

(* The register's world and program for threads writing [values] from
   0, then a read of the register.  A write is idempotent, so the
   trial's retry would hide a resolve that reports a write which took
   effect as pending or lost: the world's recovery checks, before any
   retry, that the register holds no value whose write its thread does
   not resolve as done.  The values must be distinct and not 0. *)
let register values =
  let world () =
    let heap = Heap.create () in
    let (module M) = Sim.memory heap in
    let module R = Dssq_core.Dss_register.Make (M) in
    let r = R.create ~nthreads:(List.length values) () in
    Heap.log_persists heap;
    let recover () =
      R.recover r;
      List.iteri
        (fun tid v ->
          match R.resolve r ~tid with
          | R.Write_done _ -> ()
          | res ->
              if R.read r ~tid = v then
                Alcotest.failf "the register holds %d, thread %d resolves %a"
                  v tid R.pp_resolved res)
        values
    in
    {
      Trial.heap;
      obj = Dssq_core.Dss_register.adapter (module R) r;
      recover;
    }
  in
  ( world,
    ({
       spec = dreg ~nthreads:(List.length values);
       base = [];
       threads = List.map (fun v -> Reg.Write v) values;
       observe = Reads [ Reg.Read ];
     }
      : _ Trial.program) )

let test_crash_sweep_write =
  let world, p = register [ 5 ] in
  sweep (33, 30) [ ("register", world) ] p ~evictions:[ 0.0; 1.0; 0.5 ]
    ~seed:Fun.id

let test_crash_then_overwrite_detection_survives () =
  (* Crash mid-write; whatever resolve says first must not change after
     other threads overwrite the register. *)
  for step = 0 to 20 do
    let r = setup () in
    let t () =
      r.prep_write ~tid:0 5;
      r.exec_write ~tid:0
    in
    let outcome = Sim.run r.heap ~crash:(Sim.Crash_at_step step) ~threads:[ t ] in
    if outcome.Sim.crashed then begin
      let r = restart ~setup ~heap:dr_heap r ~evict_p:0.5 ~seed:step in
      let first = r.obj.resolve ~tid:0 in
      Alcotest.check resolved_reg "resolve idempotent" first
        (r.obj.resolve ~tid:0);
      r.write ~tid:1 77;
      r.prep_write ~tid:1 78;
      r.exec_write ~tid:1;
      Alcotest.check resolved_reg
        (Printf.sprintf "detection stable under overwrite (step %d)" step)
        first (r.obj.resolve ~tid:0)
    end
  done

(* --------------------- concurrent linearizability ------------------ *)

let test_concurrent_lincheck () =
  let spec = dreg ~nthreads:3 in
  for seed = 1 to 30 do
    let r = make ~nthreads:3 () in
    let rec_ = Recorder.create () in
    let writer v ~tid () =
      Scenarios.prep rec_ r.obj ~tid (Reg.Write v);
      Scenarios.exec rec_ r.obj ~tid (Reg.Write v)
    in
    let reader ~tid () =
      ignore (Scenarios.base rec_ r.obj ~tid Reg.Read);
      ignore (Scenarios.base rec_ r.obj ~tid Reg.Read)
    in
    let outcome =
      Sim.run r.heap ~policy:(Sim.Random_seed seed)
        ~threads:[ writer 10 ~tid:0; writer 20 ~tid:1; reader ~tid:2 ]
    in
    Sim.check_thread_errors outcome;
    Oracle.assert_linearizable spec (Recorder.history rec_)
  done

let test_concurrent_crash_lincheck () =
  let world, p = register [ 10; 20 ] in
  trials (500, 434) @@ fun trial ->
  for seed = 1 to 20 do
    for crash_step = 1 to 25 do
      ignore
        (trial "register" world p
           {
             seed;
             crash_step;
             evict_p = float_of_int (seed mod 3) /. 2.;
             restart_seed = seed;
           })
    done
  done

let suite =
  [
    Alcotest.test_case "plain read/write" `Quick test_plain_read_write;
    Alcotest.test_case "detectable write lifecycle" `Quick
      test_detectable_write_lifecycle;
    Alcotest.test_case "detectable read lifecycle" `Quick
      test_detectable_read_lifecycle;
    Alcotest.test_case "overwrite preserves detection (helping)" `Quick
      test_overwrite_preserves_detection;
    Alcotest.test_case "repeated value disambiguated by seq" `Quick
      test_repeated_same_value_disambiguated;
    Alcotest.test_case "crash sweep: write" `Quick test_crash_sweep_write;
    Alcotest.test_case "crash then overwrite: detection survives" `Quick
      test_crash_then_overwrite_detection_survives;
    Alcotest.test_case "concurrent writers strictly linearizable" `Quick
      test_concurrent_lincheck;
    Alcotest.test_case "concurrent crashes strictly linearizable" `Quick
      test_concurrent_crash_lincheck;
  ]
