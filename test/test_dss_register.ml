(** Tests for the packed single-word detectable register
    ([Dss_register]): sequential semantics, the helping protocol that
    preserves detection evidence across overwrites, crash sweeps, and
    strict linearizability against [D<register>]. *)

open Helpers
module Reg = Specs.Register

type dr = {
  heap : Heap.t;
  read : tid:int -> int;
  write : tid:int -> int -> unit;
  prep_write : tid:int -> int -> unit;
  exec_write : tid:int -> unit;
  prep_read : tid:int -> unit;
  exec_read : tid:int -> int;
  resolve_raw : tid:int -> resolved_reg;
}

and resolved_reg =
  | RNothing
  | RWrite_pending of int
  | RWrite_done of int
  | RRead_pending
  | RRead_done of int

let make ?(init = 0) ~nthreads () : dr =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module R = Dssq_core.Dss_register.Make (M) in
  let r = R.create ~init ~nthreads () in
  let raw ~tid =
    match R.resolve r ~tid with
    | R.Nothing -> RNothing
    | R.Write_pending v -> RWrite_pending v
    | R.Write_done v -> RWrite_done v
    | R.Read_pending -> RRead_pending
    | R.Read_done v -> RRead_done v
  in
  Heap.log_persists heap;
  {
    heap;
    read = (fun ~tid -> R.read r ~tid);
    write = (fun ~tid v -> R.write r ~tid v);
    prep_write = (fun ~tid v -> R.prep_write r ~tid v);
    exec_write = (fun ~tid -> R.exec_write r ~tid);
    prep_read = (fun ~tid -> R.prep_read r ~tid);
    exec_read = (fun ~tid -> R.exec_read r ~tid);
    resolve_raw = raw;
  }

let resolved_reg : resolved_reg Alcotest.testable =
  Alcotest.testable
    (fun fmt -> function
      | RNothing -> Format.pp_print_string fmt "nothing"
      | RWrite_pending v -> Format.fprintf fmt "write %d pending" v
      | RWrite_done v -> Format.fprintf fmt "write %d done" v
      | RRead_pending -> Format.pp_print_string fmt "read pending"
      | RRead_done v -> Format.fprintf fmt "read done %d" v)
    ( = )

let test_plain_read_write () =
  let r = make ~nthreads:2 () in
  Alcotest.(check int) "initial" 0 (r.read ~tid:0);
  r.write ~tid:0 7;
  Alcotest.(check int) "after write" 7 (r.read ~tid:1);
  r.write ~tid:1 9;
  Alcotest.(check int) "overwrite" 9 (r.read ~tid:0)

let test_detectable_write_lifecycle () =
  let r = make ~nthreads:2 () in
  Alcotest.check resolved_reg "initially nothing" RNothing (r.resolve_raw ~tid:0);
  r.prep_write ~tid:0 5;
  Alcotest.check resolved_reg "prepared" (RWrite_pending 5) (r.resolve_raw ~tid:0);
  r.exec_write ~tid:0;
  Alcotest.check resolved_reg "done" (RWrite_done 5) (r.resolve_raw ~tid:0);
  Alcotest.(check int) "value visible" 5 (r.read ~tid:1)

let test_detectable_read_lifecycle () =
  let r = make ~init:3 ~nthreads:1 () in
  r.prep_read ~tid:0;
  Alcotest.check resolved_reg "prepared" RRead_pending (r.resolve_raw ~tid:0);
  Alcotest.(check int) "read value" 3 (r.exec_read ~tid:0);
  Alcotest.check resolved_reg "done" (RRead_done 3) (r.resolve_raw ~tid:0)

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
  Alcotest.check resolved_reg "t0 still resolves done" (RWrite_done 5)
    (r.resolve_raw ~tid:0);
  Alcotest.check resolved_reg "t2 resolves done" (RWrite_done 9)
    (r.resolve_raw ~tid:2)

let test_repeated_same_value_disambiguated () =
  (* Writing the same value twice: the sequence number keeps resolve
     anchored to the LAST prepared instance. *)
  let r = make ~nthreads:1 () in
  r.prep_write ~tid:0 5;
  r.exec_write ~tid:0;
  r.prep_write ~tid:0 5;
  Alcotest.check resolved_reg "second instance pending" (RWrite_pending 5)
    (r.resolve_raw ~tid:0);
  r.exec_write ~tid:0;
  Alcotest.check resolved_reg "second instance done" (RWrite_done 5)
    (r.resolve_raw ~tid:0)

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
      let first = r.resolve_raw ~tid:0 in
      Alcotest.check resolved_reg "resolve idempotent" first
        (r.resolve_raw ~tid:0);
      r.write ~tid:1 77;
      r.prep_write ~tid:1 78;
      r.exec_write ~tid:1;
      Alcotest.check resolved_reg
        (Printf.sprintf "detection stable under overwrite (step %d)" step)
        first (r.resolve_raw ~tid:0)
    end
  done

(* --------------------- concurrent linearizability ------------------ *)

let test_concurrent_lincheck () =
  let spec = dreg ~nthreads:3 in
  for seed = 1 to 30 do
    let r = make ~nthreads:3 () in
    let rec_ = Recorder.create () in
    let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
    let writer v ~tid () =
      record ~tid (Dss_spec.Prep (Reg.Write v)) (fun () ->
          r.prep_write ~tid v;
          Dss_spec.Ack);
      record ~tid (Dss_spec.Exec (Reg.Write v)) (fun () ->
          r.exec_write ~tid;
          Dss_spec.Ret Reg.Ok)
    in
    let reader ~tid () =
      record ~tid (Dss_spec.Base Reg.Read) (fun () ->
          Dss_spec.Ret (Reg.Value (r.read ~tid)));
      record ~tid (Dss_spec.Base Reg.Read) (fun () ->
          Dss_spec.Ret (Reg.Value (r.read ~tid)))
    in
    let outcome =
      Sim.run r.heap ~policy:(Sim.Random_seed seed)
        ~threads:[ writer 10 ~tid:0; writer 20 ~tid:1; reader ~tid:2 ]
    in
    Sim.check_thread_errors outcome;
    match Lincheck.check ~mode:Lincheck.Strict spec (Recorder.history rec_) with
    | Lincheck.Linearizable _ -> ()
    | Lincheck.Not_linearizable _ ->
        Alcotest.failf "seed %d: not linearizable" seed
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
