(** Tests for the generic boxed detectable cell ([Dss_cell]):
    register and CAS semantics over arbitrary value types, detection
    across overwrites, and crash sweeps for both operations. *)

open Helpers

(* Instantiate over the simulator with closures (the functor-generated
   types stay local). *)
type 'a dc = {
  heap : Heap.t;
  read : unit -> 'a;
  write : 'a -> unit;
  cas : expected:'a -> desired:'a -> bool;
  prep_write : tid:int -> 'a -> unit;
  exec_write : tid:int -> unit;
  prep_cas : tid:int -> expected:'a -> desired:'a -> unit;
  exec_cas : tid:int -> bool;
  prep_read : tid:int -> unit;
  exec_read : tid:int -> 'a;
  resolve : tid:int -> string;
  resolve_kind :
    tid:int ->
    [ `Nothing
    | `Write_pending
    | `Write_done
    | `Cas_pending
    | `Cas_done of bool
    | `Read_pending
    | `Read_done of 'a ];
}

let make ~nthreads (init : 'a) : 'a dc =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module C = Dssq_core.Dss_cell.Make (M) in
  let c = C.create ~nthreads init in
  let kind ~tid =
    match C.resolve c ~tid with
    | C.Nothing -> `Nothing
    | C.Write_pending _ -> `Write_pending
    | C.Write_done _ -> `Write_done
    | C.Cas_pending _ -> `Cas_pending
    | C.Cas_done (_, _, b) -> `Cas_done b
    | C.Read_pending -> `Read_pending
    | C.Read_done v -> `Read_done v
  in
  Heap.log_persists heap;
  {
    heap;
    read = (fun () -> C.read c);
    write = (fun v -> C.write c v);
    cas = (fun ~expected ~desired -> C.cas c ~expected ~desired);
    prep_write = (fun ~tid v -> C.prep_write c ~tid v);
    exec_write = (fun ~tid -> C.exec_write c ~tid);
    prep_cas = (fun ~tid ~expected ~desired -> C.prep_cas c ~tid ~expected ~desired);
    exec_cas = (fun ~tid -> C.exec_cas c ~tid);
    prep_read = (fun ~tid -> C.prep_read c ~tid);
    exec_read = (fun ~tid -> C.exec_read c ~tid);
    resolve =
      (fun ~tid ->
        match C.resolve c ~tid with
        | C.Nothing -> "nothing"
        | C.Write_pending _ -> "write pending"
        | C.Write_done _ -> "write done"
        | C.Cas_pending _ -> "cas pending"
        | C.Cas_done (_, _, b) -> Printf.sprintf "cas done %b" b
        | C.Read_pending -> "read pending"
        | C.Read_done _ -> "read done");
    resolve_kind = kind;
  }

let test_plain_ops () =
  let c = make ~nthreads:2 0 in
  Alcotest.(check int) "init" 0 (c.read ());
  c.write 5;
  Alcotest.(check int) "write" 5 (c.read ());
  Alcotest.(check bool) "cas hit" true (c.cas ~expected:5 ~desired:6);
  Alcotest.(check bool) "cas miss" false (c.cas ~expected:5 ~desired:7);
  Alcotest.(check int) "value" 6 (c.read ())

let test_polymorphic_values () =
  let c = make ~nthreads:1 "a" in
  c.write "b";
  Alcotest.(check string) "string value" "b" (c.read ());
  (* Physical-equality CAS on boxed values: the exact read value works. *)
  let cur = c.read () in
  Alcotest.(check bool) "boxed cas" true (c.cas ~expected:cur ~desired:"c");
  Alcotest.(check string) "after" "c" (c.read ())

let test_detectable_write () =
  let c = make ~nthreads:2 0 in
  c.prep_write ~tid:0 9;
  Alcotest.(check bool) "pending" true (c.resolve_kind ~tid:0 = `Write_pending);
  c.exec_write ~tid:0;
  Alcotest.(check bool) "done" true (c.resolve_kind ~tid:0 = `Write_done);
  (* Overwrites preserve detection via helping. *)
  c.write 1;
  c.prep_write ~tid:1 2;
  c.exec_write ~tid:1;
  Alcotest.(check bool) "t0 still done" true (c.resolve_kind ~tid:0 = `Write_done)

let test_detectable_cas_success_and_failure () =
  let c = make ~nthreads:2 0 in
  c.prep_cas ~tid:0 ~expected:0 ~desired:1;
  Alcotest.(check bool) "pending" true (c.resolve_kind ~tid:0 = `Cas_pending);
  Alcotest.(check bool) "succeeds" true (c.exec_cas ~tid:0);
  Alcotest.(check bool) "done true" true (c.resolve_kind ~tid:0 = `Cas_done true);
  c.prep_cas ~tid:1 ~expected:0 ~desired:2;
  Alcotest.(check bool) "fails" false (c.exec_cas ~tid:1);
  Alcotest.(check bool) "done false" true
    (c.resolve_kind ~tid:1 = `Cas_done false);
  Alcotest.(check int) "value" 1 (c.read ())

let test_detectable_cas_detection_survives_overwrite () =
  let c = make ~nthreads:3 0 in
  c.prep_cas ~tid:0 ~expected:0 ~desired:1;
  Alcotest.(check bool) "cas lands" true (c.exec_cas ~tid:0);
  (* Another thread CASes past it (helping persists t0's result first). *)
  c.prep_cas ~tid:1 ~expected:1 ~desired:2;
  Alcotest.(check bool) "t1 lands" true (c.exec_cas ~tid:1);
  Alcotest.(check bool) "t0 still resolved true" true
    (c.resolve_kind ~tid:0 = `Cas_done true);
  Alcotest.(check bool) "t1 resolved true" true
    (c.resolve_kind ~tid:1 = `Cas_done true)

let test_detectable_read () =
  let c = make ~nthreads:1 4 in
  c.prep_read ~tid:0;
  Alcotest.(check int) "reads" 4 (c.exec_read ~tid:0);
  Alcotest.(check bool) "recorded" true (c.resolve_kind ~tid:0 = `Read_done 4)

(* ---------------------------- crash sweeps ------------------------- *)

let setup () = make ~nthreads:1 0
let dc_heap c = c.heap

let test_crash_sweep_cas () =
  List.iter
    (fun evict_p ->
      ignore
      @@ sweep_crashes ~setup ~heap:dc_heap ~evict_p ~seed:Fun.id
           (fun ~step c ->
             let t () =
               c.prep_cas ~tid:0 ~expected:0 ~desired:1;
               ignore (c.exec_cas ~tid:0)
             in
             ( [ t ],
               fun _ -> function
                 | None -> ()
                 | Some c -> (
                     match c.resolve_kind ~tid:0 with
                     | `Cas_done true ->
                         Alcotest.(check int)
                           (Printf.sprintf "done => applied (step %d)" step)
                           1 (c.read ())
                     | `Cas_pending ->
                         Alcotest.(check int)
                           (Printf.sprintf "pending => not applied (step %d)" step)
                           0 (c.read ());
                         Alcotest.(check bool) "retry lands once" true
                           (c.exec_cas ~tid:0);
                         Alcotest.(check int) "applied exactly once" 1 (c.read ())
                     | `Nothing -> Alcotest.(check int) "prep lost" 0 (c.read ())
                     | _ ->
                         Alcotest.failf "unexpected resolution at step %d: %s"
                           step (c.resolve ~tid:0)) )))
    [ 0.0; 1.0; 0.5 ]

let test_crash_sweep_write () =
  ignore
  @@ sweep_crashes ~setup ~heap:dc_heap ~evict_p:0.5 ~seed:Fun.id
       (fun ~step c ->
         let t () =
           c.prep_write ~tid:0 5;
           c.exec_write ~tid:0
         in
         ( [ t ],
           fun _ -> function
             | None -> ()
             | Some c -> (
                 match c.resolve_kind ~tid:0 with
                 | `Write_done -> Alcotest.(check int) "done => present" 5 (c.read ())
                 | `Write_pending ->
                     Alcotest.(check int) "pending => absent" 0 (c.read ());
                     c.exec_write ~tid:0;
                     Alcotest.(check int) "retry lands" 5 (c.read ())
                 | `Nothing -> Alcotest.(check int) "prep lost" 0 (c.read ())
                 | _ ->
                     Alcotest.failf "unexpected resolution at step %d: %s" step
                       (c.resolve ~tid:0)) ))

let test_concurrent_cas_agreement () =
  (* Two detectable CASes with the same expectation: exactly one wins,
     and both resolve to their actual outcome. *)
  for seed = 1 to 30 do
    let c = make ~nthreads:2 0 in
    let results = Array.make 2 None in
    let caser ~tid v () =
      c.prep_cas ~tid ~expected:0 ~desired:v;
      results.(tid) <- Some (c.exec_cas ~tid)
    in
    let outcome =
      Sim.run c.heap ~policy:(Sim.Random_seed seed)
        ~threads:[ caser ~tid:0 1; caser ~tid:1 2 ]
    in
    Sim.check_thread_errors outcome;
    let r0 = Option.get results.(0) and r1 = Option.get results.(1) in
    Alcotest.(check bool) "exactly one winner" true (r0 <> r1);
    Alcotest.(check int) "value is the winner's" (if r0 then 1 else 2)
      (c.read ());
    Alcotest.(check bool) "t0 resolution matches outcome" true
      (c.resolve_kind ~tid:0 = `Cas_done r0);
    Alcotest.(check bool) "t1 resolution matches outcome" true
      (c.resolve_kind ~tid:1 = `Cas_done r1)
  done

let suite =
  [
    Alcotest.test_case "plain read/write/cas" `Quick test_plain_ops;
    Alcotest.test_case "polymorphic values" `Quick test_polymorphic_values;
    Alcotest.test_case "detectable write" `Quick test_detectable_write;
    Alcotest.test_case "detectable cas success/failure" `Quick
      test_detectable_cas_success_and_failure;
    Alcotest.test_case "cas detection survives overwrite" `Quick
      test_detectable_cas_detection_survives_overwrite;
    Alcotest.test_case "detectable read" `Quick test_detectable_read;
    Alcotest.test_case "crash sweep: cas" `Quick test_crash_sweep_cas;
    Alcotest.test_case "crash sweep: write" `Quick test_crash_sweep_write;
    Alcotest.test_case "concurrent detectable cas" `Quick
      test_concurrent_cas_agreement;
  ]
