(** The DSS interface in the message-passing model: an ABD-style
    replicated register with client-side prep/exec/resolve — the
    executable witness for the paper's portability claim (D2).

    Checked properties: the net layer's volatility, linearizability of
    the failure-free register, and — the crux — that crash sweeps over
    the detectable write, followed by resolve + reads, satisfy
    {e recoverable} linearizability (persistent atomicity), with the
    resolve verdict permanently consistent with what readers observe. *)

open Helpers
module Reg = Specs.Register

let test_net_basics () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Net = Dssq_msgpass.Net.Make (M) in
  let net = Net.create ~nprocs:3 in
  Net.send net ~dst:1 "a";
  Net.send net ~dst:1 "b";
  Net.send net ~dst:2 "c";
  Alcotest.(check (list string)) "fifo-ish delivery" [ "a"; "b" ]
    (Net.recv_all net ~me:1);
  Alcotest.(check (list string)) "empty after drain" [] (Net.recv_all net ~me:1);
  Alcotest.(check (list string)) "separate boxes" [ "c" ] (Net.recv_all net ~me:2)

let test_net_messages_are_volatile () =
  let world () =
    let heap = Heap.create () in
    let (module M) = Sim.memory heap in
    let module Net = Dssq_msgpass.Net.Make (M) in
    let net = Net.create ~nprocs:2 in
    Heap.log_persists heap;
    (heap, Net.send net, Net.recv_all net)
  in
  let live, send, _ = world () in
  send ~dst:1 "in-flight";
  let heap, _, recv_all = world () in
  Sim.restart live ~into:heap ~evict_p:0.0 ~seed:0;
  Alcotest.(check (list string)) "crash drops in-flight messages" []
    (recv_all ~me:1)

(* Helper: a fresh ABD world.  [nservers] servers, [nclients] clients. *)
let make_abd ~nservers ~nclients =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module A = Dssq_msgpass.Abd.Make (M) in
  let a = A.create ~nservers ~nclients in
  Heap.log_persists heap;
  let servers ~until =
    A.reset_done a;
    List.init nservers (fun sid -> A.server a ~sid ~until)
  in
  ( heap,
    servers,
    object
      method read ~ci = A.read a ~ci
      method prep_write ~ci v = A.prep_write a ~ci v
      method exec_write ~ci = A.exec_write a ~ci

      method resolve ~ci =
        match A.resolve a ~ci with
        | A.Nothing -> `Nothing
        | A.Write_pending v -> `Pending v
        | A.Write_done v -> `Done v

      method finished = A.client_finished a
    end )

let abd_heap (heap, _, _) = heap

let test_failure_free_write_read () =
  let _heap, servers, a = make_abd ~nservers:3 ~nclients:1 in
  let client () =
    a#prep_write ~ci:0 7;
    a#exec_write ~ci:0;
    Alcotest.(check int) "read back" 7 (a#read ~ci:0);
    Alcotest.(check bool) "resolved done" true (a#resolve ~ci:0 = `Done 7);
    a#finished
  in
  let outcome =
    Sim.run _heap ~policy:(Sim.Random_seed 1) ~threads:(servers ~until:1 @ [ client ])
  in
  Sim.check_thread_errors outcome

let test_failure_free_linearizable () =
  let spec = Dss_spec.make ~nthreads:2 (Reg.spec ()) in
  for seed = 1 to 10 do
    let heap, servers, a = make_abd ~nservers:3 ~nclients:2 in
    let rec_ = Recorder.create () in
    let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
    let writer ~ci v () =
      record ~tid:ci (Dss_spec.Prep (Reg.Write v)) (fun () ->
          a#prep_write ~ci v;
          Dss_spec.Ack);
      record ~tid:ci (Dss_spec.Exec (Reg.Write v)) (fun () ->
          a#exec_write ~ci;
          Dss_spec.Ret Reg.Ok);
      record ~tid:ci (Dss_spec.Base Reg.Read) (fun () ->
          Dss_spec.Ret (Reg.Value (a#read ~ci)));
      a#finished
    in
    let outcome =
      Sim.run heap ~policy:(Sim.Random_seed seed)
        ~threads:(servers ~until:2 @ [ writer ~ci:0 10; writer ~ci:1 20 ])
    in
    Sim.check_thread_errors outcome;
    match Lincheck.check ~mode:Lincheck.Strict spec (Recorder.history rec_) with
    | Lincheck.Linearizable _ -> ()
    | Lincheck.Not_linearizable _ -> Alcotest.failf "seed %d: not linearizable" seed
  done

(* The crux: crash the whole system at every step of a detectable write;
   restart the servers; resolve; read.  The verdict must match what the
   (recorded) read observes, and the whole history must be recoverable-
   linearizable. *)
let test_crash_sweep_resolve () =
  let spec = Dss_spec.make ~nthreads:1 (Reg.spec ()) in
  let setup () = make_abd ~nservers:3 ~nclients:1 in
  List.iter
    (fun evict_p ->
      ignore
      @@ sweep_crashes ~setup ~heap:abd_heap ~evict_p
           ~seed:(fun step -> 800_000 + step)
           (fun ~step (_, servers, a) ->
             let rec_ = Recorder.create () in
             let record ~tid op f = ignore (Recorder.record rec_ ~tid op f) in
             let client () =
               record ~tid:0 (Dss_spec.Prep (Reg.Write 5)) (fun () ->
                   a#prep_write ~ci:0 5;
                   Dss_spec.Ack);
               record ~tid:0 (Dss_spec.Exec (Reg.Write 5)) (fun () ->
                   a#exec_write ~ci:0;
                   Dss_spec.Ret Reg.Ok);
               a#finished
             in
             ( servers ~until:1 @ [ client ],
               fun outcome -> function
                 | None -> Sim.check_thread_errors outcome
                 | Some (heap, servers, a) -> (
                     Recorder.crash rec_;
                     (* Restart: fresh server incarnations, client resolves
                        then reads; messages from before the crash are
                        gone. *)
                     let verdict = ref `Nothing in
                     let observed = ref (-1) in
                     let client2 () =
                       record ~tid:0 Dss_spec.Resolve (fun () ->
                           let r = a#resolve ~ci:0 in
                           verdict := r;
                           match r with
                           | `Nothing -> Dss_spec.Status (None, None)
                           | `Pending v ->
                               Dss_spec.Status (Some (Reg.Write v), None)
                           | `Done v ->
                               Dss_spec.Status (Some (Reg.Write v), Some Reg.Ok));
                       record ~tid:0 (Dss_spec.Base Reg.Read) (fun () ->
                           let v = a#read ~ci:0 in
                           observed := v;
                           Dss_spec.Ret (Reg.Value v));
                       a#finished
                     in
                     let outcome2 =
                       Sim.run heap ~policy:(Sim.Random_seed step)
                         ~threads:(servers ~until:1 @ [ client2 ])
                     in
                     Sim.check_thread_errors outcome2;
                     (* Verdict/observation consistency (single writer): *)
                     (match !verdict with
                     | `Done 5 ->
                         Alcotest.(check int)
                           (Printf.sprintf "done => readable (step %d)" step)
                           5 !observed
                     | `Pending 5 | `Nothing ->
                         Alcotest.(check int)
                           (Printf.sprintf "pending => sealed forever (step %d)"
                              step)
                           0 !observed
                     | _ -> Alcotest.failf "odd verdict at step %d" step);
                     (* Full history: recoverable linearizability
                        (persistent atomicity), the paper's condition for
                        this model. *)
                     match
                       Lincheck.check ~mode:Lincheck.Recoverable spec
                         (Recorder.history rec_)
                     with
                     | Lincheck.Linearizable _ -> ()
                     | Lincheck.Not_linearizable _ ->
                         Alcotest.failf "step %d: not recoverable-linearizable"
                           step) )))
    [ 0.0; 0.5 ]

let test_double_crash_stable_verdict () =
  (* Crash during the RESOLUTION too: once any resolve has returned a
     verdict, later resolves agree. *)
  let setup () = make_abd ~nservers:3 ~nclients:1 in
  for step1 = 4 to 40 do
    let ((heap, servers, a) as live) = setup () in
    let client () =
      a#prep_write ~ci:0 5;
      a#exec_write ~ci:0;
      a#finished
    in
    let o1 =
      Sim.run heap ~crash:(Sim.Crash_at_step step1)
        ~threads:(servers ~until:1 @ [ client ])
    in
    if o1.Sim.crashed then begin
      let ((heap, servers, a) as restarted) =
        restart ~setup ~heap:abd_heap live ~evict_p:0.5 ~seed:step1
      in
      (* First resolution attempt, itself crashed somewhere. *)
      let r1 = ref None in
      let resolver () =
        r1 := Some (a#resolve ~ci:0);
        a#finished
      in
      let o2 =
        Sim.run heap
          ~crash:(Sim.Crash_at_step (step1 mod 17 * 3))
          ~threads:(servers ~until:1 @ [ resolver ])
      in
      let heap, servers, a =
        if o2.Sim.crashed then
          restart ~setup ~heap:abd_heap restarted ~evict_p:0.5 ~seed:(step1 + 1)
        else restarted
      in
      (* Second resolution runs to completion. *)
      let r2 = ref None in
      let resolver2 () =
        r2 := Some (a#resolve ~ci:0);
        a#finished
      in
      let o3 =
        Sim.run heap ~policy:(Sim.Random_seed step1)
          ~threads:(servers ~until:1 @ [ resolver2 ])
      in
      Sim.check_thread_errors o3;
      match (!r1, !r2) with
      | Some v1, Some v2 when not o2.Sim.crashed ->
          Alcotest.(check bool)
            (Printf.sprintf "verdicts agree (step %d)" step1)
            true (v1 = v2)
      | _, Some _ -> () (* first resolve was cut before returning *)
      | _ -> Alcotest.fail "second resolve did not finish"
    end
  done

let suite =
  [
    Alcotest.test_case "net: send/recv" `Quick test_net_basics;
    Alcotest.test_case "net: messages are volatile" `Quick
      test_net_messages_are_volatile;
    Alcotest.test_case "abd: failure-free write/read/resolve" `Quick
      test_failure_free_write_read;
    Alcotest.test_case "abd: failure-free linearizable" `Quick
      test_failure_free_linearizable;
    Alcotest.test_case "abd: crash sweep, resolve decides conclusively"
      `Quick test_crash_sweep_resolve;
    Alcotest.test_case "abd: verdict stable across crashes in resolve"
      `Quick test_double_crash_stable_verdict;
  ]
