(** Tests for the NRL comparison layer: recoverable operations whose
    recovery COMPLETES them (vs DSS resolve, which reports), driven by
    the frame-stack "system support" that NRL assumes — including nested
    operations recovered inner-most first, as the NRL model specifies. *)

open Helpers

(* Functor-generated types cannot escape their scope, so every scenario
   instantiates its world inline. *)

let test_register_failure_free () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module N = Dssq_nrl.Nrl.Make (M) in
  let sys = N.System.create ~nthreads:2 ~max_depth:4 in
  let r = N.Register.create ~sys ~obj_id:1 ~nthreads:2 () in
  N.Register.write r ~tid:0 5;
  Alcotest.(check int) "written" 5 (N.Register.read r);
  Alcotest.(check int) "no pending frames" 0
    (List.length (N.System.recover_process sys ~tid:0))

(* A crash restarts cold: a second copy of the world, set up the same
   way, is loaded with the image the crash left. *)
module Register_world (M : Dssq_memory.Memory_intf.S) = struct
  module N = Dssq_nrl.Nrl.Make (M)

  let sys = N.System.create ~nthreads:1 ~max_depth:4
  let r = N.Register.create ~sys ~obj_id:1 ~nthreads:1 ()
end

module Counter_world (M : Dssq_memory.Memory_intf.S) = struct
  module N = Dssq_nrl.Nrl.Make (M)

  let sys = N.System.create ~nthreads:1 ~max_depth:4
  let c = N.Counter.create ~sys ~obj_id:2 ~nthreads:1 ()
end

(* Composite object 50: write (arg) to r1 and (arg2) to r2, with
   recovery hooks that log the order they run in. *)
module Nested_world (M : Dssq_memory.Memory_intf.S) = struct
  module N = Dssq_nrl.Nrl.Make (M)

  let sys = N.System.create ~nthreads:1 ~max_depth:4
  let r1 = N.Register.create ~sys ~obj_id:1 ~nthreads:1 ()
  let r2 = N.Register.create ~sys ~obj_id:2 ~nthreads:1 ()
  let order = ref []

  let () =
    N.System.register sys ~obj_id:50 ~recover:(fun ~tid frame ->
        order := `Outer :: !order;
        N.Register.write r1 ~tid frame.N.System.arg;
        N.Register.write r2 ~tid frame.N.System.arg2;
        0);
    (* Track inner recoveries through wrappers. *)
    N.System.register sys ~obj_id:1 ~recover:(fun ~tid frame ->
        order := `Inner1 :: !order;
        if N.Register.read r1 <> frame.N.System.arg then
          N.Register.write r1 ~tid frame.N.System.arg;
        0);
    N.System.register sys ~obj_id:2 ~recover:(fun ~tid frame ->
        order := `Inner2 :: !order;
        if N.Register.read r2 <> frame.N.System.arg then
          N.Register.write r2 ~tid frame.N.System.arg;
        0)
end

let test_register_crash_sweep () =
  (* NRL semantics: after ANY crash, recovery completes the interrupted
     write — the register must contain the value afterwards, always
     (contrast: DSS resolve may legitimately report "did not take
     effect" and leave redo to the application). *)
  List.iter
    (fun evict_p ->
      let finished = ref false in
      let step = ref 0 in
      while not !finished do
        let live = Heap.create () in
        let (module L) = Sim.memory live in
        let module L = Register_world (L) in
        Heap.log_persists live;
        let t () = L.N.Register.write L.r ~tid:0 5 in
        let outcome =
          Sim.run live ~crash:(Sim.Crash_at_step !step) ~threads:[ t ]
        in
        if not outcome.Sim.crashed then finished := true
        else begin
          let heap = Heap.create () in
          let (module M) = Sim.memory heap in
          let module W = Register_world (M) in
          let module N = W.N in
          Sim.restart live ~into:heap ~evict_p ~seed:(500_000 + !step);
          let recovered = N.System.recover_process W.sys ~tid:0 in
          (match recovered with
          | [] ->
              (* No pending frame: either the crash preceded the frame
                 persist (operation never happened; caller re-invokes) or
                 it hit after completion during the frame pop. *)
              Alcotest.(check bool)
                (Printf.sprintf "no frame => all-or-nothing (step %d)" !step)
                true
                (let v = N.Register.read W.r in
                 v = 0 || v = 5)
          | [ (frame, resp) ] ->
              Alcotest.(check int) "recovered write arg" 5 frame.N.System.arg;
              Alcotest.(check int) "response OK" 0 resp;
              Alcotest.(check int)
                (Printf.sprintf "write completed by recovery (step %d)" !step)
                5 (N.Register.read W.r)
          | _ -> Alcotest.fail "unexpected frame count");
          (* Recovery is idempotent: nothing left pending. *)
          Alcotest.(check int) "stack empty after recovery" 0
            (List.length (N.System.recover_process W.sys ~tid:0))
        end;
        incr step
      done)
    [ 0.0; 1.0; 0.5 ]

let test_counter_crash_sweep_exactly_once () =
  List.iter
    (fun evict_p ->
      let finished = ref false in
      let step = ref 0 in
      while not !finished do
        let live = Heap.create () in
        let (module L) = Sim.memory live in
        let module L = Counter_world (L) in
        Heap.log_persists live;
        let t () =
          L.N.Counter.add L.c ~tid:0 3;
          L.N.Counter.add L.c ~tid:0 4
        in
        let outcome =
          Sim.run live ~crash:(Sim.Crash_at_step !step) ~threads:[ t ]
        in
        if not outcome.Sim.crashed then begin
          Alcotest.(check int) "both adds" 7 (L.N.Counter.get L.c);
          finished := true
        end
        else begin
          let heap = Heap.create () in
          let (module M) = Sim.memory heap in
          let module W = Counter_world (M) in
          let module N = W.N in
          Sim.restart live ~into:heap ~evict_p ~seed:(600_000 + !step);
          let recovered = N.System.recover_process W.sys ~tid:0 in
          (* The interrupted add (if its frame persisted) completed
             exactly once; the total must be a prefix sum. *)
          let v = N.Counter.get W.c in
          let legal =
            match recovered with
            (* no pending frame: before the first add, between the adds,
               or after the second add completed (crash mid-pop) *)
            | [] -> v = 0 || v = 3 || v = 7
            | [ (f, _) ] when f.N.System.arg = 3 -> v = 3
            | [ (f, _) ] when f.N.System.arg = 4 -> v = 7
            | _ -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "prefix-sum after recovery (step %d, v=%d)" !step v)
            true legal
        end;
        incr step
      done)
    [ 0.0; 1.0; 0.5 ]

let test_nested_recovery_innermost_first () =
  (* A composite recoverable operation: "write both registers".  The
     system must recover the inner-most pending write first, then the
     composite's own recovery completes the remainder — the nesting
     behaviour NRL's model postulates (Section 2 of the paper quotes it). *)
  let finished = ref false in
  let step = ref 0 in
  while not !finished do
    let live = Heap.create () in
    let (module L) = Sim.memory live in
    let module L = Nested_world (L) in
    Heap.log_persists live;
    let t () =
      ignore
        (L.N.System.call L.sys ~tid:0 ~obj_id:50 ~opcode:9 ~arg:7 ~arg2:8
           (fun () ->
             L.N.Register.write L.r1 ~tid:0 7;
             L.N.Register.write L.r2 ~tid:0 8;
             0))
    in
    let outcome = Sim.run live ~crash:(Sim.Crash_at_step !step) ~threads:[ t ] in
    if not outcome.Sim.crashed then begin
      Alcotest.(check int) "r1" 7 (L.N.Register.read L.r1);
      Alcotest.(check int) "r2" 8 (L.N.Register.read L.r2);
      finished := true
    end
    else begin
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module W = Nested_world (M) in
      let module N = W.N in
      Sim.restart live ~into:heap ~evict_p:0.5 ~seed:(700_000 + !step);
      let recovered = N.System.recover_process W.sys ~tid:0 in
      if recovered <> [] then begin
        (* If both an inner and the outer frame were pending, the inner
           ran first. *)
        (match List.rev !(W.order) with
        | `Outer :: rest ->
            Alcotest.(check bool) "outer recovered without pending inner" true
              (rest = [] || not (List.mem `Outer rest))
        | (`Inner1 | `Inner2) :: _ -> () (* inner-first: correct *)
        | [] -> ());
        (* If the OUTER frame was among the recovered, the composite is
           complete afterwards. *)
        if
          List.exists
            (fun ((f : N.System.frame), _) -> f.N.System.obj_id = 50)
            recovered
        then begin
          Alcotest.(check int)
            (Printf.sprintf "r1 complete (step %d)" !step)
            7 (N.Register.read W.r1);
          Alcotest.(check int)
            (Printf.sprintf "r2 complete (step %d)" !step)
            8 (N.Register.read W.r2)
        end
      end
    end;
    incr step
  done

let test_frame_stack_depth_guard () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module N = Dssq_nrl.Nrl.Make (M) in
  let sys = N.System.create ~nthreads:1 ~max_depth:1 in
  Alcotest.check_raises "depth guard"
    (Invalid_argument "Nrl.System.call: too deep") (fun () ->
      ignore
        (N.System.call sys ~tid:0 ~obj_id:1 ~opcode:1 ~arg:0 (fun () ->
             N.System.call sys ~tid:0 ~obj_id:1 ~opcode:1 ~arg:0 (fun () -> 0))))

let test_announcement_cost_visible () =
  (* The NRL layer's per-operation overhead (frame push/pop, 4 flushed
     writes) must show up in the memory-event statistics — this is the
     "detectability on demand" contrast, quantified. *)
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module N = Dssq_nrl.Nrl.Make (M) in
  let module C = Dssq_core.Dss_cell.Make (M) in
  let sys = N.System.create ~nthreads:1 ~max_depth:2 in
  let r = N.Register.create ~sys ~obj_id:1 ~nthreads:1 () in
  let plain = C.create ~nthreads:1 0 in
  Heap.reset_stats heap;
  N.Register.write r ~tid:0 1;
  let nrl_flushes = (Heap.stats heap).Heap.flushes in
  Heap.reset_stats heap;
  C.write plain 1;
  let plain_flushes = (Heap.stats heap).Heap.flushes in
  Alcotest.(check bool)
    (Printf.sprintf "NRL write (%d flushes) > plain write (%d flushes)"
       nrl_flushes plain_flushes)
    true
    (nrl_flushes >= plain_flushes + 4)

let suite =
  [
    Alcotest.test_case "register: failure-free" `Quick
      test_register_failure_free;
    Alcotest.test_case "register: crash sweep, recovery completes" `Quick
      test_register_crash_sweep;
    Alcotest.test_case "counter: exactly-once across crashes" `Quick
      test_counter_crash_sweep_exactly_once;
    Alcotest.test_case "nested recovery, inner-most first" `Quick
      test_nested_recovery_innermost_first;
    Alcotest.test_case "frame stack depth guard" `Quick
      test_frame_stack_depth_guard;
    Alcotest.test_case "announcement cost is visible" `Quick
      test_announcement_cost_visible;
  ]
