(* Crash and recovery walkthrough — the executions of Figure 2 of the
   paper, reproduced live on the simulator, first on a detectable
   register (D<register>, via the universal construction) and then on
   the DSS queue with its native recovery procedure.

   Run:  dune exec examples/crash_recovery.exe *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Spec = Dssq_spec.Spec
module Dss_spec = Dssq_spec.Dss_spec
module Reg = Dssq_spec.Specs.Register
open Dssq_core.Queue_intf

let section title =
  Printf.printf "\n=== %s ===\n" title

(* ---------------------------------------------------------------- *)
(* Part 1: Figure 2 on D<register>                                   *)
(* ---------------------------------------------------------------- *)

(* The world Figure 2 runs in: one detectable register over the
   universal construction.  A crash restarts cold: a second copy of the
   world, set up the same way, is loaded with the image the crash left
   in persistent memory, and nothing volatile survives. *)
module Register_world (M : Dssq_memory.Memory_intf.S) = struct
  module U = Dssq_universal.Universal.Make (M)

  let u = U.create ~nthreads:1 ~capacity:16 (Reg.spec ())
end

(* Run "prep-write(1); exec-write(1)" and crash at [crash_step]
   (or run to completion if the step is beyond the program).  Returns
   the post-recovery resolution. *)
let figure2_run ~crash_step ~evict_p =
  let live = Heap.create () in
  let (module L) = Sim.memory live in
  let module L = Register_world (L) in
  Heap.log_persists live;
  let thread () =
    L.U.prep L.u ~tid:0 (Reg.Write 1);
    ignore (L.U.exec L.u ~tid:0 (Reg.Write 1))
  in
  let outcome = Sim.run live ~crash:(Sim.Crash_at_step crash_step) ~threads:[ thread ] in
  if not outcome.Sim.crashed then (false, L.U.resolve L.u ~tid:0)
  else begin
    let heap = Heap.create () in
    let (module M) = Sim.memory heap in
    let module W = Register_world (M) in
    Sim.restart live ~into:heap ~evict_p ~seed:crash_step;
    (true, W.U.resolve W.u ~tid:0)
  end

let pp_reg_resolution (a, r) =
  let op = function
    | Some (Reg.Write v) -> Printf.sprintf "write(%d)" v
    | Some Reg.Read -> "read"
    | None -> "_|_"
  in
  let resp = function
    | Some Reg.Ok -> "OK"
    | Some (Reg.Value v) -> string_of_int v
    | None -> "_|_"
  in
  Printf.sprintf "(%s, %s)" (op a) (resp r)

let () =
  section "Figure 2: detectable register, crash at every point";
  let step = ref 0 in
  let running = ref true in
  while !running do
    let crashed, resolution = figure2_run ~crash_step:!step ~evict_p:0.0 in
    if crashed then
      Printf.printf "crash after step %2d -> resolve returns %s\n" !step
        (pp_reg_resolution resolution)
    else begin
      Printf.printf "no crash          -> resolve returns %s   (execution (a))\n"
        (pp_reg_resolution resolution);
      running := false
    end;
    incr step
  done;
  print_endline
    "Outcomes (write(1), OK) / (write(1), _|_) / (_|_, _|_) correspond to\n\
     executions (a)-(d) of the paper: the crash point determines which are\n\
     legal, and resolve never lies about whether the write took effect."

(* ---------------------------------------------------------------- *)
(* Part 2: the DSS queue, crash mid-operation, recover, resolve       *)
(* ---------------------------------------------------------------- *)

let () =
  section "DSS queue: crash mid-enqueue, recover, resolve, retry";
  let module World (M : Dssq_memory.Memory_intf.S) = struct
    module Q = Dssq_core.Dss_queue.Make (M)

    let q = Q.create ~nthreads:2 ~capacity:64 ()
    let () = Q.enqueue q ~tid:1 7 (* pre-existing state *)
  end in
  let live = Heap.create () in
  let (module L) = Sim.memory live in
  let module L = World (L) in
  Heap.log_persists live;

  (* Thread 0 prepares and starts applying enqueue(42); the system
     crashes somewhere in the middle. *)
  let thread () =
    L.Q.prep_enqueue L.q ~tid:0 42;
    L.Q.exec_enqueue L.q ~tid:0
  in
  let outcome = Sim.run live ~crash:(Sim.Crash_at_step 9) ~threads:[ thread ] in
  Printf.printf "system crashed: %b\n" outcome.Sim.crashed;

  (* Power comes back: unflushed cache lines are gone, and so is every
     volatile structure.  A fresh world starts from what persisted. *)
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module W = World (M) in
  let module Q = W.Q in
  let q = W.q in
  Sim.restart live ~into:heap ~evict_p:0.0 ~seed:1;
  Q.recover q;

  (* The thread resumes under the same id and asks what happened. *)
  (match Q.resolve q ~tid:0 with
  | Enq_done v ->
      Printf.printf "resolve: enqueue(%d) TOOK EFFECT — nothing to redo\n" v
  | Enq_pending v ->
      Printf.printf
        "resolve: enqueue(%d) did NOT take effect — retrying exactly once\n" v;
      Q.exec_enqueue q ~tid:0
  | Nothing -> print_endline "resolve: nothing was even prepared"
  | _ -> assert false);

  let rec drain acc =
    let v = Q.dequeue q ~tid:1 in
    if v = empty_value then List.rev acc else drain (v :: acc)
  in
  let contents = drain [] in
  Printf.printf "queue contents after recovery + retry: [%s]\n"
    (String.concat "; " (List.map string_of_int contents));
  assert (List.filter (( = ) 42) contents = [ 42 ])

(* ---------------------------------------------------------------- *)
(* Part 3: crash mid-dequeue — the value is never lost nor duplicated *)
(* ---------------------------------------------------------------- *)

let () =
  section "DSS queue: crash mid-dequeue at every step";
  let outcomes = Hashtbl.create 8 in
  let step = ref 0 in
  let running = ref true in
  let module World (M : Dssq_memory.Memory_intf.S) = struct
    module Q = Dssq_core.Dss_queue.Make (M)

    let q = Q.create ~nthreads:1 ~capacity:64 ()
    let () = List.iter (fun v -> Q.enqueue q ~tid:0 v) [ 1; 2; 3 ]
  end in
  while !running do
    let live = Heap.create () in
    let (module L) = Sim.memory live in
    let module L = World (L) in
    Heap.log_persists live;
    let thread () =
      L.Q.prep_dequeue L.q ~tid:0;
      ignore (L.Q.exec_dequeue L.q ~tid:0)
    in
    let outcome = Sim.run live ~crash:(Sim.Crash_at_step !step) ~threads:[ thread ] in
    if not outcome.Sim.crashed then running := false
    else begin
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module W = World (M) in
      let module Q = W.Q in
      let q = W.q in
      Sim.restart live ~into:heap ~evict_p:0.5 ~seed:!step;
      Q.recover q;
      let status =
        match Q.resolve q ~tid:0 with
        | Deq_done v -> Printf.sprintf "took effect (got %d)" v
        | Deq_pending ->
            ignore (Q.exec_dequeue q ~tid:0);
            "pending -> retried"
        | Nothing -> "prep lost -> would re-prepare"
        | _ -> assert false
      in
      Hashtbl.replace outcomes status
        (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes status))
    end;
    incr step
  done;
  Hashtbl.iter
    (fun status n -> Printf.printf "%-28s at %2d crash points\n" status n)
    outcomes;
  print_endline "In every case the head value was consumed exactly once."
