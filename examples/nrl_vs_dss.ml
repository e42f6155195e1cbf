(* DSS vs NRL, side by side — the paper's central comparison (Sections
   1-2), executed.

   Same object (a recoverable register), same crash. Under DSS, the
   recovering thread calls resolve, learns whether its write took effect,
   and decides what to do — including doing nothing. Under NRL, the
   system finds the pending operation (via the frame stack it must
   maintain) and its recovery function COMPLETES the write,
   unconditionally. And under DSS, a plain write pays no detection cost
   at all, while every NRL operation carries the announcement overhead —
   we print the flush counts to make that concrete.

   Run:  dune exec examples/nrl_vs_dss.exe *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  section "Crash mid-write: DSS resolve (report) vs NRL recovery (complete)";
  (* DSS side. *)
  let dss_outcomes = Hashtbl.create 4 in
  let nrl_outcomes = Hashtbl.create 4 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let steps = ref 0 in
  let running = ref true in
  (* Each side's world, set up the same way every time: a crash
     restarts cold, into a fresh copy loaded with the image the crash
     left in persistent memory. *)
  let module Dss_world (M : Dssq_memory.Memory_intf.S) = struct
    module R = Dssq_core.Dss_register.Make (M)

    let r = R.create ~nthreads:1 ()
  end in
  let module Nrl_world (M : Dssq_memory.Memory_intf.S) = struct
    module N = Dssq_nrl.Nrl.Make (M)

    let sys = N.System.create ~nthreads:1 ~max_depth:4
    let nr = N.Register.create ~sys ~obj_id:1 ~nthreads:1 ()
  end in
  while !running do
    (* --- DSS --- *)
    let live = Heap.create () in
    let (module L) = Sim.memory live in
    let module L = Dss_world (L) in
    Heap.log_persists live;
    let t () =
      L.R.prep_write L.r ~tid:0 5;
      L.R.exec_write L.r ~tid:0
    in
    let outcome = Sim.run live ~crash:(Sim.Crash_at_step !steps) ~threads:[ t ] in
    if not outcome.Sim.crashed then running := false
    else begin
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module W = Dss_world (M) in
      let module R = W.R in
      Sim.restart live ~into:heap ~evict_p:0.0 ~seed:!steps;
      (match R.resolve W.r ~tid:0 with
      | R.Write_done _ -> bump dss_outcomes "resolve: took effect — app may skip redo"
      | R.Write_pending _ -> bump dss_outcomes "resolve: no effect — app decides (redo or drop)"
      | R.Nothing -> bump dss_outcomes "resolve: nothing prepared"
      | _ -> ());
      (* --- NRL, same crash point --- *)
      let live2 = Heap.create () in
      let (module L2) = Sim.memory live2 in
      let module L2 = Nrl_world (L2) in
      Heap.log_persists live2;
      let t2 () = L2.N.Register.write L2.nr ~tid:0 5 in
      let o2 = Sim.run live2 ~crash:(Sim.Crash_at_step !steps) ~threads:[ t2 ] in
      if o2.Sim.crashed then begin
        let heap2 = Heap.create () in
        let (module M2) = Sim.memory heap2 in
        let module W2 = Nrl_world (M2) in
        let module N = W2.N in
        Sim.restart live2 ~into:heap2 ~evict_p:0.0 ~seed:!steps;
        match N.System.recover_process W2.sys ~tid:0 with
        | [] -> bump nrl_outcomes "no pending frame (op never started or finished)"
        | _ ->
            assert (N.Register.read W2.nr = 5);
            bump nrl_outcomes "recovery COMPLETED the write (register = 5)"
      end
    end;
    incr steps
  done;
  Printf.printf "DSS outcomes across %d crash points:\n" !steps;
  Hashtbl.iter (fun k n -> Printf.printf "  %-52s x%d\n" k n) dss_outcomes;
  Printf.printf "NRL outcomes across the same crash points:\n";
  Hashtbl.iter (fun k n -> Printf.printf "  %-52s x%d\n" k n) nrl_outcomes;

  section "Detectability on demand: per-operation cost (flushes)";
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module R = Dssq_core.Dss_register.Make (M) in
  let module N = Dssq_nrl.Nrl.Make (M) in
  let r = R.create ~nthreads:1 () in
  let sys = N.System.create ~nthreads:1 ~max_depth:4 in
  let nr = N.Register.create ~sys ~obj_id:1 ~nthreads:1 () in
  let count f =
    Heap.reset_stats heap;
    f ();
    (Heap.stats heap).Heap.flushes
  in
  let plain = count (fun () -> R.write r ~tid:0 1) in
  let detectable =
    count (fun () ->
        R.prep_write r ~tid:0 2;
        R.exec_write r ~tid:0)
  in
  let nrl = count (fun () -> N.Register.write nr ~tid:0 3) in
  Printf.printf "  DSS plain write       : %d flushes  (detectability not requested)\n" plain;
  Printf.printf "  DSS detectable write  : %d flushes  (prep + exec)\n" detectable;
  Printf.printf "  NRL recoverable write : %d flushes  (always: frame push/pop + detectable write)\n" nrl;
  print_endline
    "\nDSS lets the application choose, per operation, whether to pay for\n\
     detection; NRL charges every operation, and additionally needs the\n\
     frame-stack machinery that the DSS paper points out is assumed, not\n\
     provided, by the NRL model."
