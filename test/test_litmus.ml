(** Litmus tests pinning down the simulated memory model: sequential
    consistency, as on the paper's testbed (C++ seq_cst atomics,
    Section 4).  Each test enumerates ALL interleavings with the
    explorer, so "the forbidden outcome never occurs" is exhaustive, not
    sampled. *)

open Helpers

(* SB (store buffering): with SC, (r0, r1) = (0, 0) is forbidden. *)
let test_store_buffering () =
  let seen_00 = ref false in
  ignore
    (Explore.run
       (Explore.make
          ~setup:(fun () ->
            let heap = Heap.create () in
            let (module M) = Sim.memory heap in
            let x = M.alloc 0 and y = M.alloc 0 in
            let r0 = ref (-1) and r1 = ref (-1) in
            {
              Explore.history = Explore.no_history;
              ctx = (r0, r1);
              heap;
              threads =
                [
                  (fun () ->
                    M.write x 1;
                    r0 := M.read y);
                  (fun () ->
                    M.write y 1;
                    r1 := M.read x);
                ];
            })
          ~check:(fun (r0, r1) _ ~crashed:_ ->
            if !r0 = 0 && !r1 = 0 then seen_00 := true)
          ()));
  Alcotest.(check bool) "SB forbidden outcome (0,0) never occurs" false !seen_00

(* MP (message passing): if the reader sees the flag, it sees the data. *)
let test_message_passing () =
  ignore
    (Explore.run
       (Explore.make
          ~setup:(fun () ->
            let heap = Heap.create () in
            let (module M) = Sim.memory heap in
            let data = M.alloc 0 and flag = M.alloc 0 in
            let seen = ref (-1) in
            {
              Explore.history = Explore.no_history;
              ctx = seen;
              heap;
              threads =
                [
                  (fun () ->
                    M.write data 42;
                    M.write flag 1);
                  (fun () ->
                    if M.read flag = 1 then seen := M.read data);
                ];
            })
          ~check:(fun seen _ ~crashed:_ ->
            if !seen <> -1 then
              Alcotest.(check int) "flag implies data" 42 !seen)
          ()));
  ()

(* CoRR (coherence of read-read): two reads of one location by the same
   thread never observe new-then-old. *)
let test_coherence_rr () =
  ignore
    (Explore.run
       (Explore.make
          ~setup:(fun () ->
            let heap = Heap.create () in
            let (module M) = Sim.memory heap in
            let x = M.alloc 0 in
            let a = ref (-1) and b = ref (-1) in
            {
              Explore.history = Explore.no_history;
              ctx = (a, b);
              heap;
              threads =
                [
                  (fun () -> M.write x 1);
                  (fun () ->
                    a := M.read x;
                    b := M.read x);
                ];
            })
          ~check:(fun (a, b) _ ~crashed:_ ->
            Alcotest.(check bool) "no new-then-old" false (!a = 1 && !b = 0))
          ()));
  ()

(* IRIW (independent reads of independent writes): with SC the two
   readers never disagree on the order of the two writes. *)
let test_iriw () =
  ignore
    (Explore.run
       (Explore.make ~max_preemptions:3
          ~setup:(fun () ->
            let heap = Heap.create () in
            let (module M) = Sim.memory heap in
            let x = M.alloc 0 and y = M.alloc 0 in
            let r = Array.make 4 (-1) in
            {
              Explore.history = Explore.no_history;
              ctx = r;
              heap;
              threads =
                [
                  (fun () -> M.write x 1);
                  (fun () -> M.write y 1);
                  (fun () ->
                    r.(0) <- M.read x;
                    r.(1) <- M.read y);
                  (fun () ->
                    r.(2) <- M.read y;
                    r.(3) <- M.read x);
                ];
            })
          ~check:(fun r _ ~crashed:_ ->
            Alcotest.(check bool) "readers agree on write order" false
              (r.(0) = 1 && r.(1) = 0 && r.(2) = 1 && r.(3) = 0))
          ()));
  ()

(* Persistence litmus: the "flush data before writing the commit marker"
   idiom — after ANY crash (with or without eviction of the dirty
   lines), a persisted commit marker implies persisted data.  After a
   crash, volatile = persisted, so plain reads inspect the survivor
   state. *)
let test_persist_ordering () =
  ignore
    (Explore.run
       (Explore.make ~crashes:true
          ~setup:(fun () ->
            let heap = Heap.create () in
            let (module M) = Sim.memory heap in
            let data = M.alloc 0 and committed = M.alloc 0 in
            {
              Explore.history = Explore.no_history;
              ctx = (fun () -> (M.read data, M.read committed));
              heap;
              threads =
                [
                  (fun () ->
                    M.write data 42;
                    M.flush data;
                    (* commit marker only after the data persisted *)
                    M.write committed 1;
                    M.flush committed);
                ];
            })
          ~check:(fun get _heap ~crashed ->
            if crashed then begin
              let d, c = get () in
              if c = 1 then
                Alcotest.(check int) "commit implies data" 42 d
            end)
          ()));
  ()

(* ---------------------------------------------------------------------- *)
(* The DSS litmus corpus: every ready-made scenario of                      *)
(* Dssq_checker.Scenarios — all eight objects, 2-3 threads, with and      *)
(* without crash injection, persist-line sizes 1 and 8 — model-checked     *)
(* end to end with Lincheck as the oracle.                                 *)
(* ---------------------------------------------------------------------- *)

module Scenarios = Dssq_checker.Scenarios

let corpus_case (c : Scenarios.case) () =
  match c.Scenarios.run ~reduction:true with
  | (stats : Explore.stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s explored something (%d executions)"
           c.Scenarios.name stats.Explore.executions)
        true
        (stats.Explore.executions > 0);
      if c.Scenarios.crashes then
        Alcotest.(check bool)
          (Printf.sprintf "%s explored crash branches" c.Scenarios.name)
          true
          (stats.Explore.crash_branches > 0)
  | exception Explore.Violation { schedule; exn } ->
      Alcotest.failf "%s not linearizable at %s: %s" c.Scenarios.name
        (Explore.schedule_to_string schedule)
        (Printexc.to_string exn)

let corpus_suite =
  List.map
    (fun (c : Scenarios.case) ->
      Alcotest.test_case c.Scenarios.name `Quick (corpus_case c))
    (Scenarios.cases ())

(* Allocation-window litmus under buffered persistency: crashes landing
   mid-alloc / mid-link while the enqueue's flushes still sit in the
   persist buffer.  Every enumerated crash execution routes through the
   system-level reattach, which raises if the post-recovery audit finds
   a leaked node — so a clean run IS the zero-leak assertion, over every
   drain prefix and eviction verdict the px86 adversary can produce. *)
let px86_alloc_window_suite =
  List.filter_map
    (fun (c : Scenarios.case) ->
      match c.Scenarios.prog with
      | "mid-alloc" | "mid-link" ->
          Some
            (Alcotest.test_case c.Scenarios.name `Quick (fun () ->
                 match c.Scenarios.run ~reduction:true with
                 | (stats : Explore.stats) ->
                     Alcotest.(check bool)
                       (Printf.sprintf "%s branched on drain prefixes"
                          c.Scenarios.name)
                       true
                       (stats.Explore.drain_branches > 0)
                 | exception Explore.Violation { schedule; exn } ->
                     Alcotest.failf "%s flagged at %s: %s" c.Scenarios.name
                       (Explore.schedule_to_string schedule)
                       (Printexc.to_string exn)))
      | _ -> None)
    (Scenarios.cases ~objects:[ "queue" ] ~crash_modes:[ true ]
       ~line_sizes:[ 1; 8 ]
       ~params:{ Scenarios.default_params with policy = Px86 }
       ())

let suite =
  corpus_suite @ px86_alloc_window_suite
  @ [
    Alcotest.test_case "SB: store buffering forbidden" `Quick
      test_store_buffering;
    Alcotest.test_case "MP: message passing" `Quick test_message_passing;
    Alcotest.test_case "CoRR: read-read coherence" `Quick test_coherence_rr;
    Alcotest.test_case "IRIW: readers agree" `Quick test_iriw;
    Alcotest.test_case "persist ordering: commit implies data" `Quick
      test_persist_ordering;
  ]
