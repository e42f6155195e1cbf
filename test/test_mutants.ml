(** Mutation regression: the checker must catch code that is correct
    except for one seeded crash-consistency bug.  Each named mutant of
    {!Dssq_checker.Mutants} is run against the queue crash corpus; the
    test passes only if some case raises a {!Explore.Violation} whose
    payload is {!Oracle.Not_linearizable}, and the violation's schedule
    token replays to the same failure.  The unmutated queue passes the
    identical corpus — the flags are the bugs, not noise. *)

open Helpers
module Scenarios = Dssq_checker.Scenarios
module Mutants = Dssq_checker.Mutants
module Oracle = Dssq_checker.Oracle

let corpus ?(coalesce = false) ?(combine = false) ?persistency ?mutation () =
  Scenarios.cases ~objects:[ "queue" ] ~crash_modes:[ true ]
    ~line_sizes:[ 1; 8 ] ~coalesce ~combine ?persistency ?mutation ()

let test_correct_queue_passes ?coalesce ?combine ?persistency ?mutation
    ?(what = "unmutated") () =
  List.iter
    (fun (c : Scenarios.case) ->
      match c.Scenarios.run ~reduction:true with
      | (_ : Explore.stats) -> ()
      | exception Explore.Violation { schedule; exn } ->
          Alcotest.failf "%s %s flagged at %s: %s" what c.Scenarios.name
            (Explore.schedule_to_string schedule)
            (Printexc.to_string exn))
    (corpus ?coalesce ?combine ?persistency ?mutation ())

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A mutant counts as caught when the checker flags it as a strict-
   linearizability violation — or, with [structural], as a corrupted
   recovered structure: under px86 a lost persist can first surface as a
   completion claim whose node never made it into the recovered queue,
   which is the same bug caught by the other oracle. *)
let assert_flagged ?(structural = false) ~name = function
  | Oracle.Not_linearizable _ -> ()
  | Failure msg when structural && contains msg "recovered-structure" -> ()
  | e ->
      Alcotest.failf "mutant %s flagged with the wrong exception: %s" name
        (Printexc.to_string e)

let test_mutant ?coalesce ?combine ?persistency ?structural name mutation () =
  let rec hunt = function
    | [] -> Alcotest.failf "mutant %s (%s): no corpus case flagged it" name
              (Mutants.describe mutation)
    | (c : Scenarios.case) :: rest -> (
        match c.Scenarios.run ~reduction:true with
        | (_ : Explore.stats) -> hunt rest
        | exception Explore.Violation { schedule; exn } -> (
            assert_flagged ?structural ~name exn;
            (* the counterexample token is a faithful reproduction
               recipe: replaying it on a fresh scenario fails the same
               way, per-line eviction verdicts included *)
            match c.Scenarios.replay schedule with
            | (_ : [ `Completed | `Crashed ]) ->
                Alcotest.failf "mutant %s: token %s did not reproduce on %s"
                  name
                  (Explore.schedule_to_string schedule)
                  c.Scenarios.name
            | exception Explore.Violation { schedule = schedule'; exn = exn' }
              ->
                assert_flagged ?structural ~name exn';
                Alcotest.(check string)
                  "replay follows the recorded schedule"
                  (Explore.schedule_to_string schedule)
                  (Explore.schedule_to_string schedule')))
  in
  hunt (corpus ?coalesce ?combine ?persistency ~mutation ())

(* Flush coalescing must not change the checker's verdicts: the same
   corpus passes with every flush routed through the persist buffer, and
   a mutant that drops the buffer's drains — so coalesced flushes are
   never written back — is caught.  (Under eager flushing drop-drain is
   a no-op, which is why it gets its own coalesced cases here instead of
   joining the [Mutants.all] loop.) *)
let drop_drain =
  match Mutants.by_name "drop-drain" with
  | Some m -> m
  | None -> assert false

let reorder_persist =
  match Mutants.by_name "reorder-persist" with
  | Some m -> m
  | None -> assert false

let px86 = Dssq_pmem.Heap.Persistency.Px86

(* The relaxed matrix.  Every relaxed mutant weakens only the
   flush-to-drain window, which does not exist under sc — so the sc
   corpus must stay green with the mutation active (no false alarms),
   and only the buffered sweep may catch it.  [reorder-persist]
   (FIFO-order violation inside the buffer) is provably masked in the
   hardened queue — every inter-line persist ordering it could break is
   drain-mediated — so its px86 corpus passing is the standing
   robustness regression, not a missed bug. *)
let relaxed_invisible_under_sc =
  List.map
    (fun (name, mutation) ->
      Alcotest.test_case
        (Printf.sprintf "mutant %s is invisible under sc" name)
        `Quick
        (fun () ->
          test_correct_queue_passes ~mutation
            ~what:(Printf.sprintf "sc-mutated (%s)" name)
            ()))
    (Mutants.relaxed @ [ ("reorder-persist", reorder_persist) ])

let relaxed_caught_under_px86 =
  List.map
    (fun (name, mutation) ->
      Alcotest.test_case
        (Printf.sprintf "mutant %s is caught under px86" name)
        `Quick
        (test_mutant ~persistency:px86 ~structural:true name mutation))
    Mutants.relaxed

(* The flat-combining matrix.  [lost-batch] inverts the engine's
   install-then-epoch ordering, so it is only reachable through the
   combining path: the combining corpus — which swaps in the engine
   objects for this mutant (see {!Scenarios.cases}) — must catch it,
   and the same flag must be invisible with combining off (the
   injection hook is never read by eager installs).  Combining under
   px86 is the same persist policy as combining alone, so it has no
   cases of its own. *)
let lost_batch =
  match Mutants.by_name "lost-batch" with
  | Some m -> m
  | None -> assert false

let combine_suite =
  [
    Alcotest.test_case "unmutated combining queue passes the crash corpus"
      `Quick (fun () ->
        test_correct_queue_passes ~combine:true ~what:"combining" ());
    Alcotest.test_case "mutant lost-batch is caught under combining" `Quick
      (test_mutant ~combine:true "lost-batch" lost_batch);
    Alcotest.test_case "mutant lost-batch is invisible with combining off"
      `Quick
      (fun () ->
        test_correct_queue_passes ~mutation:lost_batch
          ~what:"eager (lost-batch)" ());
  ]

(* The interposer matches on names, which allocation now defers: it must
   still see them, and still exempt the recovery infrastructure.  A
   skip-flush mutant whose pattern "[" matches every WAL slot word
   ("wal[i][j]") and every root entry ("roots.name[i]") as well as the
   object word "obj[0]" drops only the object's flush. *)
let test_infra_exempt () =
  let heap = Heap.create () in
  let (module W) =
    Mutants.wrap ~policy:(Heap.policy heap) (Mutants.Skip_flush "[")
      (Sim.memory heap)
  in
  let module Wal = Dssq_pmem.Wal.Make (W) in
  let module Roots = Dssq_pmem.Roots.Make (W) in
  let wal = Wal.create ~lanes:1 ~lane_capacity:2 () in
  let roots = Roots.create ~capacity:1 () in
  let obj = W.alloc ~name:(fun () -> "obj[0]") 0 in
  Wal.append wal ~lane:0 ~kind:Dssq_pmem.Wal.Codec.kind_alloc ~a:1 ~b:2;
  ignore (Roots.register roots ~name:"queue" ~value:5 : int);
  W.write obj 9;
  W.flush obj;
  W.drain ();
  (* Power loss that keeps only what was written back. *)
  Heap.crash heap ~evict:(fun () -> false);
  Alcotest.(check int) "the WAL record survived" 1
    (List.length (fst (Wal.replay wal)));
  Alcotest.(check (option int)) "the root survived" (Some 5)
    (Roots.lookup roots "queue");
  Alcotest.(check int) "the object's flush was dropped" 0 (W.read obj)

let suite =
  (Alcotest.test_case "mutants exempt the WAL and root directory" `Quick
     test_infra_exempt
  :: Alcotest.test_case "unmutated queue passes the crash corpus" `Quick
     (fun () -> test_correct_queue_passes ())
  :: Alcotest.test_case "coalesced queue passes the same corpus" `Quick
       (fun () -> test_correct_queue_passes ~coalesce:true ())
  :: Alcotest.test_case "px86 queue passes the same corpus" `Quick
       (fun () ->
         test_correct_queue_passes ~persistency:px86 ~what:"px86" ())
  :: Alcotest.test_case "mutant drop-drain is caught under coalescing" `Quick
       (test_mutant ~coalesce:true "drop-drain" drop_drain)
  :: List.map
       (fun (name, mutation) ->
         Alcotest.test_case
           (Printf.sprintf "mutant %s is caught" name)
           `Quick
           (test_mutant name mutation))
       Mutants.all)
  @ relaxed_invisible_under_sc @ relaxed_caught_under_px86 @ combine_suite
  @ [
      Alcotest.test_case
        "mutant reorder-persist stays masked under px86 (drain-mediated)"
        `Quick
        (fun () ->
          test_correct_queue_passes ~persistency:px86 ~mutation:reorder_persist
            ~what:"px86 reorder-persist" ());
    ]
