(** The model checker checking itself: schedule-token round-trips,
    deterministic replay (per-line eviction verdicts and buffer-drain
    decisions included), sleep-set reduction soundness (same verdict as
    the naive search, strictly fewer executions on independent threads),
    iterative deepening boundaries, per-line crash-adversary coverage,
    and the buffered (px86) persistency axis: the drain adversary's
    extra reach, its equivalence with sc under drain-at-every-
    persistence-point programs, the report schema's v5 encoding, the
    live-handoff search pinned to the counts of the search that
    replayed every node, the whole corpus's counts at bound 1 pinned
    to a golden file, and the per-case verdict cache. *)

open Helpers

let with_mem ?policy () =
  let heap = Heap.create ?policy () in
  let (module M) = Sim.memory heap in
  (heap, (module M : Dssq_memory.Memory_intf.S))

(* ------------------------- token round-trip ------------------------- *)

let decision_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Explore.Sched t) (int_range 0 7);
        map
          (fun (tid, count) -> Explore.Bdrain { tid; count })
          (pair (int_range 0 3) (int_range 1 4));
        map
          (fun vs ->
            Explore.Crash
              (List.map
                 (fun (line, evicted) -> { Explore.line; evicted })
                 vs))
          (list_size (int_range 0 5) (pair (int_range 0 40) bool));
      ])

let schedule_arb =
  QCheck.make
    ~print:(fun s -> Explore.schedule_to_string s)
    QCheck.Gen.(list_size (int_range 0 12) decision_gen)

let prop_token_roundtrip =
  QCheck.Test.make ~count:500 ~name:"schedule token round-trips" schedule_arb
    (fun s ->
      Explore.schedule_of_string (Explore.schedule_to_string s) = s)

let test_token_examples () =
  let s =
    [
      Explore.Sched 0;
      Explore.Sched 1;
      Explore.Crash
        [
          { Explore.line = 3; evicted = true };
          { Explore.line = 5; evicted = false };
        ];
    ]
  in
  Alcotest.(check string) "rendering" "t0.t1.c3e,5d" (Explore.schedule_to_string s);
  Alcotest.(check bool)
    "parses back" true
    (Explore.schedule_of_string "t0.t1.c3e,5d" = s);
  (* A crash with no dirty lines renders as a bare "c". *)
  Alcotest.(check string) "empty crash" "t0.c"
    (Explore.schedule_to_string [ Explore.Sched 0; Explore.Crash [] ]);
  (* A buffer-drain decision: thread 0 writes back its two oldest
     buffered flushes before the crash verdicts apply. *)
  let drained =
    [
      Explore.Sched 0;
      Explore.Sched 1;
      Explore.Bdrain { tid = 0; count = 2 };
      Explore.Crash [ { Explore.line = 1; evicted = false } ];
    ]
  in
  Alcotest.(check string) "drain rendering" "t0.t1.b0:2.c1d"
    (Explore.schedule_to_string drained);
  Alcotest.(check bool)
    "drain parses back" true
    (Explore.schedule_of_string "t0.t1.b0:2.c1d" = drained);
  Alcotest.check_raises "malformed token rejected"
    (Invalid_argument "Explore.schedule_of_string: bad token \"x9\"")
    (fun () -> ignore (Explore.schedule_of_string "t0.x9"));
  List.iter
    (fun tok ->
      Alcotest.check_raises
        (Printf.sprintf "bad drain token %S rejected" tok)
        (Invalid_argument
           (Printf.sprintf "Explore.schedule_of_string: bad token %S" tok))
        (fun () -> ignore (Explore.schedule_of_string ("t0." ^ tok))))
    [ "b0" (* no colon *); "b0:0" (* count < 1 *); "b-1:2" (* negative tid *) ]

(* ------------------- reduction: sound and effective ------------------ *)

(* Random tiny scenarios: [n] threads, each doing 1-2 writes to cells
   drawn from a pool of [ncells].  The check fails on a random subset of
   final states, so both searches must agree not just on counts but on
   whether a violation exists at all. *)
let scenario_arb =
  QCheck.make
    ~print:(fun (n, ncells, ops, bad) ->
      Printf.sprintf "threads=%d cells=%d ops=%s bad=%d" n ncells
        (String.concat ";"
           (List.map
              (fun l -> String.concat "," (List.map string_of_int l))
              ops))
        bad)
    QCheck.Gen.(
      int_range 1 3 >>= fun n ->
      int_range 1 3 >>= fun ncells ->
      list_repeat n (list_size (int_range 1 2) (int_range 0 (ncells - 1)))
      >>= fun ops ->
      int_range 0 7 >>= fun bad -> return (n, ncells, ops, bad))

let explorer_of_scenario ?(reduction = true) (n, ncells, ops, bad) =
  ignore n;
  Explore.make ~reduction
    ~setup:(fun () ->
      let heap, (module M) = with_mem () in
      let cells = Array.init ncells (fun _ -> M.alloc 0) in
      let threads =
        List.mapi
          (fun i writes () ->
            List.iter (fun c -> M.write cells.(c) (i + 1)) writes)
          ops
      in
      let final () =
        Array.fold_left (fun acc c -> (2 * acc) + M.read c) 0 cells
      in
      { Explore.history = Explore.no_history; ctx = final; heap; threads })
    ~check:(fun get _heap ~crashed:_ ->
      (* fail when the final state hits a random target *)
      if get () mod 8 = bad then failwith "bad final state")
    ()

let verdict t =
  match Explore.run t with
  | (s : Explore.stats) -> Ok s.Explore.executions
  | exception Explore.Violation _ -> Error `Violation

let prop_reduction_sound =
  QCheck.Test.make ~count:60
    ~name:"reduced search: same verdict, no more executions" scenario_arb
    (fun sc ->
      let reduced = verdict (explorer_of_scenario ~reduction:true sc) in
      let naive = verdict (explorer_of_scenario ~reduction:false sc) in
      match (reduced, naive) with
      | Ok r, Ok n -> r <= n
      | Error `Violation, Error `Violation -> true
      | _ -> false)

let test_reduction_strictly_fewer () =
  (* Two threads, two writes each to thread-private cells: every
     inter-thread pair of steps is independent, so the sleep sets must
     prune — strictly fewer executions, same (passing) verdict. *)
  let make ~reduction =
    Explore.make ~reduction
      ~setup:(fun () ->
        let heap, (module M) = with_mem () in
        let a = M.alloc 0 and b = M.alloc 0 in
        {
          Explore.history = Explore.no_history;
          ctx = ();
          heap;
          threads =
            [
              (fun () ->
                M.write a 1;
                M.write a 2);
              (fun () ->
                M.write b 1;
                M.write b 2);
            ];
        })
      ~check:(fun () _heap ~crashed:_ -> ())
      ()
  in
  let reduced = Explore.run (make ~reduction:true) in
  let naive = Explore.run (make ~reduction:false) in
  Alcotest.(check bool)
    (Printf.sprintf "reduced %d < naive %d" reduced.Explore.executions
       naive.Explore.executions)
    true
    (reduced.Explore.executions < naive.Explore.executions);
  Alcotest.(check bool) "something was pruned" true (reduced.Explore.pruned > 0);
  Alcotest.(check int) "naive prunes nothing" 0 naive.Explore.pruned

(* ------------------------ iterative deepening ------------------------ *)

let count_at ?max_preemptions () =
  (Explore.run
     (Explore.make ~reduction:false ?max_preemptions
        ~setup:(fun () ->
          let heap, (module M) = with_mem () in
          let c = M.alloc 0 in
          {
            Explore.history = Explore.no_history;
            ctx = ();
            heap;
            threads = [ (fun () -> M.write c 1); (fun () -> M.write c 2) ];
          })
        ~check:(fun () _ ~crashed:_ -> ())
        ()))
    .Explore.executions

let test_preemption_bound_boundaries () =
  (* 0 preemptions: threads run to completion in either order => 2.
     Unbounded: all C(4,2) = 6 interleavings of 2x2 steps. *)
  Alcotest.(check int) "bound 0" 2 (count_at ~max_preemptions:0 ());
  Alcotest.(check int) "bound 1" 4 (count_at ~max_preemptions:1 ());
  Alcotest.(check int) "bound 2" 6 (count_at ~max_preemptions:2 ());
  Alcotest.(check int) "unbounded" 6 (count_at ())

(* ------------------------ per-line adversary ------------------------- *)

let crash_explorer ?max_crash_lines ?crash_samples ~adversary ~check () =
  Explore.make ~crashes:true ~adversary ?max_crash_lines ?crash_samples
    ~setup:(fun () ->
      let heap, (module M) = with_mem () in
      let data = M.alloc 0 and committed = M.alloc 0 in
      {
        Explore.history = Explore.no_history;
        ctx = (fun () -> (M.read data, M.read committed));
        heap;
        threads =
          [
            (fun () ->
              M.write data 42;
              M.write committed 1);
          ];
      })
    ~check ()

let test_per_line_enumerates_more () =
  let nop = fun _get _heap ~crashed:_ -> () in
  let per_line = Explore.run (crash_explorer ~adversary:`Per_line ~check:nop ()) in
  let aon =
    Explore.run (crash_explorer ~adversary:`All_or_nothing ~check:nop ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "per-line crash branches %d > all-or-nothing %d"
       per_line.Explore.crash_branches aon.Explore.crash_branches)
    true
    (per_line.Explore.crash_branches > aon.Explore.crash_branches)

let test_per_line_finds_mixed_eviction () =
  (* Unflushed commit marker: data and marker written back-to-back with
     no flushes.  All-or-nothing eviction keeps them consistent — only
     the per-line adversary reaches the state where the marker's line
     survived and the data's line did not. *)
  let check get _heap ~crashed =
    if crashed then begin
      let d, c = get () in
      if c = 1 && d = 0 then failwith "commit marker without data"
    end
  in
  ignore (Explore.run (crash_explorer ~adversary:`All_or_nothing ~check ()));
  match Explore.run (crash_explorer ~adversary:`Per_line ~check ()) with
  | _ -> Alcotest.fail "per-line adversary missed the mixed eviction"
  | exception Explore.Violation { schedule; _ } -> (
      match List.rev schedule with
      | Explore.Crash verdicts :: _ ->
          let evicted =
            List.filter (fun v -> v.Explore.evicted) verdicts
          and dropped =
            List.filter (fun v -> not v.Explore.evicted) verdicts
          in
          Alcotest.(check int) "one line evicted" 1 (List.length evicted);
          Alcotest.(check int) "one line dropped" 1 (List.length dropped)
      | _ -> Alcotest.fail "violating schedule does not end in a crash")

(* ------------------------- coverage telemetry ------------------------ *)

let nop_check = fun _get _heap ~crashed:_ -> ()

let test_telemetry_counts () =
  let s =
    Explore.run (crash_explorer ~adversary:`Per_line ~check:nop_check ())
  in
  Alcotest.(check bool) "branches counted" true (s.Explore.branches > 0);
  Alcotest.(check int)
    "every crash point is enumerated or sampled" s.Explore.crash_points
    (s.Explore.crash_enumerated + s.Explore.crash_sampled);
  Alcotest.(check bool) "crash points reached" true (s.Explore.crash_points > 0);
  Alcotest.(check int)
    "nothing sampled under the default cap" 0 s.Explore.crash_sampled;
  Alcotest.(check bool) "wall clock measured" true (s.Explore.wall_s >= 0.);
  (* [run] resets the counters, so stats are per-run, not cumulative. *)
  let t = crash_explorer ~adversary:`Per_line ~check:nop_check () in
  let a = Explore.run t in
  let b = Explore.run t in
  Alcotest.(check int) "branches are per-run" a.Explore.branches
    b.Explore.branches;
  Alcotest.(check int) "executions are per-run" a.Explore.executions
    b.Explore.executions;
  Alcotest.(check int) "crash points are per-run" a.Explore.crash_points
    b.Explore.crash_points

let test_telemetry_sampling () =
  (* An enumeration cap of 0 forces every non-empty crash point onto the
     sampling path, which the telemetry must report as incomplete
     coverage. *)
  let s =
    Explore.run
      (crash_explorer ~max_crash_lines:0 ~crash_samples:2
         ~adversary:`Per_line ~check:nop_check ())
  in
  Alcotest.(check bool) "cap 0 forces sampling" true
    (s.Explore.crash_sampled > 0);
  Alcotest.(check int)
    "sampled + enumerated still covers every point" s.Explore.crash_points
    (s.Explore.crash_enumerated + s.Explore.crash_sampled)

(* --------------------------- replay/explain -------------------------- *)

let prop_replay_deterministic =
  (* Whatever violation the search finds, replaying its token must
     reproduce the same failure — per-line verdicts included — and
     explain must return the same outcome with a trace. *)
  QCheck.Test.make ~count:40 ~name:"violations replay deterministically"
    QCheck.(int_range 0 7)
    (fun bad ->
      let mk () =
        crash_explorer ~adversary:`Per_line
          ~check:(fun get _heap ~crashed ->
            let d, c = get () in
            if (if crashed then 1 else 0) + d + c mod 8 = bad then
              failwith "flagged")
          ()
      in
      match Explore.run (mk ()) with
      | _ -> true (* no violation at this target: vacuous *)
      | exception Explore.Violation { schedule; _ } -> (
          let token = Explore.schedule_to_string schedule in
          (* replay raises the same violation with the same schedule *)
          (match Explore.replay_schedule (mk ()) schedule with
          | _ -> false
          | exception Explore.Violation { schedule = s'; _ } ->
              Explore.schedule_to_string s' = token)
          &&
          match Explore.explain (mk ()) (Explore.schedule_of_string token) with
          | Explore.Failed _, trace -> trace <> []
          | Explore.Passed _, _ -> false))

(* ----------------- buffered (px86) persistency axis ------------------ *)

let px86 = Heap.Policy.Px86

(* One thread, flush-ordered commit protocol, no drain: under px86 every
   flush only buffers, so nothing persists except through the crash
   adversary's drain prefixes and evictions of dirty-unbuffered lines. *)
let px86_crash_explorer ?policy ~check () =
  Explore.make ~crashes:true ~adversary:`Per_line
    ~setup:(fun () ->
      let heap, (module M) = with_mem ?policy () in
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
              M.write committed 1;
              M.flush committed);
          ];
      })
    ~check ()

let test_px86_buffered_hazard () =
  (* data is flushed before the marker is even written, so under sc the
     commit marker can never persist ahead of its payload.  Under px86
     the flush only buffers: at the crash point after [write committed]
     the data line sits in thread 0's persist buffer while the marker's
     line is dirty-unbuffered — the adversary evicts the marker and
     loses the buffer, persisting a commit without its data. *)
  let check get _heap ~crashed =
    if crashed then begin
      let d, c = get () in
      if c = 1 && d = 0 then failwith "commit marker without data"
    end
  in
  (match Explore.run (px86_crash_explorer ~check ()) with
  | (_ : Explore.stats) -> ()
  | exception Explore.Violation { schedule; _ } ->
      Alcotest.failf "sc flagged the flush-ordered program at %s"
        (Explore.schedule_to_string schedule));
  match Explore.run (px86_crash_explorer ~policy:px86 ~check ()) with
  | _ -> Alcotest.fail "px86 adversary missed the buffered-flush hazard"
  | exception Explore.Violation { schedule; _ } -> (
      let token = Explore.schedule_to_string schedule in
      match
        Explore.replay_schedule
          (px86_crash_explorer ~policy:px86 ~check ())
          (Explore.schedule_of_string token)
      with
      | (_ : [ `Completed | `Crashed ]) ->
          Alcotest.failf "token %s did not reproduce" token
      | exception Explore.Violation { schedule = s'; _ } ->
          Alcotest.(check string) "replay follows the token" token
            (Explore.schedule_to_string s'))

let test_px86_drain_decisions_replay () =
  (* Both words persisted: with no drain in the program, the only way
     data and marker both reach persistence under px86 is an adversary
     drain prefix — so the counterexample token must carry a [b0:_]
     event, round-trip through the parser, and replay byte-for-byte. *)
  let check get _heap ~crashed =
    if crashed then begin
      let d, c = get () in
      if d = 42 && c = 1 then failwith "both persisted"
    end
  in
  match Explore.run (px86_crash_explorer ~policy:px86 ~check ()) with
  | _ -> Alcotest.fail "px86 adversary never drained a buffer prefix"
  | exception Explore.Violation { schedule; _ } -> (
      Alcotest.(check bool) "schedule carries a drain decision" true
        (List.exists
           (function Explore.Bdrain _ -> true | _ -> false)
           schedule);
      let token = Explore.schedule_to_string schedule in
      Alcotest.(check bool) "drain token round-trips" true
        (Explore.schedule_of_string token = schedule);
      match
        Explore.replay_schedule
          (px86_crash_explorer ~policy:px86 ~check ())
          schedule
      with
      | (_ : [ `Completed | `Crashed ]) ->
          Alcotest.failf "token %s did not reproduce" token
      | exception Explore.Violation { schedule = s'; _ } ->
          Alcotest.(check string) "replay follows the token" token
            (Explore.schedule_to_string s'))

let test_px86_drain_telemetry () =
  let sc = Explore.run (px86_crash_explorer ~check:nop_check ()) in
  let relaxed =
    Explore.run (px86_crash_explorer ~policy:px86 ~check:nop_check ())
  in
  Alcotest.(check int) "sc has no drain points" 0 sc.Explore.drain_points;
  Alcotest.(check int) "sc has no drain branches" 0 sc.Explore.drain_branches;
  Alcotest.(check bool) "px86 visits drain points" true
    (relaxed.Explore.drain_points > 0);
  Alcotest.(check bool) "px86 branches on drain prefixes" true
    (relaxed.Explore.drain_branches > 0);
  Alcotest.(check bool)
    (Printf.sprintf "px86 crash branches %d > sc %d"
       relaxed.Explore.crash_branches sc.Explore.crash_branches)
    true
    (relaxed.Explore.crash_branches > sc.Explore.crash_branches)

let prop_replay_deterministic_px86 =
  (* Same determinism contract as the sc prop, on the buffered model:
     whatever the drain adversary found, the token — [Bdrain] decisions
     included — reproduces it exactly. *)
  QCheck.Test.make ~count:25 ~name:"px86 violations replay deterministically"
    QCheck.(int_range 0 7)
    (fun bad ->
      let mk () =
        px86_crash_explorer ~policy:px86
          ~check:(fun get _heap ~crashed ->
            let d, c = get () in
            if (if crashed then 1 else 0) + d + c mod 8 = bad then
              failwith "flagged")
          ()
      in
      match Explore.run (mk ()) with
      | _ -> true (* no violation at this target: vacuous *)
      | exception Explore.Violation { schedule; _ } -> (
          let token = Explore.schedule_to_string schedule in
          match Explore.replay_schedule (mk ()) schedule with
          | _ -> false
          | exception Explore.Violation { schedule = s'; _ } ->
              Explore.schedule_to_string s' = token))

(* Buffered persistency is only weaker inside the window between a flush
   and the next drain.  A program that drains at every persistence point
   — each write immediately flushed and drained — closes every window,
   so the crash adversary must produce exactly the same set of persisted
   states as under sc, crash point by crash point. *)
let crash_states ~policy prog =
  let states = Hashtbl.create 32 in
  let t =
    Explore.make ~crashes:true ~adversary:`Per_line
      ~setup:(fun () ->
        let heap, (module M) = with_mem ~policy () in
        let cells = Array.init 2 (fun _ -> M.alloc 0) in
        let threads =
          [
            (fun () ->
              List.iter
                (fun (c, v) ->
                  M.write cells.(c) v;
                  M.flush cells.(c);
                  M.drain ())
                prog);
          ]
        in
        {
          Explore.history = Explore.no_history;
          ctx = (fun () -> Array.to_list (Array.map M.read cells));
          heap;
          threads;
        })
      ~check:(fun get _heap ~crashed ->
        if crashed then Hashtbl.replace states (get ()) ())
      ()
  in
  let (_ : Explore.stats) = Explore.run t in
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) states [])

let prop_px86_drained_equals_sc =
  QCheck.Test.make ~count:30
    ~name:"px86 with drain at every persistence point = sc crash states"
    QCheck.(
      make
        ~print:(fun prog ->
          String.concat ";"
            (List.map (fun (c, v) -> Printf.sprintf "x%d:=%d" c v) prog))
        Gen.(
          list_size (int_range 1 4) (pair (int_range 0 1) (int_range 1 9))))
    (fun prog ->
      crash_states ~policy:Eager prog = crash_states ~policy:px86 prog)

(* -------- report schema: v6 carries replays, drains and skips -------- *)

module Explore_report = Dssq_checker.Explore_report
module Scenarios = Dssq_checker.Scenarios
module Json = Dssq_obs.Json

let test_report_v6_encodes () =
  let c =
    List.hd
      (Scenarios.cases ~objects:[ "queue" ] ~crash_modes:[ true ]
         ~line_sizes:[ 1 ]
         ~params:{ Scenarios.default_params with policy = px86 }
         ())
  in
  let r =
    {
      Explore_report.xcase = c;
      verdict = Explore_report.run_case c ~reduction:true;
      naive = None;
    }
  in
  let doc =
    Explore_report.encode
      ~params:[ ("policy", Json.String "px86") ]
      [ r ]
  in
  (* the coverage object groups branch/crash totals by policy *)
  (match Json.member "coverage" doc with
  | Json.Obj [ ("px86", Json.Obj fields) ] ->
      Alcotest.(check bool) "coverage counts drain points" true
        (match List.assoc "drain_points" fields with
        | Json.Int n -> n > 0
        | _ -> false);
      Alcotest.(check bool) "coverage counts skipped branches" true
        (match List.assoc "skipped_branches" fields with
        | Json.Int n -> n > 0
        | _ -> false)
  | j -> Alcotest.failf "unexpected coverage object: %s" (Json.to_string j));
  Alcotest.(check int) "version" 6 (Json.to_int (Json.member "version" doc));
  match Json.to_list (Json.member "cases" doc) with
  | [ case ] ->
      let int k = Json.to_int (Json.member k case) in
      let str k = Json.to_str (Json.member k case) in
      Alcotest.(check bool) "replays encoded" true (int "replays" > 0);
      Alcotest.(check bool) "policy" true
        (Heap.Policy.of_string (str "policy") = Some px86);
      Alcotest.(check bool) "no persistency field" true
        (Json.member "persistency" case = Json.Null);
      Alcotest.(check string) "status" "pass" (str "status");
      Alcotest.(check bool) "drain points encoded" true (int "drain_points" > 0);
      Alcotest.(check bool) "drain branches encoded" true
        (int "drain_branches" > 0);
      Alcotest.(check bool) "skipped points encoded" true
        (int "skipped_points" > 0);
      Alcotest.(check bool) "skipped branches encoded" true
        (int "skipped_branches" >= int "skipped_points")
  | cs -> Alcotest.failf "expected one case, got %d" (List.length cs)

(* ------------- live handoff: the same search, fewer replays ---------- *)

let corpus_bound = 2

let corpus_case ?(policy = Heap.Policy.Eager) ~crashes obj prog =
  Scenarios.build
    ~params:
      {
        Scenarios.default_params with
        crashes;
        policy;
        max_preemptions = corpus_bound;
      }
    ~obj ~prog

let run_pass (c : Scenarios.case) =
  match c.Scenarios.run ~reduction:true with
  | s -> s
  | exception Explore.Violation { schedule; exn } ->
      Alcotest.failf "%s failed at %s: %s" c.Scenarios.name
        (Explore.schedule_to_string schedule)
        (Printexc.to_string exn)

(* Counts the search produced when every tree node replayed its prefix
   from scratch: executions, branches, pruned, crash points, drain
   points.  Handing live machines to first children must reproduce them
   exactly, with each skipped crash branch counted as the execution it
   stands for. *)
let recorded =
  [
    (corpus_case ~crashes:false "queue" "enq-deq", (35, 1453, 631, 0, 0));
    (corpus_case ~crashes:true "queue" "enq-deq", (3831, 1453, 631, 1091, 0));
    ( corpus_case ~crashes:true "register" "write-write",
      (1156, 1078, 156, 836, 0) );
    ( corpus_case ~policy:px86 ~crashes:true "queue" "mid-link",
      (161, 99, 0, 34, 8) );
    ( corpus_case ~policy:Combine ~crashes:true "register" "write-read",
      (719, 621, 27, 449, 191) );
  ]

let test_handoff_same_search () =
  List.iter
    (fun (c, (executions, branches, pruned, crash_points, drain_points)) ->
      let s = run_pass c in
      let n = c.Scenarios.name in
      Alcotest.(check int) (n ^ " executions") executions
        (s.Explore.executions + s.Explore.skipped_branches);
      Alcotest.(check int) (n ^ " branches") branches s.Explore.branches;
      Alcotest.(check int) (n ^ " pruned") pruned s.Explore.pruned;
      Alcotest.(check int) (n ^ " crash points") crash_points
        s.Explore.crash_points;
      Alcotest.(check int) (n ^ " drain points") drain_points
        s.Explore.drain_points;
      let every_node =
        s.Explore.branches + corpus_bound + 1 + s.Explore.crash_branches
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s replays %d < %d" n s.Explore.replays every_node)
        true
        (s.Explore.replays < every_node))
    recorded

(* A single thread never backtracks: one replay per preemption round and
   one per crash branch, none for the schedule steps. *)
let test_chain_replays () =
  List.iter
    (fun prog ->
      let s = run_pass (corpus_case ~crashes:true "queue" prog) in
      Alcotest.(check int) (prog ^ " replays")
        (s.Explore.crash_branches + corpus_bound + 1)
        s.Explore.replays)
    [ "mid-alloc"; "mid-link" ]

(* ----------------------- corpus golden counts ----------------------- *)

(* The whole corpus at preemption bound 1 under every persist policy,
   one line per case: status, executions, crash branches, crash points,
   drain branches, replays, skipped crash branches.  The counts pin the
   search itself, so a change that only makes executions cheaper must
   leave the file byte-identical.  On a mismatch the rendering is written
   next to the test binary as [explore-p1.actual]; copy it over the
   golden file only for an intended change to what the explorer
   explores. *)
let golden_p1 = "golden/explore-p1.expected"

(* The same corpus's counts before crash points were skipped, frozen. *)
let unskipped_p1 = "golden/explore-p1-unskipped.expected"

let render_p1 () =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    "# case status executions crash_branches crash_points drain_branches \
     replays skipped_branches\n";
  List.iter
    (fun policy ->
      List.iter
        (fun (c : Scenarios.case) ->
          match c.Scenarios.run ~reduction:true with
          | s ->
              Printf.bprintf b "%s pass %d %d %d %d %d %d\n" c.Scenarios.name
                s.Explore.executions s.Explore.crash_branches
                s.Explore.crash_points s.Explore.drain_branches
                s.Explore.replays s.Explore.skipped_branches
          | exception Explore.Violation { schedule; _ } ->
              Printf.bprintf b "%s fail %s\n" c.Scenarios.name
                (Explore.schedule_to_string schedule))
        (Scenarios.cases
           ~params:
             { Scenarios.default_params with policy; max_preemptions = 1 }
           ()))
    Heap.Policy.[ Eager; Coalesced; Px86; Combine ];
  Buffer.contents b

(* Case name -> the rest of its line, comments skipped. *)
let rows text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | name :: rest when name <> "" && name.[0] <> '#' -> Some (name, rest)
         | _ -> None)

(* A skipped branch stands for exactly one execution, one crash branch
   and one set-up of the search that ran it, at the same crash points:
   every case of every policy, against the frozen counts. *)
let check_nothing_dropped actual =
  let before =
    rows (In_channel.with_open_bin unskipped_p1 In_channel.input_all)
  in
  let now = rows actual in
  Alcotest.(check (list string)) "the same cases" (List.map fst before)
    (List.map fst now);
  List.iter2
    (fun (name, was) (_, is) ->
      match (was, is) with
      | ( [ "pass"; ex; cb; cp; _; rp ],
          [ "pass"; ex'; cb'; cp'; _; rp'; sk ] ) ->
          let n = int_of_string and sk = int_of_string sk in
          Alcotest.(check int) (name ^ " executions") (n ex) (n ex' + sk);
          Alcotest.(check int) (name ^ " crash branches") (n cb) (n cb' + sk);
          Alcotest.(check int) (name ^ " crash points") (n cp) (n cp');
          Alcotest.(check int) (name ^ " set-ups") (n rp) (n rp' + sk)
      | _ ->
          Alcotest.failf "%s: %s, frozen %s" name (String.concat " " is)
            (String.concat " " was))
    before now

let test_corpus_golden_p1 () =
  let expected = In_channel.with_open_bin golden_p1 In_channel.input_all in
  let actual = render_p1 () in
  check_nothing_dropped actual;
  if actual <> expected then begin
    Out_channel.with_open_bin "explore-p1.actual" (fun oc ->
        Out_channel.output_string oc actual);
    let rec first_diff = function
      | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else (e, a)
      | e :: _, [] -> (e, "<end of file>")
      | [], a :: _ -> ("<end of file>", a)
      | [], [] -> ("", "")
    in
    let e, a =
      first_diff
        (String.split_on_char '\n' expected, String.split_on_char '\n' actual)
    in
    Alcotest.failf "corpus counts differ from %s: expected %S, got %S (full \
                    rendering in %s)"
      golden_p1 e a
      (Filename.concat (Sys.getcwd ()) "explore-p1.actual")
  end

(* --------------------------- verdict cache --------------------------- *)

module Oracle = Dssq_checker.Oracle

(* A case's verdict cache must answer only for histories it has seen pass:
   a failing history raises however close it is to a cached one, and
   histories that share a long prefix (every history of a case shares its
   set-up) are told apart by events past it. *)
let test_verdict_cache () =
  let applied = ref 0 in
  let spec = queue_spec ~nthreads:3 in
  let spec =
    {
      spec with
      Spec.apply =
        (fun s ~tid op ->
          incr applied;
          spec.Spec.apply s ~tid op);
    }
  in
  let cache = Oracle.cache spec in
  let base uid op r =
    [
      History.Inv { uid; tid = 2; op = Dss_spec.Base op };
      History.Res { uid; r = Dss_spec.Ret r };
    ]
  in
  (* Ten enqueues: a 20-event prefix. *)
  let prefix =
    List.concat
      (List.init 10 (fun i -> base i (Specs.Queue.Enqueue i) Specs.Queue.Ok))
  in
  let dequeues vs =
    prefix
    @ List.concat
        (List.mapi
           (fun i v -> base (10 + i) Specs.Queue.Dequeue (Specs.Queue.Value v))
           vs)
  in
  let checked h =
    let before = !applied in
    Oracle.check_cached cache h;
    !applied > before
  in
  let raises h =
    match Oracle.check_cached cache h with
    | () -> false
    | exception Oracle.Not_linearizable _ -> true
  in
  Alcotest.(check bool) "a passing history is checked" true
    (checked (dequeues [ 0 ]));
  Alcotest.(check bool) "and then answered from the cache" false
    (checked (dequeues [ 0 ]));
  Alcotest.(check bool) "a different last response still fails" true
    (raises (dequeues [ 1 ]));
  Alcotest.(check bool) "every time" true (raises (dequeues [ 1 ]));
  Alcotest.(check bool) "another history past the shared prefix is checked"
    true
    (checked (dequeues [ 0; 1 ]));
  Alcotest.(check bool) "and its own failing variant fails" true
    (raises (dequeues [ 0; 2 ]))

(* --------------------------- explain -------------------------------- *)

let test_explain_passing_schedule () =
  let t =
    Explore.make
      ~setup:(fun () ->
        let heap, (module M) = with_mem () in
        let c = M.alloc 0 in
        {
          Explore.history = Explore.no_history;
          ctx = ();
          heap;
          threads = [ (fun () -> M.write c 1) ];
        })
      ~check:(fun () _ ~crashed:_ -> ())
      ()
  in
  let sched = [ Explore.Sched 0; Explore.Sched 0 ] in
  Alcotest.(check bool) "completes" true
    (Explore.replay_schedule t sched = `Completed);
  match Explore.explain t sched with
  | Explore.Passed `Completed, trace ->
      Alcotest.(check bool) "trace recorded" true (trace <> [])
  | Explore.Passed `Crashed, _ -> Alcotest.fail "did not crash"
  | Explore.Failed e, _ -> Alcotest.failf "failed: %s" (Printexc.to_string e)

(* ------------------------ cold restart ------------------------------ *)

module Machine = Dssq_sim.Machine

(* Cell by cell (volatile, persisted, dirty) and buffer by buffer.  A
   loaded cell holds the crashed world's value or its own set-up's, so
   values compare structurally. *)
let same_heap a b =
  Heap.cell_count a = Heap.cell_count b
  && Heap.pending_fifos a = Heap.pending_fifos b
  && Heap.dirty_lines a = Heap.dirty_lines b
  && List.for_all
       (fun lid ->
         List.for_all2
           (fun (Dssq_pmem.Cell.Packed x) (Dssq_pmem.Cell.Packed y) ->
             x.id = y.id
             && x.dirty = y.dirty
             && Obj.repr x.volatile = Obj.repr y.volatile
             && Obj.repr x.persisted = Obj.repr y.persisted)
           (Heap.members a (Heap.line a lid))
           (Heap.members b (Heap.line b lid)))
       (List.init (Heap.line_count a) Fun.id)

let crash_cases =
  List.concat_map
    (fun (d : Scenarios.descriptor) ->
      List.concat_map
        (fun prog ->
          if d.d_nthreads prog > 2 then []
          else
            List.concat_map
              (fun policy ->
                List.map
                  (fun line_size -> (d, prog, policy, line_size))
                  [ 1; 8 ])
              [ Heap.Policy.Eager; px86 ])
        d.d_progs)
    Scenarios.registry

(* A random corpus case, a random schedule prefix and a random crash
   token over what is dirty and buffered at its end.  The cold world
   loaded from the crash must equal the crashed heap that the token's
   write-backs and verdicts leave behind. *)
let prop_cold_image =
  QCheck.Test.make ~count:300 ~name:"a cold restart loads the crash's image"
    QCheck.(
      quad (int_bound (List.length crash_cases - 1))
        (list_of_size Gen.(0 -- 40) (int_bound 5))
        (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (i, picks, verdict_bits, drain_bits) ->
      let d, prog, policy, line_size = List.nth crash_cases i in
      let params =
        { Scenarios.default_params with crashes = true; policy; line_size }
      in
      let setup = d.d_setup ~params ~prog in
      let live = setup () in
      Heap.log_persists live.heap;
      let m = Machine.create live.heap live.threads in
      List.iter
        (fun p ->
          match Machine.runnable m with
          | [] -> ()
          | r ->
              live.heap.in_sim <- true;
              Machine.step m (List.nth r (p mod List.length r));
              live.heap.in_sim <- false)
        picks;
      let drains =
        List.filter_map
          (fun (tid, fifo) ->
            match drain_bits lsr (3 * tid) mod (List.length fifo + 1) with
            | 0 -> None
            | count -> Some (tid, count))
          (Heap.pending_fifos live.heap)
      in
      let candidates = Heap.crash_candidate_lines live.heap in
      let evict lid =
        List.mem lid candidates && (verdict_bits lsr (lid mod 16)) land 1 = 1
      in
      let cold = setup () in
      Heap.crash_into live.heap ~fresh:cold.heap ~drains ~evict;
      List.iter
        (fun (tid, count) -> Heap.adversary_drain live.heap ~tid ~count)
        drains;
      Heap.crash_lines live.heap ~evict;
      same_heap cold.heap live.heap)

(* The image is transferred cell by cell between two set-ups, so a world
   that allocated a cell after set-up cannot be loaded: the search
   refuses it by name rather than load a shifted image. *)
let test_alloc_in_step_refused () =
  let t =
    Explore.make ~crashes:true
      ~setup:(fun () ->
        let heap, (module M) = with_mem () in
        let c = M.alloc 0 in
        {
          Explore.history = Explore.no_history;
          ctx = ();
          heap;
          threads =
            [
              (fun () ->
                let fresh = M.alloc 0 in
                M.write fresh 1;
                M.write c 1);
            ];
        })
      ~check:(fun () _ ~crashed:_ -> ())
      ()
  in
  match Explore.run t with
  | _ -> Alcotest.fail "a world with a cell allocated in a step was loaded"
  | exception Heap.Layout_mismatch _ -> ()

let suite =
  [
    Alcotest.test_case "schedule token examples" `Quick test_token_examples;
    QCheck_alcotest.to_alcotest prop_token_roundtrip;
    QCheck_alcotest.to_alcotest prop_reduction_sound;
    Alcotest.test_case "reduction prunes independent threads" `Quick
      test_reduction_strictly_fewer;
    Alcotest.test_case "preemption-bound boundaries" `Quick
      test_preemption_bound_boundaries;
    Alcotest.test_case "per-line adversary branches more" `Quick
      test_per_line_enumerates_more;
    Alcotest.test_case "per-line finds mixed eviction" `Quick
      test_per_line_finds_mixed_eviction;
    Alcotest.test_case "coverage telemetry invariants" `Quick
      test_telemetry_counts;
    Alcotest.test_case "telemetry flags sampled crash coverage" `Quick
      test_telemetry_sampling;
    QCheck_alcotest.to_alcotest prop_replay_deterministic;
    Alcotest.test_case "explain on a passing schedule" `Quick
      test_explain_passing_schedule;
    Alcotest.test_case "px86 finds the buffered-flush hazard" `Quick
      test_px86_buffered_hazard;
    Alcotest.test_case "px86 drain decisions tokenize and replay" `Quick
      test_px86_drain_decisions_replay;
    Alcotest.test_case "px86 drain telemetry" `Quick test_px86_drain_telemetry;
    QCheck_alcotest.to_alcotest prop_replay_deterministic_px86;
    QCheck_alcotest.to_alcotest prop_px86_drained_equals_sc;
    Alcotest.test_case "explore report v6 encodes replays, drains and skips"
      `Quick test_report_v6_encodes;
    Alcotest.test_case "live handoff explores the recorded search" `Quick
      test_handoff_same_search;
    Alcotest.test_case "single-thread chains replay once per round" `Quick
      test_chain_replays;
    Alcotest.test_case "corpus counts at bound 1 match the golden file" `Slow
      test_corpus_golden_p1;
    Alcotest.test_case "verdict cache never masks a failure" `Quick
      test_verdict_cache;
    QCheck_alcotest.to_alcotest prop_cold_image;
    Alcotest.test_case "a cell allocated in a step is refused" `Quick
      test_alloc_in_step_refused;
  ]
