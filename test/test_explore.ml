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

(* Well-formed schedules only: every run of drains ends in a crash. *)
let decisions_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> [ Explore.Sched t ]) (int_range 0 7);
        map2
          (fun drains vs ->
            List.map
              (fun (tid, count) -> Explore.Bdrain { tid; count })
              drains
            @ [
                Explore.Crash
                  (List.map
                     (fun (line, evicted) -> { Explore.line; evicted })
                     vs);
              ])
          (list_size (int_range 0 2) (pair (int_range 0 3) (int_range 1 4)))
          (list_size (int_range 0 5) (pair (int_range 0 40) bool));
      ])

let schedule_arb =
  QCheck.make
    ~print:(fun s -> Explore.schedule_to_string s)
    QCheck.Gen.(map List.concat (list_size (int_range 0 12) decisions_gen))

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
    [ "b0" (* no colon *); "b0:0" (* count < 1 *); "b-1:2" (* negative tid *) ];
  (* A drain is the crash's: a step after it, or none, is refused. *)
  List.iter
    (fun token ->
      Alcotest.check_raises
        (Printf.sprintf "drain not before a crash %S rejected" token)
        (Invalid_argument "Explore.schedule_of_string: bad token \"b0:1\"")
        (fun () -> ignore (Explore.schedule_of_string token)))
    [ "t0.b0:1.t1.c"; "t0.b0:1" ]

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
      { Explore.history = Explore.no_history; prologue = ignore; ctx = final;
        heap; threads })
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
          prologue = ignore;
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
            prologue = ignore;
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
        prologue = ignore;
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
  (* Branches drawn: a skipped branch was drawn, and its image checked,
     at a parent point. *)
  let drawn (s : Explore.stats) =
    s.Explore.crash_branches + s.Explore.skipped_branches
  in
  Alcotest.(check bool)
    (Printf.sprintf "per-line crash branches %d > all-or-nothing %d"
       (drawn per_line) (drawn aon))
    true
    (drawn per_line > drawn aon)

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
        prologue = ignore;
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
          prologue = ignore;
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

(* The eager corpus at preemption bound 2, in the same columns: the
   sweep that holds the queue slice the benchmark times, so a change to
   what that slice explores shows here first. *)
let golden_p2_eager = "golden/explore-p2-eager.expected"

let render ~max_preemptions policies =
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
           ~params:{ Scenarios.default_params with policy; max_preemptions }
           ()))
    policies;
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

(* [actual] against the golden file [golden]; on a mismatch the
   rendering is written next to the test binary as [<name>.actual]. *)
let check_golden golden actual =
  let expected = In_channel.with_open_bin golden In_channel.input_all in
  let out = Filename.(remove_extension (basename golden)) ^ ".actual" in
  if actual <> expected then begin
    Out_channel.with_open_bin out (fun oc ->
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
      golden e a
      (Filename.concat (Sys.getcwd ()) out)
  end

let test_corpus_golden_p1 () =
  let actual =
    render ~max_preemptions:1 Heap.Policy.[ Eager; Coalesced; Px86; Combine ]
  in
  check_nothing_dropped actual;
  check_golden golden_p1 actual

let test_corpus_golden_p2_eager () =
  check_golden golden_p2_eager
    (render ~max_preemptions:2 Heap.Policy.[ Eager ])

(* --------------------------- verdict cache --------------------------- *)

module Oracle = Dssq_checker.Oracle

(* The recorder that recorded [h], whose uids count up from 0. *)
let recorded h =
  let r = Recorder.create () in
  List.iter
    (function
      | History.Inv { tid; op; _ } -> ignore (Recorder.invoke r ~tid op)
      | History.Res { uid; r = resp } -> Recorder.response r ~uid resp
      | History.Crash -> Recorder.crash r)
    h;
  r

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
    Oracle.check_cached cache (recorded h);
    !applied > before
  in
  let raises h =
    match Oracle.check_cached cache (recorded h) with
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

(* The recorder's running hash is the cache key {!Oracle.hash_history}
   computes from its history, through every push, crash and adoption;
   an adopter recording on leaves the lender's hash its own. *)
let prop_recorder_hash =
  let action =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun tid op -> `Inv (tid, op)) (int_range 0 2) small_nat);
          (3, map (fun r -> `Res r) small_nat);
          (1, return `Crash);
          (1, map (fun junk -> `Adopt junk) (int_range 0 2));
        ])
  in
  QCheck.Test.make ~count:300 ~name:"a recorder's running hash is its history's"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) action))
    (fun actions ->
      let agrees r = Recorder.hash r = Oracle.hash_history (Recorder.history r) in
      let r = ref (Recorder.create ()) and lenders = ref [] in
      List.for_all
        (fun a ->
          (match a with
          | `Inv (tid, op) -> ignore (Recorder.invoke !r ~tid op)
          | `Res v -> Recorder.response !r ~uid:(v mod 4) v
          | `Crash -> Recorder.crash !r
          | `Adopt junk ->
              (* The adopter's own events are replaced, as a restart
                 world's are. *)
              let fresh = Recorder.create () in
              for i = 1 to junk do
                ignore (Recorder.invoke fresh ~tid:0 i)
              done;
              Recorder.adopt fresh ~from:!r;
              lenders := !r :: !lenders;
              r := fresh);
          agrees !r && List.for_all agrees !lenders)
        actions)

(* A scenario whose prologue counts its calls, sets a flag outside the
   heap, persists one cell and leaves another dirty; two threads store
   to a third.  [ctx] reads the flag and the three cells. *)
let prologue_explorer ~on_crash =
  let calls = ref 0 in
  let t =
    Explore.make ~crashes:true ~max_preemptions:1
      ~setup:(fun () ->
        let heap = Heap.create () in
        let (module M) = Sim.memory heap in
        let persisted = M.alloc 0 and unflushed = M.alloc 0 in
        let stored = M.alloc 0 in
        let seeded = ref false in
        {
          Explore.history = Explore.no_history;
          ctx =
            (fun () ->
              (!seeded, M.read persisted, M.read unflushed, M.read stored));
          heap;
          threads =
            [
              (fun () ->
                M.write stored 1;
                M.flush stored);
              (fun () -> M.write stored 2);
            ];
          prologue =
            (fun () ->
              incr calls;
              seeded := true;
              M.write persisted 1;
              M.flush persisted;
              M.write unflushed 1);
        })
      ~on_crash ~check:(fun _ _ ~crashed:_ -> ()) ()
  in
  (t, calls)

let test_prologue_live_only () =
  let t, calls = prologue_explorer ~on_crash:(fun _ _ -> ()) in
  let s = Explore.run t in
  Alcotest.(check bool) "crash branches ran" true (s.Explore.crash_branches > 0);
  Alcotest.(check int) "prologue calls = replays - crash branches"
    (s.Explore.replays - s.Explore.crash_branches)
    !calls

let test_prologue_state_not_restarted () =
  (* A restart world holds what the prologue persisted and nothing else
     of it: its flag is down, and the unflushed store is the crash's
     verdict (both fates occur), not the prologue's value. *)
  let restarts = ref [] in
  let t, _ =
    prologue_explorer ~on_crash:(fun get _ -> restarts := get () :: !restarts)
  in
  ignore (Explore.run t : Explore.stats);
  Alcotest.(check bool) "restart worlds ran" true (!restarts <> []);
  List.iter
    (fun (seeded, persisted, _, _) ->
      Alcotest.(check bool) "the prologue's flag is not set" false seeded;
      Alcotest.(check int) "the prologue's persisted cell is in the image" 1
        persisted)
    !restarts;
  Alcotest.(check (list int)) "the unflushed cell: lost or evicted" [ 0; 1 ]
    (List.sort_uniq compare (List.map (fun (_, _, u, _) -> u) !restarts))

(* --------------------------- explain -------------------------------- *)

let test_explain_passing_schedule () =
  let t =
    Explore.make
      ~setup:(fun () ->
        let heap, (module M) = with_mem () in
        let c = M.alloc 0 in
        {
          Explore.history = Explore.no_history;
          prologue = ignore;
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
   token over what is dirty and buffered at its end.  The image a crash
   leaves is computed here, cell by cell, from the crashed heap alone: a
   cell keeps its volatile value when it is dirty and its line was
   drained or evicted, and its persisted value otherwise.  Both targets
   of the crash must hold exactly that image, clean: a fresh set-up, and
   then the crashed heap itself. *)
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
      let fifos = Heap.pending_fifos live.heap in
      let drains =
        List.filter_map
          (fun (tid, fifo) ->
            match drain_bits lsr (3 * tid) mod (List.length fifo + 1) with
            | 0 -> None
            | count -> Some (tid, count))
          fifos
      in
      let drained =
        List.concat_map
          (fun (tid, count) ->
            List.filteri (fun k _ -> k < count) (List.assoc tid fifos))
          drains
      in
      let candidates = Heap.crash_candidate_lines live.heap in
      let evict lid =
        List.mem lid candidates && (verdict_bits lsr (lid mod 16)) land 1 = 1
      in
      let cells h =
        List.init (Heap.line_count h) (fun lid ->
            (lid, Heap.members h (Heap.line h lid)))
      in
      let image =
        List.map
          (fun (lid, members) ->
            List.map
              (fun (Dssq_pmem.Cell.Packed c) ->
                if c.dirty && (List.mem lid drained || evict lid) then
                  Obj.repr c.volatile
                else Obj.repr c.persisted)
              members)
          (cells live.heap)
      in
      let holds_image h =
        Heap.dirty_lines h = []
        && Heap.pending_fifos h = []
        && List.for_all2
             (fun (_, members) expected ->
               List.for_all2
                 (fun (Dssq_pmem.Cell.Packed c) v ->
                   (not c.dirty)
                   && Obj.repr c.volatile = v
                   && Obj.repr c.persisted = v)
                 members expected)
             (cells h) image
      in
      let cold = setup () in
      Heap.crash_into live.heap ~into:cold.heap ~drains ~evict;
      let cold_ok = holds_image cold.heap in
      Heap.crash_into live.heap ~into:live.heap ~drains ~evict;
      cold_ok && holds_image live.heap)

(* The image is transferred cell by cell between two set-ups, so a world
   that allocated a cell after set-up cannot be loaded: the search
   refuses it by name rather than load a shifted image. *)
let test_alloc_in_step_refused () =
  (* At the thread's start, and after a flush, whose crash point would
     otherwise repeat its parent's choices. *)
  List.iter
    (fun after_flush ->
      let t =
        Explore.make ~crashes:true
          ~setup:(fun () ->
            let heap, (module M) = with_mem () in
            let c = M.alloc 0 in
            let thread () =
              if after_flush then begin
                M.write c 1;
                M.flush c;
                ignore (M.alloc 0)
              end
              else begin
                let fresh = M.alloc 0 in
                M.write fresh 1;
                M.write c 1
              end
            in
            {
              Explore.history = Explore.no_history;
              prologue = ignore;
              ctx = ();
              heap;
              threads = [ thread ];
            })
          ~check:(fun () _ ~crashed:_ -> ())
          ()
      in
      match Explore.run t with
      | _ -> Alcotest.fail "a world with a cell allocated in a step was loaded"
      | exception Heap.Layout_mismatch _ -> ())
    [ false; true ]

(* An explored thread's exception fails its execution, by name.  The
   world's log has one slot and set-up fills it with the root record,
   so thread 0's allocation record raises [Wal.Full]; thread 1 runs on
   after the raise, so crash points follow it.  [check] passes every
   execution: only the thread's own exception can fail one. *)
let undersized_log ~crashes =
  Explore.make ~crashes
    ~setup:(fun () ->
      let heap, (module M) = with_mem () in
      let module W = Dssq_pmem.Wal.Make (M) in
      let kind_alloc = Dssq_pmem.Wal.Codec.kind_alloc in
      let wal = W.create ~lanes:1 ~lane_capacity:1 () in
      W.append wal ~lane:0 ~kind:Dssq_pmem.Wal.Codec.kind_root ~a:0 ~b:0;
      let c = M.alloc 0 in
      {
        Explore.history = Explore.no_history;
        prologue = ignore;
        ctx = ();
        heap;
        threads =
          [
            (fun () -> W.append wal ~lane:0 ~kind:kind_alloc ~a:1 ~b:0);
            (fun () ->
              M.write c 1;
              M.flush c);
          ];
      })
    ~check:(fun () _ ~crashed:_ -> ())
    ()

let test_thread_exception_fails () =
  List.iter
    (fun crashes ->
      let what = if crashes then "crash branch" else "completed leaf" in
      match Explore.run (undersized_log ~crashes) with
      | (_ : Explore.stats) -> Alcotest.failf "%s: Wal.Full passed" what
      | exception Explore.Violation { schedule; exn } -> (
          (match exn with
          | Dssq_pmem.Wal.Full { lane = 0 } -> ()
          | e ->
              Alcotest.failf "%s: failed with %s" what (Printexc.to_string e));
          Alcotest.(check bool)
            (what ^ ": the failing schedule ends in a crash")
            crashes
            (List.exists
               (function Explore.Crash _ -> true | _ -> false)
               schedule);
          match Explore.replay_schedule (undersized_log ~crashes) schedule with
          | _ -> Alcotest.failf "%s: the token did not reproduce" what
          | exception
              Explore.Violation { exn = Dssq_pmem.Wal.Full { lane = 0 }; _ } ->
              ()))
    [ false; true ]

(* A corpus case whose set-up raises names itself. *)
exception No_world

let test_setup_failure_named () =
  let c =
    Scenarios.case_of_setup ~params:Scenarios.default_params ~obj:"probe"
      ~prog:"raise" ~nthreads:1 (fun () () -> raise No_world)
  in
  match c.Scenarios.run ~reduction:true with
  | _ -> Alcotest.fail "a set-up that raises ran"
  | exception Scenarios.Setup_failed { case; exn = No_world } -> (
      Alcotest.(check string) "case" "probe/raise/nocrash/ls1" case;
      (* A prologue that raises names its case too. *)
      let c =
        Scenarios.case_of_setup ~params:Scenarios.default_params ~obj:"probe"
          ~prog:"prologue" ~nthreads:0 (fun () () ->
            {
              Explore.ctx =
                {
                  Scenarios.finish = (fun ~crashed:_ -> ());
                  reattach = ignore;
                  log_size = (0, 0);
                };
              heap = Heap.create ();
              threads = [];
              history = Explore.no_history;
              prologue = (fun () -> raise No_world);
            })
      in
      match c.Scenarios.run ~reduction:true with
      | _ -> Alcotest.fail "a prologue that raises ran"
      | exception Scenarios.Setup_failed { case; exn = No_world } ->
          Alcotest.(check string) "prologue's case" "probe/prologue/nocrash/ls1"
            case)

(* ------------- new images only: which crash branches run ------------- *)

(* One thread's program over a few cells.  [Event] records a history
   event; [Raise] fails the thread. *)
type instr =
  | W of int * int
  | C of int * int * int  (** cell, expected, desired *)
  | F of int
  | Fence
  | Event
  | Raise

let instr_to_string = function
  | W (c, v) -> Printf.sprintf "x%d:=%d" c v
  | C (c, e, d) -> Printf.sprintf "cas(x%d,%d,%d)" c e d
  | F c -> Printf.sprintf "flush(x%d)" c
  | Fence -> "fence"
  | Event -> "event"
  | Raise -> "raise"

(* Every crash image [on_crash] sees, in the order the search runs the
   branches, and the run's stats. *)
let images ?(policy = Heap.Policy.Eager) ?(line_size = 1)
    ?(adversary = `Per_line) ?max_crash_lines ~ncells prog =
  let seen = ref [] in
  let t =
    Explore.make ~crashes:true ~adversary ?max_crash_lines
      ~setup:(fun () ->
        let heap = Heap.create ~line_size ~policy () in
        let (module M) = Sim.memory heap in
        let cells = Array.init ncells (fun _ -> M.alloc 0) in
        let events = ref 0 in
        let run = function
          | W (c, v) -> M.write cells.(c) v
          | C (c, expected, desired) ->
              ignore (M.cas cells.(c) ~expected ~desired)
          | F c -> M.flush cells.(c)
          | Fence -> M.fence ()
          | Event -> incr events
          | Raise -> raise Exit
        in
        {
          Explore.history =
            {
              Explore.recorded = (fun () -> !events);
              lend = ignore;
              adopt = ignore;
            };
          prologue = ignore;
          ctx = (fun () -> Array.to_list (Array.map M.read cells));
          heap;
          threads = [ (fun () -> List.iter run prog) ];
        })
      ~on_crash:(fun get _ -> seen := get () :: !seen)
      ~check:(fun _ _ ~crashed:_ -> ())
      ()
  in
  let s = Explore.run t in
  (List.rev !seen, s)

let image_list = Alcotest.(list (list int))

(* The last [n] images: those of the last crash points. *)
let last n seen = List.filteri (fun i _ -> i >= List.length seen - n) seen

let test_store_runs_evicting () =
  (* Points: the root, the start (unchanged), then one per store.  After
     [x0:=1] only x0 evicted is new; after [x1:=1], the two that evict
     x1; after [x0:=2], the two that evict x0 again. *)
  let seen, s = images ~ncells:2 [ W (0, 1); W (1, 1); W (0, 2) ] in
  Alcotest.check image_list "the images that evict the stored line"
    [ [ 0; 0 ]; [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ]; [ 2; 0 ]; [ 2; 1 ] ]
    seen;
  Alcotest.(check int) "crash branches" 6 s.Explore.crash_branches;
  Alcotest.(check int) "skipped: the start's one, then 1 + 2 + 2" 6
    s.Explore.skipped_branches;
  Alcotest.(check int) "only the start's point skips every branch" 1
    s.Explore.skipped_points

let test_write_back_runs_none () =
  (* An eager flush, and under coalescing a flush that enqueues and a
     fence that drains: each point after them runs nothing. *)
  List.iter
    (fun (policy, prog, skipped_points) ->
      let seen, s = images ~policy ~ncells:2 prog in
      let n = Heap.Policy.to_string policy in
      Alcotest.check image_list (n ^ ": no image after the write-back")
        [ [ 0; 0 ]; [ 1; 0 ] ] seen;
      Alcotest.(check int) (n ^ ": skipped points") skipped_points
        s.Explore.skipped_points)
    [
      (Heap.Policy.Eager, [ W (0, 1); F 0 ], 2);
      (Heap.Policy.Coalesced, [ W (0, 1); F 0; Fence ], 3);
    ]

let test_event_runs_all () =
  (* The same programs, recording a history event in the step: every
     branch of that point runs. *)
  let seen, _ = images ~ncells:2 [ W (0, 1); Event; W (1, 1) ] in
  Alcotest.check image_list "a store that records: both of its branches"
    [ [ 0; 0 ]; [ 0; 0 ]; [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ]
    seen;
  let seen, _ = images ~ncells:2 [ W (0, 1); F 0; Event ] in
  Alcotest.check image_list "a write-back that records: its branch"
    [ [ 0; 0 ]; [ 1; 0 ]; [ 1; 0 ] ]
    seen

let test_raise_runs_all () =
  (* The flush step raises.  Its point would run nothing, and the
     execution would fail at its end; instead the point's branch runs
     and fails first. *)
  match images ~ncells:1 [ W (0, 1); F 0; Raise ] with
  | _ -> Alcotest.fail "a raising thread passed"
  | exception Explore.Violation { schedule; exn = Exit } ->
      Alcotest.(check string) "fails at the raising step's crash point"
        "t0.t0.t0.c"
        (Explore.schedule_to_string schedule)

let test_sampled_parent_runs_all () =
  (* One line enumerated at most: the point after [x1:=1] samples, so
     the flush's point, back to one dirty line, runs both branches. *)
  let seen, s =
    images ~max_crash_lines:1 ~ncells:2 [ W (0, 1); W (1, 1); F 1 ]
  in
  Alcotest.(check bool) "the parent sampled" true (s.Explore.crash_sampled > 0);
  Alcotest.check image_list "both branches after the flush"
    [ [ 0; 1 ]; [ 1; 1 ] ]
    (last 2 seen);
  Alcotest.(check int) "only the start's point skips every branch" 1
    s.Explore.skipped_points

let test_pending_buffer_runs_all () =
  (* Under px86 x0's flush only buffers it, so the store to x1 lands
     beside a pending buffer: all four (drain prefix, x1 verdict)
     branches run, not just the two that evict x1. *)
  let seen, _ = images ~policy:px86 ~ncells:2 [ W (0, 1); F 0; W (1, 1) ] in
  Alcotest.check image_list "every branch after the store"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (last 4 seen);
  (* A combine store enqueues its line, so its fate is a drain prefix,
     not a verdict: the write-back that persists it must still run. *)
  let seen, _ = images ~policy:Heap.Policy.Combine ~ncells:1 [ W (0, 1) ] in
  Alcotest.check image_list "a combine store: both of its branches"
    [ [ 0 ]; [ 0 ]; [ 1 ] ] seen

let test_budget_boundary () =
  (* One one-entry FIFO doubles a point's choices.  Under px86 the
     flush of x0 only buffers it, so at [max_crash_lines = 2] a point
     with one unflushed line has 2 x 2^1 choices, within the budget of
     2^2, and is enumerated; with two it has 2 x 2^2 and samples. *)
  let budget = images ~policy:px86 ~max_crash_lines:2 ~ncells:3 in
  let buffered = [ W (0, 1); F 0; W (1, 1); W (1, 2) ] in
  let seen, s = budget buffered in
  Alcotest.(check int) "k = max - 1 enumerates" 0 s.Explore.crash_sampled;
  (* The second store to x1 follows a point with the buffer pending,
     which offers no plain parent: all four (drain prefix, x1 verdict)
     branches run, not only the one that evicts x1. *)
  Alcotest.check image_list "every branch after a buffered parent"
    [ [ 0; 0; 0 ]; [ 0; 2; 0 ]; [ 1; 0; 0 ]; [ 1; 2; 0 ] ]
    (last 4 seen);
  let _, s = budget (buffered @ [ W (2, 1) ]) in
  Alcotest.(check int) "k = max samples" 1 s.Explore.crash_sampled;
  (* A fence drains the buffer first.  With no buffer pending the
     budget is [k <= max]: the point with two unflushed lines is
     enumerated too, and each store's parent is plain, so each store
     runs only the branches that evict its line. *)
  let seen, s =
    budget [ W (0, 1); F 0; Fence; W (1, 1); W (1, 2); W (2, 1) ]
  in
  Alcotest.(check int) "k = max enumerates with no buffer" 0
    s.Explore.crash_sampled;
  Alcotest.check image_list "the branches that evict the stored line"
    [ [ 1; 1; 0 ]; [ 1; 2; 0 ]; [ 1; 0; 1 ]; [ 1; 2; 1 ] ]
    (last 4 seen)

let test_one_entry_flush_runs_none () =
  (* Under px86 a flush into empty buffers leaves one entry, the flushed
     line: its two drain prefixes are the parent's two verdicts on that
     line, so the point runs nothing.  Points: the root, the start, x0's
     store (x0 evicted), x1's store (x1 evicted, two images), x0's
     flush (none). *)
  let seen, s = images ~policy:px86 ~ncells:2 [ W (0, 1); W (1, 1); F 0 ] in
  Alcotest.check image_list "no image after the flush"
    [ [ 0; 0 ]; [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ]
    seen;
  Alcotest.(check int) "the start's and the flush's points skip" 2
    s.Explore.skipped_points;
  (* A second entry: the parent had a buffer pending, so its choices
     were not every subset, and all three drain prefixes run. *)
  let seen, _ =
    images ~policy:px86 ~ncells:2 [ W (0, 1); W (1, 1); F 0; F 1 ]
  in
  Alcotest.check image_list "every prefix of a two-entry buffer"
    [ [ 0; 0 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (last 3 seen);
  (* A combine store buffers its line too, but it is a store: the
     volatile word changed, and both of its prefixes run. *)
  let seen, s =
    images ~policy:Heap.Policy.Combine ~ncells:2 [ W (0, 1); W (1, 1) ]
  in
  Alcotest.(check int) "a combine store's point skips nothing" 1
    s.Explore.skipped_points;
  Alcotest.(check bool) "its drained image runs" true
    (List.mem [ 1; 1 ] seen)

let test_all_or_nothing_runs_all () =
  (* After the flush of x0 the all-dropped branch leaves x0 = 1, x1 = 0:
     not one of the parent's two images, (0, 0) and (1, 1), nor any
     earlier point's. *)
  let prog = [ W (1, 1); W (0, 1); F 0 ] in
  let seen, _ = images ~adversary:`All_or_nothing ~ncells:2 prog in
  Alcotest.check image_list "both branches after the flush"
    [ [ 1; 0 ]; [ 1; 1 ] ]
    (last 2 seen);
  let _, s = images ~ncells:2 prog in
  Alcotest.(check int) "per-line: the flush's point skips" 2
    s.Explore.skipped_points

(* The images a single-thread program can leave, from a sequential
   model: at every step boundary, every subset of the dirty lines
   persisted.  Under coalescing a flush enqueues a dirty line, and a
   store, a CAS (hit or miss) or a fence first writes the buffer back. *)
let reference_images ~policy ~line_size ~ncells prog =
  let vol = Array.make ncells 0
  and per = Array.make ncells 0
  and dirty = Array.make ncells false in
  let line c = c / line_size in
  let buffer = ref [] and images = ref [] in
  let persist l =
    Array.iteri
      (fun c d ->
        if d && line c = l then begin
          per.(c) <- vol.(c);
          dirty.(c) <- false
        end)
      dirty
  in
  let drain () =
    List.iter persist !buffer;
    buffer := []
  in
  let coalesced = policy = Heap.Policy.Coalesced in
  let store c v =
    if coalesced then drain ();
    Option.iter
      (fun v ->
        vol.(c) <- v;
        dirty.(c) <- true)
      v
  in
  let rec subsets = function
    | [] -> [ [] ]
    | l :: ls ->
        let rest = subsets ls in
        rest @ List.map (fun s -> l :: s) rest
  in
  let point () =
    let cells = List.init ncells Fun.id in
    let dirty_lines =
      List.sort_uniq compare
        (List.filter_map
           (fun c -> if dirty.(c) then Some (line c) else None)
           cells)
    in
    List.iter
      (fun evicted ->
        images :=
          List.map
            (fun c ->
              if dirty.(c) && List.mem (line c) evicted then vol.(c)
              else per.(c))
            cells
          :: !images)
      (subsets dirty_lines)
  in
  point ();
  List.iter
    (fun instr ->
      (match instr with
      | W (c, v) -> store c (Some v)
      | C (c, e, d) -> store c (if vol.(c) = e then Some d else None)
      | F c ->
          let l = line c in
          if not coalesced then persist l
          else if
            (not (List.mem l !buffer))
            && Array.exists Fun.id
                 (Array.mapi (fun c' d -> d && line c' = l) dirty)
          then buffer := l :: !buffer
      | Fence -> drain ()
      | Event | Raise -> ());
      point ())
    prog;
  List.sort_uniq compare !images

let prop_images_exact =
  QCheck.Test.make ~count:150
    ~name:"crash branches run see exactly the reachable images"
    QCheck.(
      make
        ~print:(fun (ncells, prog) ->
          Printf.sprintf "cells=%d %s" ncells
            (String.concat ";" (List.map instr_to_string prog)))
        Gen.(
          int_range 3 4 >>= fun ncells ->
          let cell = int_range 0 (ncells - 1) and v = int_range 1 3 in
          list_size (int_range 1 8)
            (frequency
               [
                 (3, map2 (fun c v -> W (c, v)) cell v);
                 ( 2,
                   map3 (fun c e d -> C (c, e, d)) cell (int_range 0 3) v );
                 (3, map (fun c -> F c) cell);
                 (1, return Fence);
               ])
          >>= fun prog -> return (ncells, prog)))
    (fun (ncells, prog) ->
      List.for_all
        (fun (policy, line_size) ->
          let seen, _ = images ~policy ~line_size ~ncells prog in
          List.sort_uniq compare seen
          = reference_images ~policy ~line_size ~ncells prog)
        Heap.Policy.[ (Eager, 1); (Eager, 2); (Coalesced, 1); (Coalesced, 2) ])

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
    Alcotest.test_case "eager corpus counts at bound 2 match the golden file"
      `Slow test_corpus_golden_p2_eager;
    Alcotest.test_case "verdict cache never masks a failure" `Quick
      test_verdict_cache;
    QCheck_alcotest.to_alcotest prop_recorder_hash;
    Alcotest.test_case "crash branches never run the prologue" `Quick
      test_prologue_live_only;
    Alcotest.test_case "a restart world holds only what the prologue \
                        persisted"
      `Quick test_prologue_state_not_restarted;
    QCheck_alcotest.to_alcotest prop_cold_image;
    Alcotest.test_case "a cell allocated in a step is refused" `Quick
      test_alloc_in_step_refused;
    Alcotest.test_case "a thread's exception fails its execution" `Quick
      test_thread_exception_fails;
    Alcotest.test_case "a set-up that raises names its case" `Quick
      test_setup_failure_named;
    Alcotest.test_case "a store point runs its line-evicting branches" `Quick
      test_store_runs_evicting;
    Alcotest.test_case "a write-back point runs no branch" `Quick
      test_write_back_runs_none;
    Alcotest.test_case "a step that records runs every branch" `Quick
      test_event_runs_all;
    Alcotest.test_case "a step that raises runs every branch" `Quick
      test_raise_runs_all;
    Alcotest.test_case "a sampled parent's child runs every branch" `Quick
      test_sampled_parent_runs_all;
    Alcotest.test_case "a pending px86 buffer runs every branch" `Quick
      test_pending_buffer_runs_all;
    Alcotest.test_case "one buffer entry at the budget boundary" `Quick
      test_budget_boundary;
    Alcotest.test_case "a one-entry buffer after a flush runs no branch"
      `Quick test_one_entry_flush_runs_none;
    Alcotest.test_case "all-or-nothing runs every branch" `Quick
      test_all_or_nothing_runs_all;
    QCheck_alcotest.to_alcotest prop_images_exact;
  ]
