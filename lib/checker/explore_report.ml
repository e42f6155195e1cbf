(** Schema-versioned JSON encoding of explore-corpus runs: the
    [dssq-explore-report] document written by [dssq explore --json] and
    archived by CI.

    Version history:
    - v1: per-case status, executions/pruned/crash counts, tokens.
    - v2: coverage telemetry per case — branches, sleep_hit_rate,
      crash_points split into enumerated/sampled, wall_s.
    - v3: the buffered (px86) persistency axis — every case carries a
      ["persistency"] field, stats gain [drain_points]/[drain_branches],
      the run params record the swept mode, and a top-level
      ["coverage"] object totals branch/crash-point counts per
      persistency mode.
    - v4: stats gain [replays], the scenario set-ups the search ran
      (per case and in the coverage totals).
    - v5: the persist policy replaces the memory-model fields — every
      case and the run params carry one ["policy"] (eager, coalesced,
      px86 or combine) in place of ["coalesce"]/["combine"]/
      ["persistency"], and ["coverage"] is keyed by policy.
    - v6: crash branches are cold restarts, and stats gain
      [skipped_points]/[skipped_branches] — the crash points (and their
      branches) the search did not run because they repeat their
      parent's — per case and in the coverage totals; [executions] and
      [crash_branches] count only the branches run. *)

module Json = Dssq_obs.Json
module Explore = Dssq_sim.Explore
module Policy = Dssq_pmem.Heap.Policy

let schema = "dssq-explore-report"
let version = 6

(** One corpus case's outcome under the reduced (and optionally the
    naive) search. *)
type case_result = {
  xcase : Scenarios.case;
  verdict : (Explore.stats, Explore.schedule * exn) result;
  naive : (Explore.stats, Explore.schedule * exn) result option;
}

let run_case (c : Scenarios.case) ~reduction =
  match c.Scenarios.run ~reduction with
  | s -> Ok s
  | exception Explore.Violation { schedule; exn } -> Error (schedule, exn)

let stats_fields prefix = function
  | Ok (s : Explore.stats) ->
      let hit_denom = s.pruned + s.branches in
      [
        (prefix ^ "executions", Json.Int s.executions);
        (prefix ^ "pruned", Json.Int s.pruned);
        (prefix ^ "crash_branches", Json.Int s.crash_branches);
        (prefix ^ "branches", Json.Int s.branches);
        ( prefix ^ "sleep_hit_rate",
          Json.Float
            (if hit_denom = 0 then 0.
             else float_of_int s.pruned /. float_of_int hit_denom) );
        (prefix ^ "crash_points", Json.Int s.crash_points);
        (prefix ^ "crash_enumerated", Json.Int s.crash_enumerated);
        (prefix ^ "crash_sampled", Json.Int s.crash_sampled);
        (prefix ^ "drain_points", Json.Int s.drain_points);
        (prefix ^ "drain_branches", Json.Int s.drain_branches);
        (prefix ^ "replays", Json.Int s.replays);
        (prefix ^ "skipped_points", Json.Int s.skipped_points);
        (prefix ^ "skipped_branches", Json.Int s.skipped_branches);
        (prefix ^ "wall_s", Json.Float s.wall_s);
      ]
  | Error (sched, exn) ->
      [
        (prefix ^ "token", Json.String (Explore.schedule_to_string sched));
        (prefix ^ "error", Json.String (Printexc.to_string exn));
      ]

let case_json (r : case_result) =
  let c = r.xcase in
  Json.Obj
    ([
       ("name", Json.String c.Scenarios.name);
       ("object", Json.String c.Scenarios.obj);
       ("program", Json.String c.Scenarios.prog);
       ("crashes", Json.Bool c.Scenarios.crashes);
       ("line_size", Json.Int c.Scenarios.line_size);
       ("policy", Json.String (Policy.to_string c.Scenarios.policy));
       ("nthreads", Json.Int c.Scenarios.nthreads);
       ( "status",
         Json.String (match r.verdict with Ok _ -> "pass" | Error _ -> "fail")
       );
     ]
    @ stats_fields "" r.verdict
    @
    match r.naive with
    | None -> []
    | Some n ->
        ( "naive_status",
          Json.String (match n with Ok _ -> "pass" | Error _ -> "fail") )
        :: stats_fields "naive_" n)

(** Branch/crash-point totals of the passing cases, grouped by
    persist policy — the at-a-glance answer to "how much of the relaxed
    state space did this run actually cover?". *)
let coverage_json results =
  let totals rs =
    let tot f =
      List.fold_left
        (fun acc r -> match r.verdict with Ok s -> acc + f s | Error _ -> acc)
        0 rs
    in
    let failures =
      List.filter (fun r -> Result.is_error r.verdict) rs |> List.length
    in
    Json.Obj
      [
        ("cases", Json.Int (List.length rs));
        ("failures", Json.Int failures);
        ("executions", Json.Int (tot (fun s -> s.Explore.executions)));
        ("branches", Json.Int (tot (fun s -> s.Explore.branches)));
        ("crash_branches", Json.Int (tot (fun s -> s.Explore.crash_branches)));
        ("crash_points", Json.Int (tot (fun s -> s.Explore.crash_points)));
        ("drain_points", Json.Int (tot (fun s -> s.Explore.drain_points)));
        ("drain_branches", Json.Int (tot (fun s -> s.Explore.drain_branches)));
        ("replays", Json.Int (tot (fun s -> s.Explore.replays)));
        ("skipped_points", Json.Int (tot (fun s -> s.Explore.skipped_points)));
        ( "skipped_branches",
          Json.Int (tot (fun s -> s.Explore.skipped_branches)) );
      ]
  in
  Json.Obj
    (List.filter_map
       (fun policy ->
         match
           List.filter (fun r -> r.xcase.Scenarios.policy = policy) results
         with
         | [] -> None
         | rs -> Some (Policy.to_string policy, totals rs))
       Policy.all)

let encode ~params results =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("version", Json.Int version);
      ("git_rev", Json.String (Dssq_obs.Run_report.git_rev ()));
      ("params", Json.Obj params);
      ("coverage", coverage_json results);
      ("cases", Json.List (List.map case_json results));
    ]
