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
      [skipped_branches] — the crash branches the search did not run
      because the parent crash point produced their image — and
      [skipped_points], the crash points with every branch skipped, per
      case and in the coverage totals; [executions] and
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

(** The passing cases' stats summed field by field: the coverage totals
    below and [dssq explore]'s closing summary. *)
let totals results : Explore.stats =
  let ok = List.filter_map (fun r -> Result.to_option r.verdict) results in
  let sum f = List.fold_left (fun acc (s : Explore.stats) -> acc + f s) 0 ok in
  {
    executions = sum (fun s -> s.executions);
    pruned = sum (fun s -> s.pruned);
    crash_branches = sum (fun s -> s.crash_branches);
    branches = sum (fun s -> s.branches);
    crash_points = sum (fun s -> s.crash_points);
    crash_enumerated = sum (fun s -> s.crash_enumerated);
    crash_sampled = sum (fun s -> s.crash_sampled);
    drain_points = sum (fun s -> s.drain_points);
    drain_branches = sum (fun s -> s.drain_branches);
    replays = sum (fun s -> s.replays);
    skipped_points = sum (fun s -> s.skipped_points);
    skipped_branches = sum (fun s -> s.skipped_branches);
    wall_s =
      List.fold_left (fun acc (s : Explore.stats) -> acc +. s.wall_s) 0. ok;
  }

(** Branch/crash-point totals of the passing cases, grouped by
    persist policy — the at-a-glance answer to "how much of the relaxed
    state space did this run actually cover?". *)
let coverage_json results =
  let totals rs =
    let t = totals rs in
    let failures =
      List.filter (fun r -> Result.is_error r.verdict) rs |> List.length
    in
    Json.Obj
      [
        ("cases", Json.Int (List.length rs));
        ("failures", Json.Int failures);
        ("executions", Json.Int t.executions);
        ("branches", Json.Int t.branches);
        ("crash_branches", Json.Int t.crash_branches);
        ("crash_points", Json.Int t.crash_points);
        ("drain_points", Json.Int t.drain_points);
        ("drain_branches", Json.Int t.drain_branches);
        ("replays", Json.Int t.replays);
        ("skipped_points", Json.Int t.skipped_points);
        ("skipped_branches", Json.Int t.skipped_branches);
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
