(* Every metric the benchmark reports, with its unit.  Each run prints
   all end-to-end metrics (untraced) or all per-layer metrics (traced),
   whatever the workload; run.py checks these names and units against
   BENCHMARK.json.  A layer a workload does not exercise reports 0 —
   the "predicted flat" cells of README.md's table. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("wall_ms", "ms");
    ("op_p50_ns", "ns");
    ("op_p99_ns", "ns");
  ]

let per_layer =
  [
    ("core.prep_ns", "ns");
    ("core.exec_ns", "ns");
    ("core.resolve_ns", "ns");
    ("core.recover_ms", "ms");
    ("core.audit_ms", "ms");
    ("core.first_op_us", "us");
    ("core.fc_ops_per_batch", "ops/batch");
    ("memory.reads_per_op", "count/op");
    ("memory.writes_per_op", "count/op");
    ("memory.cas_per_op", "count/op");
    ("memory.flushes_per_op", "count/op");
    ("memory.elided_flushes_per_op", "count/op");
    ("memory.fences_per_op", "count/op");
    ("memory.pwrites_per_op", "count/op");
    ("memory.drains_per_op", "count/op");
    ("memory.cas_fail_ratio", "ratio");
    ("pmem.coalesced_flushes_per_op", "count/op");
    ("pmem.elided_fences_per_op", "count/op");
    ("pmem.wal_replay_ms", "ms");
    ("pmem.wal_records_replayed", "count");
    ("pmem.roots_reattach_ms", "ms");
    ("pmem.wal_truncate_ms", "ms");
    ("pmem.restart_events", "count");
    ("sim.events_per_wall_s", "events/s");
    ("sim.modelled_wait_share", "ratio");
    ("sim.explore.executions", "count");
    ("sim.explore.branches", "count");
    ("sim.explore.sleep_hit_rate", "ratio");
    ("sim.explore.crash_points", "count");
    ("sim.explore.search_s", "s");
    ("checker.setup_s", "s");
    ("checker.setup_calls", "count");
    ("checker.setup_us_per_call", "us");
    ("checker.check_s", "s");
    ("checker.reattach_s", "s");
    ("bench.ref_ns_per_iter", "ns");
    ("bench.ref_spread", "ratio");
    ("bench.trace_overhead", "ratio");
  ]

(* What one workload run produced.  [errors] are failed output checks;
   [failed] counts operations that raised or returned a wrong result. *)
type result = {
  attempted : int;
  failed : int;
  errors : string list;
  values : (string * float) list;
}

(* Fill every metric of [catalogue] from [values], 0 for a layer the
   workload does not touch.  A value outside the catalogue is a bug. *)
let complete ~catalogue values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        invalid_arg ("Metrics.complete: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      (name, Option.value ~default:0. (List.assoc_opt name values), unit_))
    catalogue

let per_op n x = if n = 0 then 0. else float_of_int x /. float_of_int n
