(** Drivers for every figure of the paper's evaluation and the DESIGN.md
    ablations.  The [dssq] commands dispatch here, so each experiment is
    defined exactly once. *)

type backend = Sim_model | Native_domains

val default_threads : int list

type queue_config = { label : string; mk : string; det_pct : int }

val fig5a_queues : queue_config list
(** MS queue vs DSS non-detectable vs DSS detectable (Figure 5a). *)

val fig5b_queues : queue_config list
(** DSS vs log vs Fast/General CASWithEffect, all detectable (Figure 5b). *)

val backend_name : backend -> string
(** ["sim"] or ["native"]: the name a run report and a [--backend] flag
    give the backend. *)

val sweep :
  ?backend:backend ->
  ?threads:int list ->
  ?repeats:int ->
  ?horizon_ns:float ->
  ?duration:float ->
  ?instrument:bool ->
  ?line_size:int ->
  ?policy:Dssq_pmem.Heap.Policy.t ->
  ?batch:int ->
  queue_config list ->
  Dssq_obs.Run_report.series list
(** One series per queue configuration, one point per thread count; every
    point carries the observability payload (memory-event deltas, and
    latency histograms when [instrument] is set).  [line_size] (default 1
    = legacy word-granular persistence) configures the backend's
    persist-line size for every measurement; [policy] (default [Eager])
    is the backend's persist policy — under [Combine] the workers also
    close a flat-combining batch epoch, one driver drain per [batch]
    (default 8) operation pairs.  Figure 5a
    is [sweep fig5a_queues], Figure 5b [sweep fig5b_queues]. *)

val ablate_flush :
  ?nthreads:int ->
  ?flush_costs:int list ->
  ?repeats:int ->
  ?horizon_ns:float ->
  ?line_size:int ->
  unit ->
  Dssq_obs.Run_report.series list
(** Persist-instruction latency sweep. *)

val ablate_demand :
  ?nthreads:int ->
  ?percents:int list ->
  ?repeats:int ->
  ?horizon_ns:float ->
  ?line_size:int ->
  unit ->
  Dssq_obs.Run_report.series list
(** Fraction of operations requesting detectability. *)

val ablate_recovery :
  ?lengths:int list ->
  ?nthreads:int ->
  ?line_size:int ->
  unit ->
  Dssq_obs.Run_report.series list
(** Centralized (Figure 6) vs per-thread recovery: memory events vs
    queue length (deterministic). *)

val ablate_depth :
  ?nthreads:int ->
  ?depths:int list ->
  ?repeats:int ->
  ?horizon_ns:float ->
  ?line_size:int ->
  unit ->
  Dssq_obs.Run_report.series list
(** Initial queue depth sweep. *)

val ablate_linesize :
  ?nthreads:int ->
  ?line_sizes:int list ->
  ?repeats:int ->
  ?horizon_ns:float ->
  unit ->
  Dssq_obs.Run_report.series list
(** Persist-line-size sweep over the union of {!fig5a_queues} and
    {!fig5b_queues}, deduplicated by label, always instrumented
    so each point's event payload carries the [flushes] and
    [elided_flushes] deltas.  Size 1 reproduces the legacy word-granular
    harness exactly and serves as the regression anchor. *)

val ablate_crash_mtbf :
  ?mtbfs_us:int list ->
  ?nthreads:int ->
  ?cycles:int ->
  ?repeats:int ->
  ?line_size:int ->
  unit ->
  Dssq_obs.Run_report.series list
(** Effective throughput vs crash MTBF, recovery charged. *)

val ablate_pmwcas :
  ?widths:int list -> ?line_size:int -> unit -> Dssq_obs.Run_report.series list
(** PMwCAS modelled ns/op vs word count, all-shared vs private-rest. *)

val regress : ?quick:bool -> unit -> Dssq_obs.Run_report.series list
(** The benchmark-regression sweep behind [dssq regress] /
    [BENCH_*.json]: {!ablate_linesize}'s queues with coalescing off and
    on, plus the flat-combining pair (the engine-backed FC queue
    ["dss-det"], registry ["dss-fc"], and the linked DSS queue
    ["dss-linked"]) with combine on, instrumented, at line size 1.  Series
    labels are prefixed ["sim/"], ["sim+co/"], ["sim+fc/"], ["native/"],
    ["native+co/"]; x is the thread count.  [quick] (the CI smoke) is
    sim-only, threads 1/4/8 (plus 16 where the host is wide enough), one
    repeat, deterministic. *)

val op_latency : ?queues:string list -> unit -> (string * float * float) list
(** Modelled single-thread (queue, plain ns/op, detectable ns/op). *)

val recovery_latency :
  ?quick:bool -> unit -> Dssq_obs.Run_report.recovery_point list
(** Crash-to-reattach latency of ["dss-queue"] (allocator routed
    through the system WAL), ["log-queue"] and ["durable-queue"],
    through the whole-system {!Dssq_core.Recovery} path (WAL replay,
    root directory re-attachment, object recover, leak audit).  Sim points
    are modelled nanoseconds over a deterministic workload — stable
    across machines, so they belong in a bench-diff baseline; native
    points (full mode only; [quick] omits them) are wall-clock. *)
