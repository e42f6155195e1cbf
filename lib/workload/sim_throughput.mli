(** The simulated multiprocessor: a discrete-event throughput model over
    the deterministic simulator, used to regenerate the paper's
    scalability figures on hosts with far fewer cores than the paper's 20
    (DESIGN.md §1).

    Threads progress on private clocks (smallest clock steps next =
    independent cores); each memory event is charged a latency, and
    conflicting cache-line accesses serialize — exclusive ownership with
    cross-core transfer for stores/CAS, brief occupancy for failed CAS,
    wait-then-share for loads, issuer-stall-only for CLWB.  Contention,
    helping and retry storms come from the algorithm code itself. *)

type costs = {
  read_ns : float;
  write_ns : float;
  cas_ns : float;
  flush_ns : float;
  fence_ns : float;
  work_ns : float;
  cas_fail_line_ns : float;
  transfer_ns : float;
  flush_issue_ns : float;
      (** issue stall of a coalesced (asynchronous) flush; the device
          round-trip ([flush_ns]) completes in the background and is
          waited on at the next drain/fence *)
}

val default_costs : costs
(** Rough published latencies for cache-hit ops, locked CAS, CLWB+sfence
    against Optane, and cross-core line transfer. *)

val run :
  ?costs:costs ->
  ?seed:int ->
  ?clock:(int -> float) ref ->
  horizon_ns:float ->
  heap:Dssq_pmem.Heap.t ->
  threads:(unit -> unit) array ->
  ops_done:(unit -> int) ->
  unit ->
  float
(** Run infinite-loop workers until every private clock passes the
    horizon; returns [ops_done] per simulated second.  When [clock] is
    given it is set (before the first step) to a function mapping a
    thread id to that thread's current simulated time, so instrumented
    workers can time their own operations. *)

val detectable : det_pct:int -> int -> bool
(** Evenly spread: exactly [det_pct] percent of operation indices are
    detectable. *)

val pair_worker :
  ?epoch:int * (unit -> unit) ->
  Dssq_core.Queue_intf.ops ->
  tid:int ->
  counter:int ref ->
  det_pct:int ->
  unit ->
  unit
(** The paper's workload: alternating enqueue/dequeue pairs forever,
    bumping [counter] per completed operation.  [epoch = (k, drain)]
    closes a flat-combining persist epoch — calls [drain] — every [k]
    operation pairs (combine mode only). *)

val timed_pair_worker :
  ?epoch:int * (unit -> unit) ->
  Dssq_core.Queue_intf.ops ->
  tid:int ->
  counter:int ref ->
  det_pct:int ->
  now:(unit -> float) ->
  hist:Dssq_obs.Histogram.t ->
  unit ->
  unit
(** {!pair_worker} plus a per-operation simulated-latency sample recorded
    into [hist] ([now] should read the thread's private clock). *)

val measure :
  ?costs:costs ->
  ?seed:int ->
  ?horizon_ns:float ->
  ?init_nodes:int ->
  ?det_pct:int ->
  ?line_size:int ->
  ?policy:Dssq_pmem.Heap.Policy.t ->
  ?batch:int ->
  ?instrument:bool ->
  mk:string ->
  nthreads:int ->
  unit ->
  Dssq_obs.Run_report.sample
(** One implementation at one thread count on a fresh simulated heap.
    The sample carries throughput, completed operations, the memory-event
    delta over the measured phase (seeding excluded), and — only with
    [instrument:true] — a per-operation latency histogram in simulated
    nanoseconds.  [mk] is a {!Registry} name; the queue is seeded with
    [init_nodes] values (default 16, as in Section 4); [line_size]
    (default 1 = word-granular) sets the heap's persist-line size;
    [policy] (default [Eager]) is the heap's persist policy — under
    [Coalesced] asynchronous flushes are retired by a single drain per
    persist point, and under [Combine] the workers also close a
    flat-combining batch epoch every [batch] (default 8) operation
    pairs. *)
