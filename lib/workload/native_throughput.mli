(** Wall-clock throughput over real OCaml domains and the native backend
    (calibrated persist cost) — the harness to use on an actual multicore
    machine; the shipped figures come from {!Sim_throughput} because the
    reference host has two cores, not the paper's 20.

    Instrumentation is a backend/worker selection made here in the
    harness: the uninstrumented path runs the plain backend and the
    original worker loop unchanged. *)

val measure :
  ?init_nodes:int ->
  ?det_pct:int ->
  ?line_size:int ->
  ?policy:Dssq_memory.Memory_intf.Policy.t ->
  ?batch:int ->
  ?instrument:bool ->
  mk:string ->
  nthreads:int ->
  duration:float ->
  unit ->
  Dssq_obs.Run_report.sample
(** Spawn [nthreads] domains alternating enqueue/dequeue pairs on a fresh
    queue ({!Registry} name [mk]) for [duration] seconds.  With
    [instrument:true] the queue runs over a fresh counted copy of the
    native backend (events exclude seeding) and each thread records
    wall-clock per-operation latency, merged into one histogram.
    [line_size] (default 1 = word-granular) reconfigures the native
    backend's line allocator before the queue is built.  Any [policy]
    but [Eager] (the default) runs on a fresh [Native.Make] instance
    under that policy — per-domain persist buffers drained once per
    persistence point — whose event counters are always reported; under
    [Combine] each domain closes a batch persist epoch every [batch]
    (default 8) operation pairs. *)

val pad_sweep :
  ?pads:int list ->
  ?init_nodes:int ->
  ?det_pct:int ->
  ?line_size:int ->
  ?policy:Dssq_memory.Memory_intf.Policy.t ->
  ?batch:int ->
  mk:string ->
  nthreads:int ->
  duration:float ->
  unit ->
  (int * float) list
(** NUMA-ish padding-stride sweep: [(pad_words, Mops/s)] for each
    isolation stride in [pads] (filler words attached to
    [Isolated]-placement cells — head/tail, announce words).  Restores
    the default stride afterwards.  Meaningful on real multicore
    hardware; flat when the host has fewer cores than threads. *)
