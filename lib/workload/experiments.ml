(** Drivers for every figure of the paper's evaluation and for the
    ablations listed in DESIGN.md.  The [dssq] commands dispatch here, so
    each experiment is defined exactly once. *)

open Dssq_pmem
module Sim = Dssq_sim.Sim

type backend = Sim_model | Native_domains

let default_threads = [ 1; 2; 3; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]

type queue_config = { label : string; mk : string; det_pct : int }

let measure_point ~backend ~horizon_ns ~duration ~repeats ~instrument
    ~line_size ~policy ~batch (q : queue_config) ~nthreads :
    Dssq_obs.Run_report.sample list =
  List.init repeats (fun r ->
      match backend with
      | Sim_model ->
          Sim_throughput.measure ~seed:(1 + r) ~horizon_ns ~mk:q.mk
            ~det_pct:q.det_pct ~line_size ~policy ~batch ~instrument ~nthreads
            ()
      | Native_domains ->
          Native_throughput.measure ~mk:q.mk ~det_pct:q.det_pct ~line_size
            ~policy ~batch ~instrument ~nthreads ~duration ())

let backend_name = function Sim_model -> "sim" | Native_domains -> "native"

(** One series per queue configuration, one point per thread count, every
    point carrying [repeats] samples plus the aggregate observability
    payload (memory-event deltas, and latency histograms when
    [instrument] is set).  [line_size] (default 1 = the legacy
    word-granular persistence model) sets the backend's persist-line
    size for every measurement. *)
let sweep ?(backend = Sim_model) ?(threads = default_threads) ?(repeats = 3)
    ?(horizon_ns = 300_000.) ?(duration = 0.2) ?(instrument = false)
    ?(line_size = 1) ?(policy = Heap.Policy.Eager) ?(batch = 8)
    (queues : queue_config list) : Dssq_obs.Run_report.series list =
  List.map
    (fun q ->
      {
        Dssq_obs.Run_report.label = q.label;
        points =
          List.map
            (fun nthreads ->
              Dssq_obs.Run_report.point_of_samples ~x:nthreads
                (measure_point ~backend ~horizon_ns ~duration ~repeats
                   ~instrument ~line_size ~policy ~batch q ~nthreads))
            threads;
      })
    queues

(* ---------------------------------------------------------------------- *)
(* Figure 5a: levels of detectability and persistence                      *)
(* ---------------------------------------------------------------------- *)

let fig5a_queues =
  [
    { label = "ms"; mk = "ms-queue"; det_pct = 0 };
    { label = "dss-nondet"; mk = "dss-queue"; det_pct = 0 };
    { label = "dss-det"; mk = "dss-queue"; det_pct = 100 };
  ]

(* ---------------------------------------------------------------------- *)
(* Figure 5b: detectable queue implementations                             *)
(* ---------------------------------------------------------------------- *)

let fig5b_queues =
  [
    { label = "dss-det"; mk = "dss-queue"; det_pct = 100 };
    { label = "log"; mk = "log-queue"; det_pct = 100 };
    { label = "fast-caswe"; mk = "fast-caswe"; det_pct = 100 };
    { label = "gen-caswe"; mk = "general-caswe"; det_pct = 100 };
  ]

(* ---------------------------------------------------------------------- *)
(* Ablation: persist-cost sweep (simulated CLWB+sfence latency)            *)
(* ---------------------------------------------------------------------- *)

let ablate_flush ?(nthreads = 8) ?(flush_costs = [ 0; 50; 140; 300; 600 ])
    ?(repeats = 3) ?(horizon_ns = 300_000.) ?line_size () :
    Dssq_obs.Run_report.series list =
  List.map
    (fun q ->
      Report.figure ~label:q.label
        (fun flush_ns ->
          let flush_ns = float_of_int flush_ns in
          let costs = { Sim_throughput.default_costs with flush_ns } in
          List.init repeats (fun r ->
              (Sim_throughput.measure ~costs ~seed:(1 + r) ~horizon_ns
                 ?line_size ~mk:q.mk ~det_pct:q.det_pct ~nthreads ())
                .mops))
        flush_costs)
    fig5a_queues

(* ---------------------------------------------------------------------- *)
(* Ablation: detectability on demand (fraction of detectable operations)   *)
(* ---------------------------------------------------------------------- *)

let ablate_demand ?(nthreads = 8) ?(percents = [ 0; 25; 50; 75; 100 ])
    ?(repeats = 3) ?(horizon_ns = 300_000.) ?line_size () :
    Dssq_obs.Run_report.series list =
  [
    Report.figure ~label:"dss-queue"
      (fun pct ->
        List.init repeats (fun r ->
            (Sim_throughput.measure ~seed:(1 + r) ~horizon_ns ?line_size
               ~mk:"dss-queue" ~det_pct:pct ~nthreads ())
              .mops))
      percents;
  ]

(* A heap's memory events at the modelled costs, in ns. *)
let modelled_ns (s : Heap.stats) =
  let c = Sim_throughput.default_costs in
  (c.read_ns *. float_of_int s.reads)
  +. (c.write_ns *. float_of_int s.writes)
  +. (c.cas_ns *. float_of_int s.cases)
  +. (c.flush_ns *. float_of_int s.flushes)
  +. (c.fence_ns *. float_of_int s.fences)

(* ---------------------------------------------------------------------- *)
(* Ablation: recovery styles (memory events to recover vs. queue length)   *)
(* ---------------------------------------------------------------------- *)

(* Recovery cost is measured in memory events (deterministic), not wall
   time: the simulated heap counts every read/write/flush the recovery
   procedure performs. *)
let ablate_recovery ?(lengths = [ 0; 16; 64; 256; 1024 ]) ?(nthreads = 8)
    ?(line_size = 1) () : Dssq_obs.Run_report.series list =
  let run_one ~style ~len =
    (* One world: the queue's set-up, marked for a cold restart. *)
    let world () =
      let heap = Heap.create ~line_size () in
      let (module M) = Sim.memory heap in
      let module Q = Dssq_core.Dss_queue.Make (M) in
      let q = Q.create ~nthreads ~capacity:(len + 64) () in
      Heap.log_persists heap;
      let fill () =
        for i = 1 to len do
          Q.enqueue q ~tid:(i mod nthreads) i
        done;
        (* Leave one detectable operation of each kind in flight. *)
        Q.prep_enqueue q ~tid:0 424242;
        if len > 0 then Q.prep_dequeue q ~tid:1
      in
      let recover () =
        match style with
        | `Centralized -> Q.recover q
        | `Decentralized ->
            for tid = 0 to nthreads - 1 do
              Q.recover_thread q ~tid
            done
      in
      (heap, fill, recover)
    in
    let live, fill, _ = world () in
    fill ();
    let heap, _, recover = world () in
    Sim.restart live ~into:heap ~evict_p:0.0 ~seed:0;
    Heap.reset_stats heap;
    recover ();
    let s = Heap.stats heap in
    float_of_int (s.reads + s.writes + s.cases + s.flushes + s.fences)
  in
  List.map
    (fun (label, style) ->
      Report.figure ~label (fun len -> [ run_one ~style ~len ]) lengths)
    [ ("centralized", `Centralized); ("per-thread", `Decentralized) ]

(* ---------------------------------------------------------------------- *)
(* Ablation: initial queue depth                                           *)
(* ---------------------------------------------------------------------- *)

(* The paper fixes the initial queue at 16 nodes.  Sweeping the depth
   shows why that matters: with a near-empty queue, enqueuers and
   dequeuers collide on the same sentinel region (and dequeues hit the
   EMPTY path); with a deep queue, the head and tail lines decouple. *)
let ablate_depth ?(nthreads = 8) ?(depths = [ 0; 4; 16; 64; 256; 1024 ])
    ?(repeats = 3) ?(horizon_ns = 300_000.) ?line_size () :
    Dssq_obs.Run_report.series list =
  List.map
    (fun q ->
      Report.figure ~label:q.label
        (fun depth ->
          List.init repeats (fun r ->
              (Sim_throughput.measure ~seed:(1 + r) ~horizon_ns ?line_size
                 ~init_nodes:depth ~mk:q.mk ~det_pct:q.det_pct ~nthreads ())
                .mops))
        depths)
    fig5a_queues

(* ---------------------------------------------------------------------- *)
(* Ablation: persist-line size (cache-line-granular flushing)              *)
(* ---------------------------------------------------------------------- *)

(* Union of the Figure 5a and 5b queue sets, deduplicated by label:
   every algorithm the figures exercise, each measured across line
   sizes. *)
let linesize_queues =
  fig5a_queues
  @ List.filter
      (fun q -> not (List.exists (fun p -> p.label = q.label) fig5a_queues))
      fig5b_queues

(* Line size 1 is the legacy word-granular model — byte-identical to the
   pre-line-abstraction harness, so its point doubles as a regression
   anchor (CI asserts its flushes/op).  Larger lines co-locate node
   fields, so the second and later flushes of a prep/exec sequence often
   find the line still clean-or-already-persisted and are elided; the
   instrumented run report carries [flushes] and [elided_flushes] deltas
   so the curve of persist traffic vs line size is read directly off the
   JSON. *)
let ablate_linesize ?(nthreads = 8) ?(line_sizes = [ 1; 2; 4; 8; 16 ])
    ?(repeats = 3) ?(horizon_ns = 300_000.) () :
    Dssq_obs.Run_report.series list =
  List.map
    (fun q ->
      {
        Dssq_obs.Run_report.label = q.label;
        points =
          List.map
            (fun ls ->
              Dssq_obs.Run_report.point_of_samples ~x:ls
                (List.init repeats (fun r ->
                     Sim_throughput.measure ~seed:(1 + r) ~horizon_ns
                       ~mk:q.mk ~det_pct:q.det_pct ~line_size:ls
                       ~instrument:true ~nthreads ())))
            line_sizes;
      })
    linesize_queues

(* ---------------------------------------------------------------------- *)
(* Ablation: failure-full throughput (crash MTBF sweep)                    *)
(* ---------------------------------------------------------------------- *)

(* The paper evaluates failure-free runs only.  This experiment measures
   end-to-end throughput when the system actually crashes: run for one
   mean-time-between-failures of simulated time, crash (losing a random
   half of the unflushed cache), restart cold into a fresh set-up loaded
   with the crash's image, run recovery (charged at model costs),
   resolve every thread, and continue on the restarted queue.
   Effective throughput counts total completed operations over total time
   including recovery. *)
let crash_cycles ?(line_size = 1) ~seed ~mtbf_ns ~cycles ~mk ~nthreads ~det_pct
    () =
  let costs = Sim_throughput.default_costs in
  let capacity = 16 + 8 + (nthreads * 192) in
  let world () =
    let heap = Heap.create ~line_size () in
    let ops =
      Registry.setup (Sim.memory heap) ~mk ~init_nodes:16
        (Dssq_core.Queue_intf.config ~line_size ~nthreads ~capacity ())
    in
    Heap.log_persists heap;
    (heap, ops)
  in
  let counters = Array.init nthreads (fun _ -> ref 0) in
  let total_time = ref 0. in
  let live = ref (world ()) in
  for cycle = 1 to cycles do
    let heap, ops = !live in
    let threads =
      Array.init nthreads (fun tid ->
          Sim_throughput.pair_worker ops ~tid ~counter:counters.(tid) ~det_pct)
    in
    ignore
      (Sim_throughput.run ~costs ~seed:(seed + cycle) ~horizon_ns:mtbf_ns ~heap
         ~threads
         ~ops_done:(fun () -> 0)
         ());
    total_time := !total_time +. mtbf_ns;
    if cycle < cycles then begin
      (* Crash, restart cold, recover (charging its memory events at
         model costs), resolve every thread; in-flight operations are
         abandoned. *)
      let (heap', ops') as fresh = world () in
      Sim.restart heap ~into:heap' ~evict_p:0.5 ~seed:(seed + cycle);
      Heap.reset_stats heap';
      ops'.Dssq_core.Queue_intf.recover ();
      for tid = 0 to nthreads - 1 do
        ignore (ops'.Dssq_core.Queue_intf.resolve ~tid)
      done;
      total_time := !total_time +. modelled_ns (Heap.stats heap');
      live := fresh
    end
  done;
  let total_ops = Array.fold_left (fun acc c -> acc + !c) 0 counters in
  float_of_int total_ops /. (!total_time /. 1e9) /. 1e6

let ablate_crash_mtbf ?(mtbfs_us = [ 20; 50; 100; 250; 1000 ]) ?(nthreads = 8)
    ?(cycles = 6) ?(repeats = 2) ?line_size () :
    Dssq_obs.Run_report.series list =
  List.map
    (fun (label, mk) ->
      Report.figure ~label
        (fun mtbf_us ->
          List.init repeats (fun r ->
              crash_cycles ?line_size ~seed:(1 + (r * 37)) ~cycles
                ~mtbf_ns:(float_of_int mtbf_us *. 1000.)
                ~mk ~nthreads ~det_pct:100 ()))
        mtbfs_us)
    [ ("dss-det", "dss-queue"); ("log", "log-queue") ]

(* ---------------------------------------------------------------------- *)
(* Ablation: PMwCAS width (modelled latency per operation vs. word count)  *)
(* ---------------------------------------------------------------------- *)

let ablate_pmwcas ?(widths = [ 1; 2; 3; 4 ]) ?(line_size = 1) () :
    Dssq_obs.Run_report.series list =
  let model_ns s ops = modelled_ns s /. float_of_int ops in
  let run_one ~priv ~width =
    let heap = Heap.create ~line_size () in
    let (module M) = Sim.memory heap in
    let module P = Dssq_pmwcas.Pmwcas.Make (M) in
    let p = P.create ~nwords:width ~nthreads:1 ~max_width:width () in
    let addrs = List.init width (fun i -> P.alloc p i) in
    let reps = 100 in
    Heap.reset_stats heap;
    for r = 0 to reps - 1 do
      let entries =
        List.mapi
          (fun k a ->
            let kind = if priv && k > 0 then `Private else `Shared in
            (a, k + (r * 10), k + ((r + 1) * 10), kind))
          addrs
      in
      assert (P.pmwcas p ~tid:0 entries)
    done;
    model_ns (Heap.stats heap) reps
  in
  List.map
    (fun (label, priv) ->
      Report.figure ~label (fun w -> [ run_one ~priv ~width:w ]) widths)
    [ ("all-shared", false); ("private-rest", true) ]

(* ---------------------------------------------------------------------- *)
(* Benchmark-regression sweep (BENCH_*.json)                               *)
(* ---------------------------------------------------------------------- *)

(* The union of the Figure 5a/5b queue sets, measured with flush
   coalescing off and on, over the simulated multiprocessor (always) and
   real domains (full mode only) — the one sweep a PR compares against
   the checked-in baseline with [dssq bench-diff].  Everything is
   instrumented so each point's event payload carries flushes/op, and
   everything runs at line size 1 (the word-granular model the paper's
   figures use), so the coalescing win is measured without the separate
   line-size elision effect.

   [quick] is the CI smoke configuration: sim backend only, two thread
   counts, one repeat — deterministic (fixed seeds) and a few seconds of
   work.  Full mode adds the native backend, whose wall-clock samples
   are noisy on a loaded machine; [dssq bench-diff]'s tolerance exists
   for exactly that. *)
(* The flat-combining comparison pair: the engine-backed FC queue and
   the linked DSS queue, both fully detectable, measured with combine
   on.  "sim+fc/dss-det" at 8 threads against "sim/dss-det" is the
   ISSUE-10 >=2x gate ([dssq bench-diff --speedup-*]). *)
let fc_queues =
  [
    { label = "dss-det"; mk = "dss-fc"; det_pct = 100 };
    { label = "dss-linked"; mk = "dss-queue"; det_pct = 100 };
  ]

let regress ?(quick = false) () : Dssq_obs.Run_report.series list =
  let sim_threads =
    if quick then
      (* The quick sweep reaches 8 threads (and 16 where the host is
         wide enough) so the >=2x combining gate has its x = 8 point. *)
      if Domain.recommended_domain_count () >= 16 then [ 1; 4; 8; 16 ]
      else [ 1; 4; 8 ]
    else [ 1; 2; 4; 8; 16 ]
  in
  let repeats = if quick then 1 else 3 in
  let horizon_ns = if quick then 120_000. else 300_000. in
  let one ~backend ~threads ~(policy : Heap.Policy.t) queues =
    let prefix =
      backend_name backend
      ^
      match policy with
      | Eager -> ""
      | Coalesced -> "+co"
      | Px86 -> "+px86"
      | Combine -> "+fc"
    in
    sweep ~backend ~threads ~repeats ~horizon_ns ~duration:0.1
      ~instrument:true ~line_size:1 ~policy queues
    |> List.map (fun (s : Dssq_obs.Run_report.series) ->
           { s with label = prefix ^ "/" ^ s.label })
  in
  one ~backend:Sim_model ~threads:sim_threads ~policy:Eager linesize_queues
  @ one ~backend:Sim_model ~threads:sim_threads ~policy:Coalesced
      linesize_queues
  @ one ~backend:Sim_model ~threads:sim_threads ~policy:Combine fc_queues
  @
  if quick then []
  else
    one ~backend:Native_domains ~threads:[ 1; 2; 4 ] ~policy:Eager
      linesize_queues
    @ one ~backend:Native_domains ~threads:[ 1; 2; 4 ] ~policy:Coalesced
        linesize_queues

(* ---------------------------------------------------------------------- *)
(* Modelled single-operation latency (single thread, no contention)        *)
(* ---------------------------------------------------------------------- *)

let op_latency ?(queues = [ "ms-queue"; "dss-queue"; "log-queue"; "fast-caswe"; "general-caswe" ])
    () : (string * float * float) list =
  let model_ns s ops = modelled_ns s /. float_of_int ops in
  List.map
    (fun mk ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module R = Registry.Make (M) in
      let ops =
        R.find mk (Dssq_core.Queue_intf.config ~nthreads:1 ~capacity:256 ())
      in
      let reps = 200 in
      (* non-detectable pair latency *)
      Heap.reset_stats heap;
      for i = 1 to reps do
        ops.enqueue ~tid:0 i;
        ignore (ops.dequeue ~tid:0)
      done;
      let nondet = model_ns (Heap.stats heap) (2 * reps) in
      (* detectable pair latency *)
      Heap.reset_stats heap;
      for i = 1 to reps do
        ops.d_enqueue ~tid:0 i;
        ignore (ops.d_dequeue ~tid:0)
      done;
      let det = model_ns (Heap.stats heap) (2 * reps) in
      (mk, nondet, det))
    queues

(* ---------------------------------------------------------------------- *)
(* Recovery latency: crash-to-reattach per registered object               *)
(* ---------------------------------------------------------------------- *)

let recovery_objects = [ "dss-queue"; "log-queue"; "durable-queue" ]

(* One crash-to-reattach measurement: build [mk] rooted in a
   whole-system recovery handle (so the DSS queue's allocator logs
   through the system WAL), run a deterministic single-threaded
   workload, crash, and time [Recovery.reattach] — WAL replay, root
   re-attachment, the object's own recover, and the leak audit.

   The sim variant charges the reattach's memory events at the
   simulator's default costs, so its milliseconds are modelled and
   fully deterministic — exactly what a bench-diff baseline wants.  The
   native variant is wall-clock over the real backend (no crash to
   apply; the reattach still replays the log and audits the pool). *)
let recovery_latency ?(quick = false) () :
    Dssq_obs.Run_report.recovery_point list =
  let ops_count = if quick then 64 else 512 in
  let workload (ops : Dssq_core.Queue_intf.ops) =
    for i = 1 to ops_count do
      ops.d_enqueue ~tid:0 i;
      if i mod 2 = 0 then ignore (ops.d_dequeue ~tid:0)
    done
  in
  let point ~mk ~backend ~ms (rep : Dssq_core.Recovery.report) =
    {
      Dssq_obs.Run_report.r_object = mk;
      r_backend = backend;
      r_ms = ms;
      r_replayed = rep.Dssq_core.Recovery.replayed;
      r_leaked = rep.Dssq_core.Recovery.leaked_total;
    }
  in
  let sim mk =
    let world () =
      let heap = Heap.create ~line_size:8 () in
      let (module M) = Sim.memory heap in
      let module R = Registry.Make (M) in
      let sys =
        R.Sys.create ~nthreads:1 ~wal_lane_capacity:((2 * ops_count) + 32) ()
      in
      let ops =
        R.setup ~system:sys ~mk ~init_nodes:8
          (Dssq_core.Queue_intf.config ~nthreads:1 ~capacity:(ops_count + 64) ())
      in
      Heap.log_persists heap;
      (heap, ops, fun () -> R.Sys.reattach sys)
    in
    let live, ops, _ = world () in
    workload ops;
    let heap, _, reattach = world () in
    Sim.restart live ~into:heap ~evict_p:0.5 ~seed:7;
    Heap.reset_stats heap;
    let rep = reattach () in
    point ~mk ~backend:"sim" ~ms:(modelled_ns (Heap.stats heap) /. 1e6) rep
  in
  let native mk =
    let module R = Registry.Make (Dssq_memory.Native) in
    let sys =
      R.Sys.create ~nthreads:1 ~wal_lane_capacity:((2 * ops_count) + 32) ()
    in
    let ops =
      R.setup ~system:sys ~mk ~init_nodes:8
        (Dssq_core.Queue_intf.config ~nthreads:1 ~capacity:(ops_count + 64) ())
    in
    workload ops;
    let t0 = Unix.gettimeofday () in
    let rep = R.Sys.reattach sys in
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    point ~mk ~backend:"native" ~ms rep
  in
  List.map sim recovery_objects
  @ if quick then [] else List.map native recovery_objects
