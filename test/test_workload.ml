(** Tests for the workload/benchmark machinery: statistics, report
    rendering, the discrete-event throughput model, the native harness
    (tiny run), and the experiment drivers (tiny parameters). *)

module Stats = Dssq_workload.Stats
module Report = Dssq_workload.Report
module Sim_throughput = Dssq_workload.Sim_throughput
module Native_throughput = Dssq_workload.Native_throughput
module Experiments = Dssq_workload.Experiments

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "stddev" 1. (Stats.stddev [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0. (Stats.stddev [ 5. ]);
  Alcotest.(check (float 1e-6)) "rsd" 50. (Stats.rsd [ 1.; 2.; 3. ]);
  Alcotest.(check bool) "mean empty is nan" true (Float.is_nan (Stats.mean []));
  Alcotest.(check bool) "rsd empty is nan" true (Float.is_nan (Stats.rsd []));
  Alcotest.(check bool)
    "minimum empty is nan" true
    (Float.is_nan (Stats.minimum []));
  Alcotest.(check bool)
    "maximum empty is nan" true
    (Float.is_nan (Stats.maximum []));
  Alcotest.(check (float 1e-9)) "minimum" 1. (Stats.minimum [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "maximum" 3. (Stats.maximum [ 3.; 1.; 2. ])

(* Pinned percentile values: the linear-interpolation (R-7) definition
   has well-known exact answers on small samples; these pin the rank
   formula so an off-by-one (n+1 vs n-1, or an unclamped p=100 index)
   cannot creep back in. *)
let test_percentile () =
  let p q xs = Stats.percentile q xs in
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (p 50. []));
  Alcotest.(check (float 1e-9)) "n=1 any p" 7. (p 25. [ 7. ]);
  Alcotest.(check (float 1e-9)) "n=1 p=0" 7. (p 0. [ 7. ]);
  Alcotest.(check (float 1e-9)) "n=1 p=100" 7. (p 100. [ 7. ]);
  (* n=2: interpolates the gap linearly. *)
  Alcotest.(check (float 1e-9)) "n=2 median" 15. (p 50. [ 10.; 20. ]);
  Alcotest.(check (float 1e-9)) "n=2 p=25" 12.5 (p 25. [ 10.; 20. ]);
  (* n=4, unsorted input: rank of p=50 is 1.5. *)
  Alcotest.(check (float 1e-9)) "n=4 median" 2.5 (p 50. [ 4.; 1.; 3.; 2. ]);
  (* n=5: odd length, exact middle element, no interpolation. *)
  Alcotest.(check (float 1e-9))
    "n=5 median" 3.
    (p 50. [ 5.; 4.; 3.; 2.; 1. ]);
  (* Endpoints are the order statistics themselves. *)
  Alcotest.(check (float 1e-9)) "p=0 is min" 1. (p 0. [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "p=100 is max" 3. (p 100. [ 3.; 1.; 2. ]);
  (* The classic R-7 check: p=75 over 1..4 has rank 2.25. *)
  Alcotest.(check (float 1e-9)) "n=4 p=75" 3.25 (p 75. [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "median =" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (p 101. [ 1. ]))

let test_detectable_fraction () =
  let count pct =
    let n = ref 0 in
    for i = 0 to 99 do
      if Sim_throughput.detectable ~det_pct:pct i then incr n
    done;
    !n
  in
  Alcotest.(check int) "0%" 0 (count 0);
  Alcotest.(check int) "25%" 25 (count 25);
  Alcotest.(check int) "50%" 50 (count 50);
  Alcotest.(check int) "75%" 75 (count 75);
  Alcotest.(check int) "100%" 100 (count 100)

let test_sim_throughput_positive () =
  let mops =
    (Sim_throughput.measure ~horizon_ns:50_000. ~mk:"dss-queue" ~nthreads:2 ())
      .mops
  in
  Alcotest.(check bool) "positive throughput" true (mops > 0.)

let test_sim_throughput_deterministic () =
  let run () =
    (Sim_throughput.measure ~seed:5 ~horizon_ns:50_000. ~mk:"dss-queue"
       ~nthreads:3 ())
      .mops
  in
  Alcotest.(check (float 1e-12)) "same seed, same result" (run ()) (run ())

let test_sim_throughput_ordering () =
  (* The headline qualitative result at low parallelism: MS > DSS
     non-detectable > DSS detectable. *)
  let measure mk det_pct =
    (Sim_throughput.measure ~horizon_ns:100_000. ~mk ~det_pct ~nthreads:2 ())
      .mops
  in
  let ms = measure "ms-queue" 0 in
  let nondet = measure "dss-queue" 0 in
  let det = measure "dss-queue" 100 in
  Alcotest.(check bool)
    (Printf.sprintf "ms (%.2f) > nondet (%.2f)" ms nondet)
    true (ms > nondet);
  Alcotest.(check bool)
    (Printf.sprintf "nondet (%.2f) > det (%.2f)" nondet det)
    true (nondet > det)

let test_sim_throughput_flush_cost_matters () =
  let measure flush_ns =
    let costs =
      { Sim_throughput.default_costs with flush_ns = float_of_int flush_ns }
    in
    (Sim_throughput.measure ~costs ~horizon_ns:100_000. ~mk:"dss-queue"
       ~det_pct:100 ~nthreads:1 ())
      .mops
  in
  Alcotest.(check bool) "cheaper flushes, more throughput" true
    (measure 0 > measure 500)

let test_all_queues_run_in_model () =
  List.iter
    (fun mk ->
      let mops =
        (Sim_throughput.measure ~horizon_ns:30_000. ~mk ~nthreads:2 ()).mops
      in
      Alcotest.(check bool) (mk ^ " produces throughput") true (mops > 0.))
    [ "dss-queue"; "ms-queue"; "durable-queue"; "log-queue"; "fast-caswe"; "general-caswe" ]

(* Golden values of the throughput model at 8 threads.  Determinism
   alone ("same seed, same result") holds for any rewrite of the model;
   these pin the numbers themselves, so a change to the stepping loop's
   arithmetic, its random draws or its line bookkeeping shows up here.
   Floats are compared through their exact hexadecimal form. *)
let test_sim_throughput_golden () =
  let fingerprint ?(instrument = false) ~line_size ~policy mk =
    let s =
      Sim_throughput.measure ~seed:3 ~horizon_ns:100_000. ~line_size ~policy
        ~instrument ~mk ~nthreads:8 ()
    in
    let e = s.Dssq_obs.Run_report.events in
    let latency =
      match s.latency with
      | None -> ""
      | Some h ->
          Printf.sprintf " lat_n=%d lat_sum=%h" (Dssq_obs.Histogram.total h)
            (Dssq_obs.Histogram.sum h)
    in
    Printf.sprintf
      "ops=%d mops=%h reads=%d writes=%d cas=%d pwrites=%d flushes=%d \
       elided=%d coalesced=%d fences=%d elided_fences=%d%s"
      s.ops s.mops e.reads e.writes e.cases e.pwrites e.flushes
      e.elided_flushes e.coalesced_flushes e.fences e.elided_fences latency
  in
  let check name expected got = Alcotest.(check string) name expected got in
  check "dss-queue eager"
    "ops=168 mops=0x1.ae147ae147ae1p+0 reads=3017 writes=587 \
     cas=937 pwrites=924 flushes=1142 elided=0 coalesced=0 fences=0 \
     elided_fences=0"
    (fingerprint ~line_size:1 ~policy:Eager "dss-queue");
  check "dss-queue eager instrumented"
    "ops=129 mops=0x1.4a3d70a3d70a4p+0 reads=2806 writes=452 \
     cas=936 pwrites=711 flushes=574 elided=403 coalesced=0 \
     fences=0 elided_fences=0 lat_n=129 \
     lat_sum=0x1.7293a7bf9caf9p+19"
    (fingerprint ~instrument:true ~line_size:8 ~policy:Eager "dss-queue");
  check "dss-queue coalesced"
    "ops=114 mops=0x1.23d70a3d70a3dp+0 reads=2568 writes=391 \
     cas=878 pwrites=621 flushes=498 elided=324 coalesced=65 \
     fences=503 elided_fences=65"
    (fingerprint ~line_size:8 ~policy:Coalesced "dss-queue");
  check "dss-fc combine"
    "ops=345 mops=0x1.b99999999999ap+1 reads=7349 writes=353 \
     cas=749 pwrites=786 flushes=457 elided=2292 coalesced=742 \
     fences=421 elided_fences=326"
    (fingerprint ~line_size:8 ~policy:Combine "dss-fc")

(* A hand-written [Sim_throughput.run] program whose threads allocate
   fresh cells while the model runs: their line ids lie past every line
   that existed when the run started, which no queue workload reaches.
   Every thread also stores to one shared line, so that line is busy
   whenever the tables grow.  Pins the return value and each thread's
   final private clock. *)
let test_sim_throughput_run_allocating () =
  let heap = Dssq_pmem.Heap.create () in
  let (module M) = Dssq_sim.Sim.memory heap in
  let shared = M.alloc 0 in
  let count = Array.make 3 0 in
  let worker tid () =
    while true do
      let c = M.alloc tid in
      M.write shared tid;
      M.write c (M.read shared);
      M.flush c;
      ignore (M.cas shared ~expected:(M.read c) ~desired:(M.read c + 1));
      M.fence ();
      count.(tid) <- count.(tid) + 1
    done
  in
  let lines_before = heap.Dssq_pmem.Heap.line_count in
  let clock = ref (fun (_ : int) -> 0.) in
  let per_sec =
    Sim_throughput.run ~seed:9 ~clock ~horizon_ns:20_000. ~heap
      ~threads:(Array.init 3 worker)
      ~ops_done:(fun () -> Array.fold_left ( + ) 0 count)
      ()
  in
  Alcotest.(check bool)
    "threads allocated lines mid-run" true
    (heap.Dssq_pmem.Heap.line_count > lines_before + 64);
  Alcotest.(check string)
    "allocating run"
    "per_sec=0x1.f47cfffffffffp+21 shared=0 ops=27,26,29 \
     clocks=0x1.3c784a6719a05p+14,0x1.39e3477c66597p+14,0x1.3aefbe3a1c47cp+14"
    (Printf.sprintf "per_sec=%h shared=%d ops=%s clocks=%s" per_sec
       (M.read shared)
       (String.concat "," (Array.to_list (Array.map string_of_int count)))
       (String.concat ","
          (List.map (fun tid -> Printf.sprintf "%h" (!clock tid)) [ 0; 1; 2 ])))

let test_native_throughput_smoke () =
  Dssq_memory.Persist_cost.configure ~flush:0 ~fence:0 ();
  let mops =
    (Native_throughput.measure ~mk:"dss-queue" ~nthreads:2 ~duration:0.05 ())
      .mops
  in
  Alcotest.(check bool) "native harness runs" true (mops > 0.)

let test_report_rendering () =
  let series =
    [
      Report.figure ~label:"a" (fun _ -> [ 1.0; 1.1 ]) [ 1 ];
      Report.figure ~label:"b" (fun _ -> [ 2.0 ]) [ 1 ];
    ]
  in
  let csv = Report.to_csv ~x_label:"threads" series in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 0 && String.sub csv 0 11 = "threads,a,b");
  let buf = Buffer.create 64 in
  let out = Format.formatter_of_buffer buf in
  Report.print_table ~out ~title:"t" ~x_label:"threads" ~y_label:"Mops/s" series;
  Report.print_chart ~out series;
  Format.pp_print_flush out ();
  Alcotest.(check bool) "table rendered" true
    (String.length (Buffer.contents buf) > 0)

let test_experiments_tiny () =
  let series =
    Experiments.sweep ~threads:[ 1; 2 ] ~repeats:1 ~horizon_ns:20_000.
      Experiments.fig5a_queues
  in
  Alcotest.(check int) "three series" 3 (List.length series);
  List.iter
    (fun (s : Dssq_obs.Run_report.series) ->
      Alcotest.(check int) "two points" 2 (List.length s.points))
    series;
  let series_b =
    Experiments.sweep ~threads:[ 1 ] ~repeats:1 ~horizon_ns:20_000.
      Experiments.fig5b_queues
  in
  Alcotest.(check int) "four series" 4 (List.length series_b)

let test_ablate_recovery_scaling () =
  let series = Experiments.ablate_recovery ~lengths:[ 0; 64 ] ~nthreads:2 () in
  Alcotest.(check int) "two styles" 2 (List.length series);
  (* Centralized recovery scans the list: cost grows with length. *)
  let centralized = List.hd series in
  match centralized.Dssq_obs.Run_report.points with
  | [ p0; p64 ] ->
      Alcotest.(check bool) "recovery cost grows with queue length" true
        (Dssq_workload.Stats.mean p64.samples
        > Dssq_workload.Stats.mean p0.samples)
  | _ -> Alcotest.fail "expected two points"

let test_ablate_pmwcas_scaling () =
  let series = Experiments.ablate_pmwcas ~widths:[ 1; 3 ] () in
  List.iter
    (fun (s : Dssq_obs.Run_report.series) ->
      match s.points with
      | [ p1; p3 ] ->
          Alcotest.(check bool)
            (s.label ^ ": wider is costlier")
            true
            (Stats.mean p3.samples > Stats.mean p1.samples)
      | _ -> Alcotest.fail "expected two points")
    series

let test_ablate_crash_mtbf () =
  (* Effective throughput under periodic crashes must grow with the
     mean time between failures (recovery amortizes). *)
  let series =
    Experiments.ablate_crash_mtbf ~mtbfs_us:[ 50; 500 ] ~nthreads:2 ~cycles:3
      ~repeats:1 ()
  in
  List.iter
    (fun (s : Dssq_obs.Run_report.series) ->
      match s.points with
      | [ p50; p500 ] ->
          Alcotest.(check bool)
            (s.label ^ ": longer MTBF, higher throughput")
            true
            (Stats.mean p500.samples > Stats.mean p50.samples);
          Alcotest.(check bool)
            (s.label ^ ": positive throughput")
            true
            (Stats.mean p50.samples > 0.)
      | _ -> Alcotest.fail "expected two points")
    series

let test_ablate_linesize_tiny () =
  let series =
    Experiments.ablate_linesize ~nthreads:2 ~line_sizes:[ 1; 8 ] ~repeats:1
      ~horizon_ns:30_000. ()
  in
  Alcotest.(check int) "fig5a ∪ fig5b queues" 6 (List.length series);
  let dss =
    List.find
      (fun (s : Dssq_obs.Run_report.series) -> s.label = "dss-det")
      series
  in
  match dss.points with
  | [ p1; p8 ] ->
      let open Dssq_memory.Memory_intf in
      Alcotest.(check int) "size 1 point" 1 p1.Dssq_obs.Run_report.x;
      Alcotest.(check int) "nothing elided at size 1" 0
        p1.Dssq_obs.Run_report.events.elided_flushes;
      Alcotest.(check bool) "elision at size 8" true
        (p8.Dssq_obs.Run_report.events.elided_flushes > 0);
      let per_op (p : Dssq_obs.Run_report.point) =
        float_of_int p.events.flushes /. float_of_int (max 1 p.ops)
      in
      Alcotest.(check bool)
        (Printf.sprintf "fewer flushes/op at size 8 (%.2f < %.2f)" (per_op p8)
           (per_op p1))
        true
        (per_op p8 < per_op p1)
  | _ -> Alcotest.fail "expected two points"

(* The Line module is shared by both backends, so the same scripted
   single-threaded DSS queue run must report identical flush and elision
   deltas on the counted simulator heap and on the native Counted
   backend — the cross-backend contract of the line refactor. *)
let test_cross_backend_flush_parity () =
  let line_size = 8 in
  let pairs = 40 in
  let script (ops : Dssq_core.Queue_intf.ops) =
    for i = 1 to pairs do
      ops.d_enqueue ~tid:0 i;
      ignore (ops.d_dequeue ~tid:0)
    done
  in
  let cfg =
    Dssq_core.Queue_intf.config ~line_size ~nthreads:2 ~capacity:256 ()
  in
  (* Simulator backend. *)
  let heap = Dssq_pmem.Heap.create ~line_size () in
  let (module S) = Dssq_sim.Sim.counted_memory heap in
  let ops_sim =
    Dssq_workload.Registry.setup (module S) ~mk:"dss-queue" ~init_nodes:16 cfg
  in
  S.reset_counters ();
  ignore (Dssq_sim.Sim.run heap ~threads:[ (fun () -> script ops_sim) ]);
  let c_sim = S.counters () in
  (* Native backend (restore the process-wide word-granular default
     afterwards: other tests rely on it). *)
  Fun.protect
    ~finally:(fun () -> Dssq_memory.Native.set_line_size 1)
    (fun () ->
      Dssq_memory.Native.set_line_size line_size;
      let module C = Dssq_memory.Native.Counted () in
      let ops_nat =
        Dssq_workload.Registry.setup
          (module C)
          ~mk:"dss-queue" ~init_nodes:16 cfg
      in
      C.reset_counters ();
      script ops_nat;
      let c_nat = C.counters () in
      let open Dssq_memory.Memory_intf in
      Alcotest.(check int) "flushes agree" c_sim.flushes c_nat.flushes;
      Alcotest.(check int) "elisions agree" c_sim.elided_flushes
        c_nat.elided_flushes;
      Alcotest.(check bool) "elision actually exercised" true
        (c_sim.elided_flushes > 0);
      Alcotest.(check int) "writes agree" c_sim.writes c_nat.writes;
      Alcotest.(check int) "CASes agree" c_sim.cases c_nat.cases)

let test_op_latency_ordering () =
  let lat = Experiments.op_latency () in
  let get name =
    let _, nondet, det = List.find (fun (n, _, _) -> n = name) lat in
    (nondet, det)
  in
  let _, dss_det = get "dss-queue" in
  let ms_nondet, _ = get "ms-queue" in
  let _, gen_det = get "general-caswe" in
  let _, fast_det = get "fast-caswe" in
  Alcotest.(check bool) "ms cheapest" true (ms_nondet < dss_det);
  Alcotest.(check bool) "dss beats general caswe" true (dss_det < gen_det);
  Alcotest.(check bool) "fast caswe beats general" true (fast_det < gen_det)

let suite =
  [
    Alcotest.test_case "statistics" `Quick test_stats;
    Alcotest.test_case "percentile pinned values" `Quick test_percentile;
    Alcotest.test_case "detectable fraction spread" `Quick
      test_detectable_fraction;
    Alcotest.test_case "sim throughput positive" `Quick
      test_sim_throughput_positive;
    Alcotest.test_case "sim throughput deterministic" `Quick
      test_sim_throughput_deterministic;
    Alcotest.test_case "figure 5a ordering at low parallelism" `Quick
      test_sim_throughput_ordering;
    Alcotest.test_case "flush cost drives the gap" `Quick
      test_sim_throughput_flush_cost_matters;
    Alcotest.test_case "all queues run in the model" `Quick
      test_all_queues_run_in_model;
    Alcotest.test_case "sim throughput golden values" `Quick
      test_sim_throughput_golden;
    Alcotest.test_case "sim throughput run allocating mid-run" `Quick
      test_sim_throughput_run_allocating;
    Alcotest.test_case "native harness smoke" `Quick test_native_throughput_smoke;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "experiment drivers (tiny)" `Quick test_experiments_tiny;
    Alcotest.test_case "ablation: recovery cost scales" `Quick
      test_ablate_recovery_scaling;
    Alcotest.test_case "ablation: pmwcas width scales" `Quick
      test_ablate_pmwcas_scaling;
    Alcotest.test_case "ablation: crash MTBF amortizes" `Quick
      test_ablate_crash_mtbf;
    Alcotest.test_case "ablation: line size elides flushes" `Quick
      test_ablate_linesize_tiny;
    Alcotest.test_case "cross-backend flush/elision parity" `Quick
      test_cross_backend_flush_parity;
    Alcotest.test_case "modelled op latency ordering" `Quick
      test_op_latency_ordering;
  ]
