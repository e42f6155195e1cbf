(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Figure 5a and Figure 5b), the DESIGN.md ablations, and per-operation
   Bechamel latency benchmarks.

     dune exec bench/main.exe                 # everything, short defaults
     dune exec bench/main.exe -- fig5a        # one experiment
     dune exec bench/main.exe -- fig5b --repeats 5 --horizon-us 1000
     dune exec bench/main.exe -- fig5a --backend native --duration 1.0
     dune exec bench/main.exe -- bechamel     # wall-clock op latency
     dune exec bench/main.exe -- setup        # model-checker set-up cost

   The default backend is the discrete-event simulated multiprocessor
   (see DESIGN.md: this container has one core, so domain-based scaling
   curves are physically meaningless here; the native backend remains
   available for real multicore machines). *)

module Experiments = Dssq_workload.Experiments
module Report = Dssq_workload.Report
open Cmdliner

(* ------------------------- common options ---------------------------- *)

let backend_conv =
  Arg.enum [ ("sim", Experiments.Sim_model); ("native", Experiments.Native_domains) ]

let backend =
  Arg.(
    value
    & opt backend_conv Experiments.Sim_model
    & info [ "backend" ] ~doc:"sim or native")

let repeats =
  Arg.(value & opt int 3 & info [ "repeats" ] ~doc:"samples per point")

let horizon_us =
  Arg.(
    value & opt float 300.
    & info [ "horizon-us" ] ~doc:"simulated time per sample (sim backend)")

let duration =
  Arg.(
    value & opt float 0.2
    & info [ "duration" ] ~doc:"seconds per sample (native backend)")

let threads =
  Arg.(
    value
    & opt (list int) Experiments.default_threads
    & info [ "threads" ] ~doc:"thread counts to sweep")

let csv = Arg.(value & flag & info [ "csv" ] ~doc:"also print CSV")

(* Reject non-positive line sizes at parse time rather than letting
   [Line.Alloc.create] raise [Invalid_argument] mid-run. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let line_size =
  Arg.(
    value & opt pos_int 1
    & info [ "line-size" ] ~docv:"WORDS"
        ~doc:
          "persist-line size in words (1, the default, is the legacy \
           word-granular model)")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "write a schema-versioned JSON run report (with memory-event and \
           latency instrumentation) to $(docv)")

let render ~title ~x_label ~y_label ~csv:want_csv series =
  Report.print_table ~title ~x_label ~y_label series;
  Report.print_chart series;
  if want_csv then print_string (Report.to_csv ~x_label series)

let backend_name = function
  | Experiments.Sim_model -> "sim"
  | Experiments.Native_domains -> "native"

(* Each report gets the registry-metrics delta over its own run, not the
   process-lifetime snapshot: the default `bench` invocation writes
   several reports from one process, and without {!Metrics.mark}
   isolation every later report would silently include the earlier runs'
   counters (trace drops included). *)
let write_report ~backend ~experiment ~x_label ~y_label ?(provenance = [])
    ~marked series file =
  let report =
    Dssq_obs.Run_report.make ~backend:(backend_name backend) ~experiment
      ~x_label ~y_label ~provenance
      ~metrics:(Dssq_obs.Metrics.delta_since marked)
      series
  in
  match Dssq_obs.Run_report.write file report with
  | () ->
      Printf.printf "wrote %s (%s v%d)\n" file Dssq_obs.Run_report.schema_name
        Dssq_obs.Run_report.schema_version
  | exception Sys_error msg ->
      Printf.eprintf "bench: cannot write report: %s\n" msg;
      exit 1

(* ------------------------- figure commands --------------------------- *)

let run_fig backend csv json ~experiment ~title ~provenance f =
  let marked = Dssq_obs.Metrics.mark () in
  let series = f ~instrument:(Option.is_some json) in
  render ~title ~x_label:"threads" ~y_label:"Mops/s" ~csv
    (Report.of_run series);
  Option.iter
    (write_report ~backend ~experiment ~x_label:"threads" ~y_label:"Mops/s"
       ~provenance ~marked series)
    json

let fig_provenance ~threads ~line_size =
  [
    ("threads", String.concat "," (List.map string_of_int threads));
    ("line_size", string_of_int line_size);
    ("coalesce", "false");
  ]

let run_fig5a backend threads repeats horizon_us duration line_size csv json =
  run_fig backend csv json ~experiment:"fig5a"
    ~provenance:(fig_provenance ~threads ~line_size)
    ~title:
      "Figure 5a: levels of detectability and persistence (alternating \
       enqueue/dequeue pairs, queue seeded with 16 nodes)"
    (fun ~instrument ->
      Experiments.fig5a_ex ~backend ~threads ~repeats
        ~horizon_ns:(horizon_us *. 1000.)
        ~duration ~line_size ~instrument ())

let fig5a_cmd =
  Cmd.v (Cmd.info "fig5a" ~doc:"MS queue vs DSS non-detectable vs DSS detectable")
    Term.(
      const run_fig5a $ backend $ threads $ repeats $ horizon_us $ duration
      $ line_size $ csv $ json)

let run_fig5b backend threads repeats horizon_us duration line_size csv json =
  run_fig backend csv json ~experiment:"fig5b"
    ~provenance:(fig_provenance ~threads ~line_size)
    ~title:
      "Figure 5b: detectable queue implementations (all operations \
       detectable)"
    (fun ~instrument ->
      Experiments.fig5b_ex ~backend ~threads ~repeats
        ~horizon_ns:(horizon_us *. 1000.)
        ~duration ~line_size ~instrument ())

let fig5b_cmd =
  Cmd.v
    (Cmd.info "fig5b"
       ~doc:"DSS queue vs log queue vs Fast/General CASWithEffect")
    Term.(
      const run_fig5b $ backend $ threads $ repeats $ horizon_us $ duration
      $ line_size $ csv $ json)

(* ------------------------- ablation commands ------------------------- *)

let nthreads_opt =
  Arg.(value & opt int 8 & info [ "nthreads" ] ~doc:"thread count")

let run_ablate_flush nthreads repeats horizon_us csv =
  let series =
    Experiments.ablate_flush ~nthreads ~repeats ~horizon_ns:(horizon_us *. 1000.) ()
  in
  render
    ~title:
      (Printf.sprintf
         "Ablation: persist-instruction latency sweep (%d threads)" nthreads)
    ~x_label:"flush_ns" ~y_label:"Mops/s" ~csv series

let ablate_flush_cmd =
  Cmd.v
    (Cmd.info "ablate-flush" ~doc:"sweep the simulated CLWB+sfence latency")
    Term.(const run_ablate_flush $ nthreads_opt $ repeats $ horizon_us $ csv)

let run_ablate_demand nthreads repeats horizon_us csv =
  let series =
    Experiments.ablate_demand ~nthreads ~repeats ~horizon_ns:(horizon_us *. 1000.) ()
  in
  render
    ~title:
      (Printf.sprintf
         "Ablation: detectability on demand — fraction of detectable pairs \
          (%d threads, DSS queue)"
         nthreads)
    ~x_label:"det_pct" ~y_label:"Mops/s" ~csv series

let ablate_demand_cmd =
  Cmd.v
    (Cmd.info "ablate-demand"
       ~doc:"sweep the fraction of operations requesting detectability")
    Term.(const run_ablate_demand $ nthreads_opt $ repeats $ horizon_us $ csv)

let run_ablate_recovery csv =
  let series = Experiments.ablate_recovery () in
  render
    ~title:
      "Ablation: recovery styles — memory events to recover vs queue length"
    ~x_label:"queue_len" ~y_label:"memory events" ~csv series

let ablate_recovery_cmd =
  Cmd.v
    (Cmd.info "ablate-recovery"
       ~doc:"centralized (Figure 6) vs per-thread recovery cost")
    Term.(const run_ablate_recovery $ csv)

let run_ablate_depth csv =
  let series = Experiments.ablate_depth () in
  render
    ~title:"Ablation: initial queue depth (8 threads)"
    ~x_label:"depth" ~y_label:"Mops/s" ~csv series

let ablate_depth_cmd =
  Cmd.v
    (Cmd.info "ablate-depth" ~doc:"initial queue depth sweep")
    Term.(const run_ablate_depth $ csv)

let run_ablate_crashes csv =
  let series = Experiments.ablate_crash_mtbf () in
  render
    ~title:
      "Ablation: failure-full throughput — effective Mops/s vs crash MTBF \
       (8 threads, recovery charged)"
    ~x_label:"mtbf_us" ~y_label:"Mops/s" ~csv series

let ablate_crashes_cmd =
  Cmd.v
    (Cmd.info "ablate-crashes"
       ~doc:"throughput under periodic crashes (MTBF sweep)")
    Term.(const run_ablate_crashes $ csv)

let run_ablate_pmwcas csv =
  let series = Experiments.ablate_pmwcas () in
  render
    ~title:"Ablation: PMwCAS width — modelled ns per operation"
    ~x_label:"width" ~y_label:"ns/op" ~csv series

let ablate_pmwcas_cmd =
  Cmd.v
    (Cmd.info "ablate-pmwcas" ~doc:"PMwCAS cost vs number of words")
    Term.(const run_ablate_pmwcas $ csv)

let run_ablate_linesize nthreads repeats horizon_us csv json =
  let marked = Dssq_obs.Metrics.mark () in
  let series =
    Experiments.ablate_linesize ~nthreads ~repeats
      ~horizon_ns:(horizon_us *. 1000.) ()
  in
  render
    ~title:
      (Printf.sprintf
         "Ablation: persist-line size — cache-line-granular flushing (%d \
          threads; flushes/op and elided/op in the JSON report)"
         nthreads)
    ~x_label:"line_size" ~y_label:"Mops/s" ~csv (Report.of_run series);
  Option.iter
    (write_report ~backend:Experiments.Sim_model ~experiment:"ablate-linesize"
       ~x_label:"line_size" ~y_label:"Mops/s"
       ~provenance:
         [ ("threads", string_of_int nthreads); ("coalesce", "false") ]
       ~marked series)
    json

let ablate_linesize_cmd =
  Cmd.v
    (Cmd.info "ablate-linesize"
       ~doc:"persist-line size sweep (instrumented flush/elision counts)")
    Term.(
      const run_ablate_linesize $ nthreads_opt $ repeats $ horizon_us $ csv
      $ json)

(* ------------------------- regression sweep -------------------------- *)

let quick_flag =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "CI smoke configuration: sim backend only, two thread counts, one \
           repeat (deterministic)")

let regress_out =
  Arg.(
    value
    & opt string "regress.json"
    & info [ "json" ] ~docv:"FILE" ~doc:"where to write the run report")

let run_regress quick out =
  let marked = Dssq_obs.Metrics.mark () in
  let series = Experiments.regress ~quick () in
  let recovery = Experiments.recovery_latency ~quick () in
  render
    ~title:
      "Benchmark regression sweep: flush coalescing off vs on (line size 1; \
       compare reports with `dssq bench-diff`)"
    ~x_label:"threads" ~y_label:"Mops/s" ~csv:false (Report.of_run series);
  let report =
    Dssq_obs.Run_report.make ~backend:"mixed" ~experiment:"regress"
      ~x_label:"threads" ~y_label:"Mops/s"
      ~params:[ ("quick", string_of_bool quick); ("line_size", "1") ]
      ~metrics:(Dssq_obs.Metrics.delta_since marked)
      ~provenance:[ ("line_size", "1"); ("coalesce", "off+on") ]
      ~recovery series
  in
  (match Dssq_obs.Run_report.write out report with
  | () ->
      Printf.printf "wrote %s (%s v%d)\n" out Dssq_obs.Run_report.schema_name
        Dssq_obs.Run_report.schema_version
  | exception Sys_error msg ->
      Printf.eprintf "bench: cannot write report: %s\n" msg;
      exit 1);
  (* Make the tentpole claim visible in the terminal: coalescing-on vs
     -off mean throughput of the detectable DSS queue, per backend and
     thread count. *)
  let find label =
    List.find_opt (fun (s : Dssq_obs.Run_report.series) -> s.label = label)
      series
  in
  List.iter
    (fun backend ->
      match (find (backend ^ "/dss-det"), find (backend ^ "+co/dss-det")) with
      | Some off, Some on ->
          List.iter2
            (fun (po : Dssq_obs.Run_report.point)
                 (pn : Dssq_obs.Run_report.point) ->
              let mean = Dssq_workload.Stats.mean in
              let fpo (p : Dssq_obs.Run_report.point) =
                if p.ops = 0 then 0.
                else
                  float_of_int p.events.Dssq_memory.Memory_intf.flushes
                  /. float_of_int p.ops
              in
              Printf.printf
                "%s dss-det %2d threads: %.3f -> %.3f Mops/s (%+.1f%%), \
                 flushes/op %.2f -> %.2f\n"
                backend po.x (mean po.samples) (mean pn.samples)
                (100. *. ((mean pn.samples /. mean po.samples) -. 1.))
                (fpo po) (fpo pn))
            off.points on.points
      | _ -> ())
    [ "sim"; "native" ];
  (* And the flat-combining claim: the engine-backed FC queue (one
     persist epoch per batch) against the eager detectable queue. *)
  (match (find "sim/dss-det", find "sim+fc/dss-det") with
  | Some eager, Some fc ->
      List.iter
        (fun (pf : Dssq_obs.Run_report.point) ->
          match
            List.find_opt
              (fun (pe : Dssq_obs.Run_report.point) -> pe.x = pf.x)
              eager.points
          with
          | None -> ()
          | Some pe ->
              let mean = Dssq_workload.Stats.mean in
              Printf.printf
                "fc dss-det %2d threads: %.3f vs eager %.3f Mops/s (%.2fx)\n"
                pf.x (mean pf.samples) (mean pe.samples)
                (mean pf.samples /. mean pe.samples))
        fc.points
  | _ -> ());
  List.iter
    (fun (r : Dssq_obs.Run_report.recovery_point) ->
      Printf.printf "recovery %s/%s: %.4f ms (%d wal records replayed, %d \
                     leaked)\n"
        r.r_object r.r_backend r.r_ms r.r_replayed r.r_leaked)
    recovery

let regress_cmd =
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "benchmark-regression sweep (coalescing off vs on) emitting a \
          BENCH_*.json run report")
    Term.(const run_regress $ quick_flag $ regress_out)

(* ------------------------- flat combining ---------------------------- *)

(* The ISSUE-10 tentpole table: threads x batch size x Mops/s x
   flushes/op for the engine-backed flat-combining queue against the
   eager detectable queue, all on the simulated multiprocessor (the
   shipped numbers; see EXPERIMENTS.md).  One persist epoch per batch
   should make flushes/op strictly decreasing in the batch size and the
   8-thread speedup >= 2x — `dssq bench-diff --speedup-*` gates the
   latter in CI from the regress report. *)
let batches_arg =
  Arg.(
    value
    & opt (list pos_int) [ 1; 2; 4; 8; 16; 32 ]
    & info [ "batches" ] ~docv:"SIZES"
        ~doc:"batch sizes (operation pairs per persist epoch) to sweep")

let fc_threads_arg =
  Arg.(
    value
    & opt (list pos_int) [ 1; 4; 8 ]
    & info [ "threads" ] ~docv:"COUNTS" ~doc:"thread counts to sweep")

let run_combine threads batches =
  let module MI = Dssq_memory.Memory_intf in
  let per (s : Dssq_obs.Run_report.sample) c =
    float_of_int c /. float_of_int (max 1 s.Dssq_obs.Run_report.ops)
  in
  Printf.printf
    "## Flat combining: one persist epoch per batch (sim; dss-fc engine \
     queue vs eager dss-queue, det 100%%)\n";
  Printf.printf "%8s%8s%12s%10s%10s%10s\n" "threads" "batch" "Mops/s" "fl/op"
    "fen/op" "speedup";
  List.iter
    (fun n ->
      let eager =
        Dssq_workload.Sim_throughput.measure_ex ~seed:1 ~mk:"dss-queue"
          ~det_pct:100 ~nthreads:n ()
      in
      let em = eager.Dssq_obs.Run_report.mops in
      Printf.printf "%8d%8s%12.3f%10.3f%10.3f%10s\n" n "eager" em
        (per eager eager.Dssq_obs.Run_report.events.MI.flushes)
        (per eager eager.Dssq_obs.Run_report.events.MI.fences)
        "1.00x";
      List.iter
        (fun b ->
          let s =
            Dssq_workload.Sim_throughput.measure_ex ~seed:1 ~mk:"dss-fc"
              ~det_pct:100 ~combine:true ~batch:b ~nthreads:n ()
          in
          Printf.printf "%8d%8d%12.3f%10.3f%10.3f%9.2fx\n" n b
            s.Dssq_obs.Run_report.mops
            (per s s.Dssq_obs.Run_report.events.MI.flushes)
            (per s s.Dssq_obs.Run_report.events.MI.fences)
            (s.Dssq_obs.Run_report.mops /. em))
        batches)
    threads

let combine_cmd =
  Cmd.v
    (Cmd.info "combine"
       ~doc:
         "flat-combining sweep: threads x batch size x Mops/s x flushes/op \
          (sim backend)")
    Term.(const run_combine $ fc_threads_arg $ batches_arg)

(* NUMA-ish padding-stride sweep on the native backend: how much
   isolation stride the contended cells (head/tail/announces) want on
   real hardware.  Flat on the single-core CI container by construction;
   shipped for multicore machines. *)
let pads_arg =
  Arg.(
    value
    & opt (list Arg.int) [ 0; 7; 15; 31 ]
    & info [ "pads" ] ~docv:"WORDS"
        ~doc:"padding strides (filler words per isolated cell) to sweep")

let run_pad_sweep pads nthreads duration combine batch =
  Printf.printf
    "## Padding-stride sweep (native domains, %d thread(s)%s)\n" nthreads
    (if combine then Printf.sprintf ", combine batch=%d" batch else "");
  Printf.printf "%10s%12s\n" "pad_words" "Mops/s";
  List.iter
    (fun (pad, mops) -> Printf.printf "%10d%12.3f\n" pad mops)
    (Dssq_workload.Native_throughput.pad_sweep ~pads ~det_pct:100 ~combine
       ~batch
       ~mk:(if combine then "dss-fc" else "dss-queue")
       ~nthreads ~duration ())

let pad_sweep_cmd =
  let combine_flag =
    Arg.(
      value & flag
      & info [ "combine" ]
          ~doc:"measure the flat-combining engine queue instead of the eager \
                linked queue")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"PAIRS"
          ~doc:"operation pairs per persist epoch (with $(b,--combine))")
  in
  Cmd.v
    (Cmd.info "pad-sweep"
       ~doc:"NUMA-ish padding-stride sweep on the native backend")
    Term.(
      const run_pad_sweep $ pads_arg $ nthreads_opt $ duration $ combine_flag
      $ batch_arg)

let run_latency () =
  Printf.printf
    "## Modelled single-thread latency per operation (ns, no contention)\n";
  Printf.printf "%-16s%14s%14s%9s\n" "queue" "plain_ns" "detectable_ns" "ratio";
  List.iter
    (fun (name, nondet, det) ->
      Printf.printf "%-16s%14.0f%14.0f%9.2f\n" name nondet det
        (if nondet > 0. then det /. nondet else 0.))
    (Experiments.op_latency ());
  print_newline ()

let latency_cmd =
  Cmd.v
    (Cmd.info "latency" ~doc:"modelled per-operation latency table")
    Term.(const run_latency $ const ())

(* ------------------------- bechamel latency -------------------------- *)

(* OLS estimate of each test's monotonic-clock ns per run, by test name,
   in name order. *)
let bechamel_ns test =
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg [ instance ] test in
  Hashtbl.fold
    (fun name result acc ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> (name, est) :: acc
      | _ -> acc)
    (Analyze.all ols instance raw_results)
    []
  |> List.sort compare

(* Wall-clock per-operation latency on the native backend, one
   Test.make per queue implementation and detectability mode. *)
let run_bechamel () =
  let open Bechamel in
  Dssq_memory.Persist_cost.calibrate ();
  Dssq_memory.Persist_cost.configure ~flush:150 ();
  let module R = Dssq_workload.Registry.Make (Dssq_memory.Native) in
  let mk_test (name, mk) =
    let ops : Dssq_core.Queue_intf.ops =
      mk ?system:None (Dssq_core.Queue_intf.config ~nthreads:1 ~capacity:4096 ())
    in
    let i = ref 0 in
    [
      Test.make
        ~name:(name ^ "/plain-pair")
        (Staged.stage (fun () ->
             incr i;
             ops.enqueue ~tid:0 (!i land 0xFFFF);
             ignore (ops.dequeue ~tid:0)));
      Test.make
        ~name:(name ^ "/detectable-pair")
        (Staged.stage (fun () ->
             incr i;
             ops.d_enqueue ~tid:0 (!i land 0xFFFF);
             ignore (ops.d_dequeue ~tid:0)));
    ]
  in
  let tests = List.concat_map mk_test R.all in
  let test = Test.make_grouped ~name:"queues" ~fmt:"%s %s" tests in
  let results = bechamel_ns test in
  Printf.printf "## Bechamel wall-clock latency (native backend, %d ns/flush charged)\n"
    (Dssq_memory.Persist_cost.current_flush_ns ());
  List.iter
    (fun (name, est) -> Printf.printf "%-44s %10.0f ns/pair\n" name est)
    results;
  print_newline ()

let bechamel_cmd =
  Cmd.v
    (Cmd.info "bechamel" ~doc:"wall-clock op latency via bechamel")
    Term.(const run_bechamel $ const ())

(* ------------------------- scenario set-up --------------------------- *)

(* What the model checker pays per explored execution before it runs a
   step: one fresh scenario — heap, WAL, root directory, object, seeded
   preps and recorder — for each object of the litmus corpus, at the
   default parameters (line size 1, sc) and the object's first program. *)
let run_setup () =
  let open Bechamel in
  let module Scenarios = Dssq_checker.Scenarios in
  let tests =
    List.map
      (fun (d : Scenarios.descriptor) ->
        let prog = List.hd d.d_progs in
        Test.make ~name:(d.d_obj ^ "/" ^ prog)
          (Staged.stage (fun () ->
               ignore
                 (Sys.opaque_identity
                    (d.d_setup ~params:Scenarios.default_params ~prog ())))))
      Scenarios.registry
  in
  let results =
    bechamel_ns (Test.make_grouped ~name:"setup" ~fmt:"%s %s" tests)
  in
  Printf.printf "## Scenario set-up (sim heap, line size 1, sc)\n";
  List.iter
    (fun (name, est) ->
      Printf.printf "%-32s %10.1f us/setup\n" name (est /. 1e3))
    results;
  print_newline ()

let setup_cmd =
  Cmd.v
    (Cmd.info "setup"
       ~doc:"wall-clock cost of one model-checker scenario set-up per object")
    Term.(const run_setup $ const ())

(* ------------------------- default: everything ----------------------- *)

let run_all backend threads repeats horizon_us duration csv =
  run_fig5a backend threads repeats horizon_us duration 1 csv None;
  run_fig5b backend threads repeats horizon_us duration 1 csv None;
  run_ablate_flush 8 repeats horizon_us csv;
  run_ablate_demand 8 repeats horizon_us csv;
  run_ablate_recovery csv;
  run_ablate_depth csv;
  run_ablate_crashes csv;
  run_ablate_pmwcas csv;
  run_ablate_linesize 8 repeats horizon_us csv None;
  run_latency ()

let all_cmd =
  Term.(const run_all $ backend $ threads $ repeats $ horizon_us $ duration $ csv)

let () =
  let info =
    Cmd.info "bench"
      ~doc:
        "Regenerate the paper's figures (5a, 5b) and the DESIGN.md ablations"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:all_cmd info
          [
            fig5a_cmd;
            fig5b_cmd;
            ablate_flush_cmd;
            ablate_demand_cmd;
            ablate_recovery_cmd;
            ablate_depth_cmd;
            ablate_crashes_cmd;
            ablate_pmwcas_cmd;
            ablate_linesize_cmd;
            regress_cmd;
            combine_cmd;
            pad_sweep_cmd;
            latency_cmd;
            bechamel_cmd;
            setup_cmd;
          ]))
