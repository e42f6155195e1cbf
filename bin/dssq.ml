(* dssq — command-line front end for the DSS queue reproduction.

     dssq figures                     Figures 5a/5b, every ablation, latency
     dssq fig5a / fig5b / ablate-*    one experiment
     dssq regress / bench-diff        benchmark-regression sweep and gate
     dssq combine / pad-sweep         flat-combining and padding sweeps
     dssq bechamel / setup            wall-clock latency via Bechamel
     dssq metrics / zoo / profile     memory-event accounting
     dssq crash-demo / trace          crash/recovery walkthroughs
     dssq lincheck / explore / fsck   correctness checking
     dssq info                        inventory of what this repo implements

   Throughput experiments run on the discrete-event simulated
   multiprocessor by default; --backend native runs real domains. *)

module Experiments = Dssq_workload.Experiments
module Report = Dssq_workload.Report
module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Spec = Dssq_spec.Spec
module Dss_spec = Dssq_spec.Dss_spec
module Specs = Dssq_spec.Specs
module Lincheck = Dssq_lincheck.Lincheck
module Trace = Dssq_obs.Trace
module Json = Dssq_obs.Json
module Run_report = Dssq_obs.Run_report
module MI = Dssq_memory.Memory_intf
module Scenarios = Dssq_checker.Scenarios
module Trial = Dssq_trial.Trial
open Cmdliner

(* ------------------------------- flags ------------------------------- *)

(* Every flag is declared once, here, and means the same thing in each
   command that takes it.  Counts, crash steps and probabilities are
   checked when the flags are parsed, so no zero count reaches
   [Queue_intf.config] or a mean and no crash is planned before a
   negative step or with an eviction probability outside [0, 1]. *)

let int_in ~lo ?(hi = max_int) what =
  let parse s =
    match int_of_string_opt s with
    | Some n when lo <= n && n <= hi -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_in ~lo:1 "a positive integer"
let nonneg_int = int_in ~lo:0 "a non-negative integer"

let probability =
  let parse s =
    match float_of_string_opt s with
    | Some p when 0. <= p && p <= 1. -> Ok p
    | _ ->
        Error
          (`Msg (Printf.sprintf "expected a probability in [0, 1], got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let backend_arg =
  let backends = [ Experiments.Sim_model; Experiments.Native_domains ] in
  Arg.(
    value
    & opt (enum (List.map (fun b -> (Experiments.backend_name b, b)) backends))
        Experiments.Sim_model
    & info [ "backend" ]
        ~doc:
          "memory backend: $(b,sim) (default; the simulated multiprocessor, \
           modelled time) or $(b,native) (real domains, wall clock)")

let threads_arg default =
  Arg.(
    value
    & opt (list pos_int) default
    & info [ "threads" ] ~docv:"COUNTS" ~doc:"thread counts to sweep")

(* The knobs of a throughput sweep on the simulated multiprocessor, and
   their defaults. *)
type knobs = { nthreads : int; repeats : int; horizon_us : float }

let default_knobs = { nthreads = 8; repeats = 3; horizon_us = 300. }

let nthreads_arg =
  Arg.(
    value
    & opt pos_int default_knobs.nthreads
    & info [ "nthreads" ] ~docv:"N" ~doc:"thread count")

let repeats_arg =
  Arg.(
    value
    & opt pos_int default_knobs.repeats
    & info [ "repeats" ] ~doc:"samples per point")

let horizon_us_arg =
  Arg.(
    value
    & opt float default_knobs.horizon_us
    & info [ "horizon-us" ] ~docv:"US"
        ~doc:"simulated time per sample (sim backend)")

let knobs_arg =
  Term.(
    const (fun nthreads repeats horizon_us -> { nthreads; repeats; horizon_us })
    $ nthreads_arg $ repeats_arg $ horizon_us_arg)

let duration_arg =
  Arg.(
    value & opt float 0.2
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:"wall-clock time per sample (native backend)")

let pairs_arg =
  Arg.(
    value & opt pos_int 200
    & info [ "pairs" ] ~doc:"operation pairs per thread (and per object)")

let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"also print the table as CSV")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"write the command's schema-versioned JSON report to $(docv)")

let object_arg names default ~doc =
  Arg.(value & opt names default & info [ "object" ] ~docv:"NAME" ~doc)

let queue_arg names default =
  Arg.(
    value & opt names default
    & info [ "queue" ] ~docv:"NAME"
        ~doc:"queue implementation (see $(b,dssq info))")

let step_arg default =
  Arg.(
    value & opt nonneg_int default
    & info [ "step" ] ~doc:"memory event to crash before")

let evict_arg =
  Arg.(
    value & opt probability 0.5
    & info [ "evict" ] ~doc:"cache eviction probability at the crash")

let seed_arg default =
  Arg.(
    value & opt int default
    & info [ "seed" ] ~doc:"seed of the run's pseudo-random choices")

let line_size_arg =
  Arg.(
    value & opt pos_int 1
    & info [ "line-size" ] ~docv:"WORDS"
        ~doc:
          "persist-line size in words (1, the default, is the legacy \
           word-granular model)")

let policy_arg =
  let policies =
    List.map (fun p -> (MI.Policy.to_string p, p)) MI.Policy.all
  in
  Arg.(
    value
    & opt (enum policies) MI.Policy.Eager
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "persist policy: $(b,eager) (default; every flush writes back at \
           once), $(b,coalesced) (flushes enter a per-thread persist buffer \
           that each persistence point drains with one write-back and one \
           fence; stores drain it first), $(b,px86) (buffered persistency: \
           only drain/fence — or, under the explorer, the crash adversary — \
           writes buffers back) or $(b,combine) (px86 plus flat combining: \
           engine-backed objects fold a batch and close one persist epoch \
           for all of it)")

(* The suffix a banner gives the backend name under each policy. *)
let policy_banner : MI.Policy.t -> string = function
  | Eager -> ""
  | Coalesced -> "+coalesce"
  | Px86 -> "+px86"
  | Combine -> "+fc"

(* ------------------------------ reports ------------------------------ *)

let render ~title ~x_label ~y_label ~csv series =
  Report.print_table ~title ~x_label ~y_label series;
  Report.print_chart series;
  if csv then print_string (Report.to_csv ~x_label series)

let write_run_report file report =
  match Run_report.write file report with
  | () ->
      Printf.printf "wrote %s (%s v%d)\n" file Run_report.schema_name
        Run_report.schema_version
  | exception Sys_error msg ->
      Printf.eprintf "dssq: cannot write report: %s\n" msg;
      exit 1

(* The command's own JSON document (fsck verdicts, profiles, explore
   reports), named by [what] in the confirmation line. *)
let write_json ~what file doc =
  match
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc (Json.to_string doc);
        Out_channel.output_char oc '\n')
  with
  | () -> Printf.printf "wrote %s (%s)\n" file what
  | exception Sys_error msg ->
      Printf.eprintf "dssq: cannot write %s: %s\n" what msg;
      exit 1

let write_report ?(backend = Experiments.Sim_model) ~experiment ~x_label
    ~y_label ~params ~provenance series file =
  write_run_report file
    (Run_report.make
       ~backend:(Experiments.backend_name backend)
       ~experiment ~x_label ~y_label ~params ~provenance series)

let ints l = String.concat "," (List.map string_of_int l)

(* Machine-readable run provenance (schema v5): the memory-model knobs
   that decide whether two archived reports are comparable at all.  The
   git revision is stamped by [Run_report.make] itself. *)
let provenance ?threads ~line_size ~policy () =
  (match threads with None -> [] | Some t -> [ ("threads", t) ])
  @ [ ("line_size", line_size); ("policy", MI.Policy.to_string policy) ]

(* A native measurement charges DESIGN.md §1's 150 ns per flush (and a
   fifth of that per fence): the spin loop is calibrated once per
   process, the first time a command measures on Native.  The returned
   provenance entry records the charge. *)
let native_persist_cost =
  lazy
    (Dssq_memory.Persist_cost.calibrate ();
     Dssq_memory.Persist_cost.configure ~flush:150 ())

let charge_native_persists () =
  Lazy.force native_persist_cost;
  [
    ( "native_flush_ns",
      string_of_int (Dssq_memory.Persist_cost.current_flush_ns ()) );
  ]

(* ------------------------------ figures ------------------------------ *)

(* One Figure 5 panel: the [queues] over every thread count, printed,
   and with --json archived instrumented. *)
let fig_cmd name ~doc ~title queues =
  let run backend threads repeats horizon_us duration line_size policy csv
      json =
    let charge =
      if backend = Experiments.Native_domains then charge_native_persists ()
      else []
    in
    let series =
      Experiments.sweep ~backend ~threads ~repeats
        ~horizon_ns:(horizon_us *. 1e3) ~duration ~line_size ~policy
        ~instrument:(Option.is_some json) queues
    in
    render ~title ~x_label:"threads" ~y_label:"Mops/s" ~csv series;
    Option.iter
      (write_report ~backend ~experiment:name ~x_label:"threads"
         ~y_label:"Mops/s"
         ~params:
           [
             ("threads", ints threads);
             ("repeats", string_of_int repeats);
             ("line_size", string_of_int line_size);
             ("policy", MI.Policy.to_string policy);
           ]
         ~provenance:
           (provenance ~threads:(ints threads)
              ~line_size:(string_of_int line_size) ~policy ()
           @ charge)
         series)
      json
  in
  ( run,
    Cmd.v (Cmd.info name ~doc)
      Term.(
        const run $ backend_arg
        $ threads_arg Experiments.default_threads
        $ repeats_arg $ horizon_us_arg $ duration_arg $ line_size_arg
        $ policy_arg $ csv_arg $ json_arg) )

let fig5a, fig5a_cmd =
  fig_cmd "fig5a" ~doc:"MS queue vs DSS non-detectable vs DSS detectable"
    ~title:
      "Figure 5a: levels of detectability and persistence (alternating \
       enqueue/dequeue pairs, queue seeded with 16 nodes)"
    Experiments.fig5a_queues

let fig5b, fig5b_cmd =
  fig_cmd "fig5b" ~doc:"DSS queue vs log queue vs Fast/General CASWithEffect"
    ~title:
      "Figure 5b: detectable queue implementations (all operations \
       detectable)"
    Experiments.fig5b_queues

(* ----------------------------- ablations ----------------------------- *)

(* An ablation prints one table over its swept x; --json archives it with
   the knobs it ran under.  A sweep that [reads_knobs] accepts their
   flags; the others run at their fixed defaults. *)
type ablation = {
  name : string;
  doc : string;
  title : string;
  x_label : string;
  y_label : string;
  reads_knobs : bool;
  experiment : knobs -> line_size:int -> Run_report.series list;
}

let run_ablation a k line_size csv json =
  let series = a.experiment k ~line_size in
  let title, knob_params =
    if a.reads_knobs then
      ( Printf.sprintf "%s (%d threads)" a.title k.nthreads,
        [
          ("threads", string_of_int k.nthreads);
          ("repeats", string_of_int k.repeats);
        ] )
    else (a.title, [])
  in
  render ~title ~x_label:a.x_label ~y_label:a.y_label ~csv series;
  Option.iter
    (write_report ~experiment:a.name ~x_label:a.x_label ~y_label:a.y_label
       ~params:(knob_params @ [ ("line_size", string_of_int line_size) ])
       ~provenance:
         (provenance ~line_size:(string_of_int line_size) ~policy:Eager ())
       series)
    json

let ablate_cmd a =
  let knobs = if a.reads_knobs then knobs_arg else Term.const default_knobs in
  Cmd.v (Cmd.info a.name ~doc:a.doc)
    Term.(const (run_ablation a) $ knobs $ line_size_arg $ csv_arg $ json_arg)

let horizon_ns k = k.horizon_us *. 1e3

let ablations =
  [
    {
      name = "ablate-flush";
      doc = "sweep the simulated CLWB+sfence latency";
      title = "Ablation: persist-instruction latency sweep";
      x_label = "flush_ns";
      y_label = "Mops/s";
      reads_knobs = true;
      experiment =
        (fun k ~line_size ->
          Experiments.ablate_flush ~nthreads:k.nthreads ~repeats:k.repeats
            ~horizon_ns:(horizon_ns k) ~line_size ());
    };
    {
      name = "ablate-demand";
      doc = "sweep the fraction of operations requesting detectability";
      title =
        "Ablation: detectability on demand — fraction of detectable pairs on \
         the DSS queue";
      x_label = "det_pct";
      y_label = "Mops/s";
      reads_knobs = true;
      experiment =
        (fun k ~line_size ->
          Experiments.ablate_demand ~nthreads:k.nthreads ~repeats:k.repeats
            ~horizon_ns:(horizon_ns k) ~line_size ());
    };
    {
      name = "ablate-recovery";
      doc = "centralized (Figure 6) vs per-thread recovery cost";
      title =
        "Ablation: recovery styles — memory events to recover vs queue length";
      x_label = "queue_len";
      y_label = "memory events";
      reads_knobs = false;
      experiment =
        (fun _ ~line_size -> Experiments.ablate_recovery ~line_size ());
    };
    {
      name = "ablate-depth";
      doc = "initial queue depth sweep";
      title = "Ablation: initial queue depth (8 threads)";
      x_label = "depth";
      y_label = "Mops/s";
      reads_knobs = false;
      experiment = (fun _ ~line_size -> Experiments.ablate_depth ~line_size ());
    };
    {
      name = "ablate-crashes";
      doc = "throughput under periodic crashes (MTBF sweep)";
      title =
        "Ablation: failure-full throughput — effective Mops/s vs crash MTBF \
         (8 threads, recovery charged)";
      x_label = "mtbf_us";
      y_label = "Mops/s";
      reads_knobs = false;
      experiment =
        (fun _ ~line_size -> Experiments.ablate_crash_mtbf ~line_size ());
    };
    {
      name = "ablate-pmwcas";
      doc = "PMwCAS cost vs number of words";
      title = "Ablation: PMwCAS width — modelled ns per operation";
      x_label = "width";
      y_label = "ns/op";
      reads_knobs = false;
      experiment = (fun _ ~line_size -> Experiments.ablate_pmwcas ~line_size ());
    };
  ]

(* ------------------------- ablate-linesize --------------------------- *)

(* The persist-line-size sweep is not an [ablate_cmd]: every point is
   instrumented, so flushes/op and elided/op per line size are printed
   and archived, and its size-1 point doubles as the regression anchor
   for the whole line refactor. *)
let default_sizes = [ 1; 2; 4; 8; 16 ]

let ablate_linesize sizes ({ nthreads; repeats; _ } as k) csv json anchor =
  let series =
    Experiments.ablate_linesize ~nthreads ~line_sizes:sizes ~repeats
      ~horizon_ns:(horizon_ns k) ()
  in
  render
    ~title:(Printf.sprintf "Ablation: persist-line size (%d threads)" nthreads)
    ~x_label:"line_size" ~y_label:"Mops/s" ~csv series;
  let per_op ops n = float_of_int n /. float_of_int (max 1 ops) in
  Printf.printf "%-12s%10s%14s%14s\n" "queue" "line_size" "flushes/op"
    "elided/op";
  List.iter
    (fun (s : Run_report.series) ->
      List.iter
        (fun (p : Run_report.point) ->
          Printf.printf "%-12s%10d%14.2f%14.2f\n" s.label p.x
            (per_op p.ops p.events.MI.flushes)
            (per_op p.ops p.events.MI.elided_flushes))
        s.points)
    series;
  Option.iter
    (write_report ~experiment:"ablate-linesize" ~x_label:"line_size"
       ~y_label:"Mops/s"
       ~params:
         [
           ("threads", string_of_int nthreads);
           ("repeats", string_of_int repeats);
           ("line_sizes", ints sizes);
         ]
       ~provenance:
         (provenance ~threads:(string_of_int nthreads) ~line_size:(ints sizes)
            ~policy:Eager ())
       series)
    json;
  (* CI anchor: at line size 1 the harness must be byte-identical to the
     pre-line-abstraction model, so dss-det's flushes/op is a constant of
     the workload.  It is compared at the printed precision: a drift in
     the third decimal means the legacy semantics changed. *)
  Option.iter
    (fun expected ->
      let fail fmt =
        Printf.ksprintf (fun m -> prerr_string m; exit 1) fmt
      in
      let point =
        Option.bind
          (List.find_opt (fun (s : Run_report.series) -> s.label = "dss-det") series)
          (fun s -> List.find_opt (fun (p : Run_report.point) -> p.x = 1) s.points)
      in
      match point with
      | None ->
          fail "dssq: anchor check: no dss-det point at line size 1 (add 1 to --sizes)\n"
      | Some p ->
          let got = per_op p.ops p.events.MI.flushes in
          if Float.abs (got -. expected) > 0.0005 then
            fail
              "dssq: anchor check FAILED: dss-det flushes/op at line size 1 = \
               %.3f, expected %.3f\n"
              got expected;
          Printf.printf
            "anchor check passed: dss-det flushes/op at line size 1 = %.3f \
             (expected %.3f)\n"
            got expected)
    anchor

let ablate_linesize_cmd =
  let sizes =
    Arg.(
      value
      & opt (list pos_int) default_sizes
      & info [ "sizes" ] ~docv:"WORDS" ~doc:"line sizes (words) to sweep")
  in
  let anchor =
    Arg.(
      value
      & opt (some float) None
      & info [ "check-anchor" ] ~docv:"FLUSHES_PER_OP"
          ~doc:
            "assert that the dss-det series' flushes/op at line size 1 \
             equals $(docv) at the printed precision (within 0.0005; the \
             legacy word-granular regression anchor); exit non-zero on \
             drift")
  in
  Cmd.v
    (Cmd.info "ablate-linesize"
       ~doc:"persist-line-size sweep (instrumented: flushes/op, elided/op)")
    Term.(
      const ablate_linesize $ sizes $ knobs_arg $ csv_arg $ json_arg $ anchor)

(* ------------------------------ latency ------------------------------ *)

let latency () =
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
    Term.(const latency $ const ())

(* ------------------------------ figures ------------------------------ *)

(* Everything the paper's evaluation and DESIGN.md's ablations plot, in
   one run: both figure panels over [threads], every ablation at 8
   threads (the throughput sweeps with this run's repeats and horizon),
   then the latency table. *)
let figures backend threads repeats horizon_us duration csv =
  fig5a backend threads repeats horizon_us duration 1 Eager csv None;
  fig5b backend threads repeats horizon_us duration 1 Eager csv None;
  let k = { default_knobs with repeats; horizon_us } in
  List.iter (fun a -> run_ablation a k 1 csv None) ablations;
  ablate_linesize default_sizes k csv None None;
  latency ()

let figures_cmd =
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "regenerate the paper's figures (5a, 5b), every DESIGN.md ablation \
          and the latency table")
    Term.(
      const figures $ backend_arg
      $ threads_arg Experiments.default_threads
      $ repeats_arg $ horizon_us_arg $ duration_arg $ csv_arg)

(* ----------------------------- bench-diff ----------------------------- *)

(* Compare two run reports — typically the checked-in BENCH_*.json
   baseline against a fresh `dssq regress` run — and exit non-zero when
   throughput regressed.  Points are matched on (series label, x); the
   statistic is the mean of the throughput samples at each point.  Points
   present in only one file are reported but not gated on, so adding or
   retiring a series does not break the pipeline. *)
let bench_diff_run old_file new_file tolerance sp_new sp_ref sp_at sp_min =
  let load file =
    match Run_report.read file with
    | r -> r
    | exception Sys_error msg ->
        Printf.eprintf "dssq: cannot read %s: %s\n" file msg;
        exit 2
    | exception Json.Parse_error msg ->
        Printf.eprintf "dssq: %s: %s\n" file msg;
        exit 2
  in
  let old_r = load old_file in
  let new_r = load new_file in
  let mean = function
    | [] -> Float.nan
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  let points (r : Run_report.t) =
    List.concat_map
      (fun (s : Run_report.series) ->
        List.map
          (fun (p : Run_report.point) ->
            ((s.Run_report.label, p.Run_report.x),
             mean p.Run_report.samples))
          s.Run_report.points)
      r.Run_report.series
  in
  let old_pts = points old_r in
  let new_pts = points new_r in
  Printf.printf "bench-diff: %s (%s) -> %s (%s), tolerance %.1f%%\n\n" old_file
    old_r.Run_report.git_rev new_file new_r.Run_report.git_rev
    tolerance;
  Printf.printf "%-26s%6s%12s%12s%10s\n" "series" "x" "old" "new" "delta";
  let compared = ref 0 in
  let regressions = ref 0 in
  List.iter
    (fun ((label, x), old_mean) ->
      match List.assoc_opt (label, x) new_pts with
      | None -> ()
      | Some new_mean ->
          incr compared;
          let delta =
            if old_mean > 0. then (new_mean -. old_mean) /. old_mean *. 100.
            else Float.nan
          in
          let regressed =
            new_mean < old_mean *. (1. -. (tolerance /. 100.))
          in
          if regressed then incr regressions;
          Printf.printf "%-26s%6d%12.3f%12.3f%+9.1f%%%s\n" label x old_mean
            new_mean delta
            (if regressed then "  REGRESSION" else ""))
    old_pts;
  let uncompared side pts other =
    let n =
      List.length (List.filter (fun (k, _) -> not (List.mem_assoc k other)) pts)
    in
    if n > 0 then Printf.printf "(%d point(s) only in the %s report)\n" n side
  in
  uncompared "old" old_pts new_pts;
  uncompared "new" new_pts old_pts;
  (* Recovery latency (schema v6): matched on (object, backend),
     lower-is-better, same tolerance.  Sim points are modelled and
     deterministic; points present in only one report — e.g. a pre-v6
     baseline with no recovery list — are not gated on.  A leak in the
     candidate's audit is always a failure, tolerance or not. *)
  let rec_pts (r : Run_report.t) =
    List.map
      (fun (p : Run_report.recovery_point) ->
        ((p.Run_report.r_object, p.r_backend), p))
      r.Run_report.recovery
  in
  let old_rec = rec_pts old_r in
  let new_rec = rec_pts new_r in
  if old_rec <> [] && new_rec <> [] then begin
    Printf.printf "\n%-26s%12s%12s%10s\n" "recovery (ms, lower=better)" "old"
      "new" "delta";
    List.iter
      (fun ((obj, backend), (po : Run_report.recovery_point)) ->
        match List.assoc_opt (obj, backend) new_rec with
        | None -> ()
        | Some pn ->
            incr compared;
            let delta =
              if po.r_ms > 0. then (pn.r_ms -. po.r_ms) /. po.r_ms *. 100.
              else Float.nan
            in
            let regressed =
              pn.r_ms > po.r_ms *. (1. +. (tolerance /. 100.))
            in
            if regressed then incr regressions;
            Printf.printf "%-26s%12.4f%12.4f%+9.1f%%%s\n"
              (obj ^ "/" ^ backend) po.r_ms pn.r_ms delta
              (if regressed then "  REGRESSION" else ""))
      old_rec
  end;
  List.iter
    (fun ((obj, backend), (p : Run_report.recovery_point)) ->
      if p.r_leaked > 0 then begin
        incr regressions;
        Printf.printf "%s/%s: %d node(s) LEAKED after recovery\n" obj backend
          p.r_leaked
      end)
    new_rec;
  (* --speedup-*: an intra-report ratio gate on the CANDIDATE file —
     mean throughput of series --speedup-new over series --speedup-ref
     at x = --speedup-at must reach --speedup-min.  This is how a PR
     whose point is an optimisation gets a positive assertion into the
     pipeline: the tolerance gate above only proves nothing got slower,
     the ratio gate proves the fast path actually is fast (e.g.
     `--speedup-new sim+fc/dss-det --speedup-ref sim/dss-det
     --speedup-at 8 --speedup-min 2.0` for the flat-combining epoch
     batching). *)
  (match (sp_new, sp_ref) with
  | Some new_label, Some ref_label ->
      let find label =
        match List.assoc_opt (label, sp_at) new_pts with
        | Some m -> m
        | None ->
            Printf.eprintf "dssq: bench-diff: no point (%s, x=%d) in %s\n"
              label sp_at new_file;
            exit 2
      in
      let n = find new_label and r = find ref_label in
      let ratio = if r > 0. then n /. r else Float.nan in
      let ok = ratio >= sp_min in
      incr compared;
      if not ok then incr regressions;
      Printf.printf
        "\nspeedup gate: %s / %s at x=%d: %.3f / %.3f = %.2fx (min %.2fx)  %s\n"
        new_label ref_label sp_at n r ratio sp_min
        (if ok then "ok" else "FAILED")
  | None, None -> ()
  | _ ->
      Printf.eprintf
        "dssq: bench-diff: --speedup-new and --speedup-ref must be given \
         together\n";
      exit 2);
  if !compared = 0 then begin
    Printf.eprintf
      "dssq: bench-diff: the reports share no (series, x) points\n";
    exit 2
  end;
  if !regressions > 0 then begin
    Printf.printf "\n%d of %d compared point(s) regressed beyond %.1f%%\n"
      !regressions !compared tolerance;
    exit 1
  end;
  Printf.printf "\nno regression beyond %.1f%% across %d compared point(s)\n"
    tolerance !compared

let bench_diff_cmd =
  let old_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD.json" ~doc:"baseline run report")
  in
  let new_file =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW.json" ~doc:"candidate run report")
  in
  let tolerance =
    Arg.(
      value & opt float 10.
      & info [ "tolerance" ] ~docv:"PCT"
          ~doc:
            "allowed per-point mean-throughput drop in percent before the \
             diff counts as a regression (default 10)")
  in
  let sp_new =
    Arg.(
      value
      & opt (some string) None
      & info [ "speedup-new" ] ~docv:"LABEL"
          ~doc:
            "series label (in NEW.json) whose throughput must beat \
             $(b,--speedup-ref) by $(b,--speedup-min); requires \
             $(b,--speedup-ref)")
  in
  let sp_ref =
    Arg.(
      value
      & opt (some string) None
      & info [ "speedup-ref" ] ~docv:"LABEL"
          ~doc:"reference series label (in NEW.json) for the speedup gate")
  in
  let sp_at =
    Arg.(
      value & opt int 8
      & info [ "speedup-at" ] ~docv:"X"
          ~doc:"x value (thread count) at which the speedup is measured \
                (default 8)")
  in
  let sp_min =
    Arg.(
      value & opt float 2.0
      & info [ "speedup-min" ] ~docv:"RATIO"
          ~doc:
            "minimum new/ref throughput ratio for the speedup gate; below \
             it the diff exits non-zero (default 2.0)")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "compare two JSON run reports point by point; exit non-zero on a \
          throughput regression beyond --tolerance or a failed \
          --speedup-min gate")
    Term.(
      const bench_diff_run $ old_file $ new_file $ tolerance $ sp_new $ sp_ref
      $ sp_at $ sp_min)

(* ------------------------- regression sweep -------------------------- *)

(* The sweep behind the checked-in BENCH_*.json baselines; compare a
   fresh report against one with `dssq bench-diff`. *)
let regress quick json =
  (* The quick sweep is sim-only; the full one measures native points. *)
  let charge = if quick then [] else charge_native_persists () in
  let series = Experiments.regress ~quick () in
  let recovery = Experiments.recovery_latency ~quick () in
  render
    ~title:
      "Benchmark regression sweep: flush coalescing off vs on (line size 1; \
       compare reports with `dssq bench-diff`)"
    ~x_label:"threads" ~y_label:"Mops/s" ~csv:false series;
  write_run_report
    (Option.value json ~default:"regress.json")
    (Run_report.make ~backend:"mixed" ~experiment:"regress" ~x_label:"threads"
       ~y_label:"Mops/s"
       ~params:[ ("quick", string_of_bool quick); ("line_size", "1") ]
       ~provenance:
         ([ ("line_size", "1"); ("policy", "eager+coalesced+combine") ]
         @ charge)
       ~recovery series);
  let mean = Dssq_workload.Stats.mean in
  let find label =
    List.find_opt (fun (s : Run_report.series) -> s.label = label) series
  in
  (* Make the coalescing claim visible in the terminal: coalescing-on vs
     -off mean throughput of the detectable DSS queue, per backend and
     thread count. *)
  List.iter
    (fun backend ->
      match (find (backend ^ "/dss-det"), find (backend ^ "+co/dss-det")) with
      | Some off, Some on ->
          List.iter2
            (fun (po : Run_report.point) (pn : Run_report.point) ->
              let fpo (p : Run_report.point) =
                if p.ops = 0 then 0.
                else float_of_int p.events.MI.flushes /. float_of_int p.ops
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
        (fun (pf : Run_report.point) ->
          match
            List.find_opt (fun (pe : Run_report.point) -> pe.x = pf.x)
              eager.points
          with
          | None -> ()
          | Some pe ->
              Printf.printf
                "fc dss-det %2d threads: %.3f vs eager %.3f Mops/s (%.2fx)\n"
                pf.x (mean pf.samples) (mean pe.samples)
                (mean pf.samples /. mean pe.samples))
        fc.points
  | _ -> ());
  List.iter
    (fun (r : Run_report.recovery_point) ->
      Printf.printf
        "recovery %s/%s: %.4f ms (%d wal records replayed, %d leaked)\n"
        r.r_object r.r_backend r.r_ms r.r_replayed r.r_leaked)
    recovery

let regress_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "CI smoke configuration: sim backend only, two thread counts, one \
             repeat (deterministic)")
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "benchmark-regression sweep (coalescing off vs on) emitting a \
          BENCH_*.json run report (regress.json without $(b,--json))")
    Term.(const regress $ quick $ json_arg)

(* ------------------------- flat combining ---------------------------- *)

(* Threads x batch size x Mops/s x flushes/op for the engine-backed
   flat-combining queue against the eager detectable queue, on the
   simulated multiprocessor (the shipped numbers; see EXPERIMENTS.md).
   One persist epoch per batch should make flushes/op strictly decreasing
   in the batch size and the 8-thread speedup >= 2x — `dssq bench-diff
   --speedup-*` gates the latter in CI from the regress report. *)
let combine threads batches =
  let per (s : Run_report.sample) c =
    float_of_int c /. float_of_int (max 1 s.ops)
  in
  Printf.printf
    "## Flat combining: one persist epoch per batch (sim; dss-fc engine \
     queue vs eager dss-queue, det 100%%)\n";
  Printf.printf "%8s%8s%12s%10s%10s%10s\n" "threads" "batch" "Mops/s" "fl/op"
    "fen/op" "speedup";
  List.iter
    (fun n ->
      let eager =
        Dssq_workload.Sim_throughput.measure ~seed:1 ~mk:"dss-queue"
          ~det_pct:100 ~nthreads:n ()
      in
      Printf.printf "%8d%8s%12.3f%10.3f%10.3f%10s\n" n "eager" eager.mops
        (per eager eager.events.MI.flushes)
        (per eager eager.events.MI.fences)
        "1.00x";
      List.iter
        (fun b ->
          let s =
            Dssq_workload.Sim_throughput.measure ~seed:1 ~mk:"dss-fc"
              ~det_pct:100 ~policy:Combine ~batch:b ~nthreads:n ()
          in
          Printf.printf "%8d%8d%12.3f%10.3f%10.3f%9.2fx\n" n b s.mops
            (per s s.events.MI.flushes)
            (per s s.events.MI.fences)
            (s.mops /. eager.mops))
        batches)
    threads

let combine_cmd =
  let batches =
    Arg.(
      value
      & opt (list pos_int) [ 1; 2; 4; 8; 16; 32 ]
      & info [ "batches" ] ~docv:"SIZES"
          ~doc:"batch sizes (operation pairs per persist epoch) to sweep")
  in
  Cmd.v
    (Cmd.info "combine"
       ~doc:
         "flat-combining sweep: threads x batch size x Mops/s x flushes/op \
          (sim backend)")
    Term.(const combine $ threads_arg [ 1; 4; 8 ] $ batches)

(* NUMA-ish padding-stride sweep on the native backend: how much
   isolation stride the contended cells (head/tail/announces) want on
   real hardware.  Flat on a single-core host by construction; meant for
   multicore machines. *)
let pad_sweep pads nthreads duration (policy : MI.Policy.t) batch =
  Printf.printf "## Padding-stride sweep (native domains, %d thread(s)%s)\n"
    nthreads
    (match policy with
    | Eager -> ""
    | Combine -> Printf.sprintf ", combine batch=%d" batch
    | p -> ", " ^ MI.Policy.to_string p);
  Printf.printf "%10s%12s\n" "pad_words" "Mops/s";
  List.iter
    (fun (pad, mops) -> Printf.printf "%10d%12.3f\n" pad mops)
    (Dssq_workload.Native_throughput.pad_sweep ~pads ~det_pct:100 ~policy
       ~batch
       ~mk:(if policy = Combine then "dss-fc" else "dss-queue")
       ~nthreads ~duration ())

let pad_sweep_cmd =
  let pads =
    Arg.(
      value
      & opt (list int) [ 0; 7; 15; 31 ]
      & info [ "pads" ] ~docv:"WORDS"
          ~doc:"padding strides (filler words per isolated cell) to sweep")
  in
  let batch =
    Arg.(
      value & opt pos_int 8
      & info [ "batch" ] ~docv:"PAIRS"
          ~doc:"operation pairs per persist epoch (with $(b,--policy combine))")
  in
  Cmd.v
    (Cmd.info "pad-sweep"
       ~doc:
         "NUMA-ish padding-stride sweep on the native backend \
          ($(b,--policy combine) measures the flat-combining engine queue)")
    Term.(
      const pad_sweep $ pads $ nthreads_arg $ duration_arg $ policy_arg
      $ batch)

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
let bechamel () =
  let open Bechamel in
  ignore (charge_native_persists () : (string * string) list);
  let module R = Dssq_workload.Registry.Make (Dssq_memory.Native) in
  let mk_test (name, mk) =
    let ops : Dssq_core.Queue_intf.ops =
      mk ?system:None
        (Dssq_core.Queue_intf.config ~nthreads:1 ~capacity:4096 ())
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
  let results =
    bechamel_ns (Test.make_grouped ~name:"queues" ~fmt:"%s %s" tests)
  in
  Printf.printf
    "## Bechamel wall-clock latency (native backend, %d ns/flush charged)\n"
    (Dssq_memory.Persist_cost.current_flush_ns ());
  List.iter
    (fun (name, est) -> Printf.printf "%-44s %10.0f ns/pair\n" name est)
    results;
  print_newline ()

let bechamel_cmd =
  Cmd.v
    (Cmd.info "bechamel" ~doc:"wall-clock op latency via bechamel")
    Term.(const bechamel $ const ())

(* What the model checker pays per explored execution before it runs a
   step, for each object of the litmus corpus: the restart and live
   worlds of {!Scenarios.setup_worlds}.  Words per set-up are
   [Gc.minor_words] over [setup_words_n] set-ups: deterministic, so the
   column compares builds on any host (test/golden/setup-words.expected
   pins it).  Blocks too large for the minor heap (over 256 words) are
   allocated in the major heap directly and not counted. *)
let setup_words_n = 1000

let setup () =
  let open Bechamel in
  let setups = Scenarios.setup_worlds () in
  let tests =
    List.map
      (fun (name, setup) ->
        Test.make ~name
          (Staged.stage (fun () -> ignore (Sys.opaque_identity (setup ())))))
      setups
  in
  let results =
    bechamel_ns (Test.make_grouped ~name:"setup" ~fmt:"%s %s" tests)
  in
  let words setup =
    let before = Gc.minor_words () in
    for _ = 1 to setup_words_n do
      ignore (Sys.opaque_identity (setup ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int setup_words_n
  in
  Printf.printf "## Scenario set-up (sim heap, line size 1, sc)\n";
  List.iter
    (fun (name, setup) ->
      (* Bechamel names a grouped test "<group> <test>". *)
      let name = "setup " ^ name in
      match List.assoc_opt name results with
      | Some est ->
          Printf.printf "%-40s %10.1f us/setup %10.0f words/setup\n" name
            (est /. 1e3) (words setup)
      | None -> ())
    setups;
  print_newline ()

let setup_cmd =
  Cmd.v
    (Cmd.info "setup"
       ~doc:"wall-clock cost of one model-checker scenario set-up per object")
    Term.(const setup $ const ())

(* -------------------------------- fsck -------------------------------- *)

(* Build a crashed heap in-process — a detectable queue rooted in a
   whole-system recovery handle, a deterministic workload, a simulated
   power loss — and run the strict verifier over it: WAL checksums,
   root-directory shape, full recovery, leak audit.  [--corrupt] plants
   damage in the log first: [bitflip] flips one payload bit of a
   committed interior record (the checksum must catch it), [torn]
   zeroes the checksum word of the final record so the tail looks
   half-written, [stray] writes a record kind into the lane's last
   slot, far past its last record (replay scans the whole lane, so an
   empty gap followed by a nonzero word is corruption).  Exit is
   non-zero whenever fsck reports an error — the CI negative tests
   assert exactly that. *)
let fsck_run corrupt json =
  let module World (M : MI.S) = struct
    module R = Dssq_workload.Registry.Make (M)

    let sys = R.Sys.create ~nthreads:1 ~wal_lane_capacity:128 ()

    let ops =
      R.setup ~system:sys ~mk:"dss-queue" ~init_nodes:4
        (Dssq_core.Queue_intf.config ~nthreads:1 ~capacity:64 ())
  end in
  let live = Heap.create ~line_size:8 () in
  let (module L) = Sim.memory live in
  let module L = World (L) in
  Heap.log_persists live;
  for i = 1 to 24 do
    L.ops.Dssq_core.Queue_intf.d_enqueue ~tid:0 i;
    if i mod 3 = 0 then ignore (L.ops.Dssq_core.Queue_intf.d_dequeue ~tid:0)
  done;
  (* Restart cold: a fresh set-up loaded with the crash's image. *)
  let heap = Heap.create ~line_size:8 () in
  let (module M) = Sim.memory heap in
  let module W = World (M) in
  let module R = W.R in
  let sys = W.sys in
  Sim.restart live ~into:heap ~evict_p:0.5 ~seed:11;
  let wal = R.Sys.wal sys in
  (match corrupt with
  | "none" -> ()
  | "bitflip" ->
      (* one bit of a committed record's payload word *)
      R.Sys.Wal.corrupt_word wal ~lane:0 ~slot:2 ~word:1
        ~f:(fun a -> a lxor (1 lsl 13))
  | "torn" ->
      (* the final record's checksum never made it: a torn tail (the
         append cursors are volatile; a replay restores them) *)
      ignore (R.Sys.Wal.replay wal : Dssq_pmem.Wal.record list * int);
      R.Sys.Wal.corrupt_word wal ~lane:0
        ~slot:(R.Sys.Wal.appended wal - 1)
        ~word:3
        ~f:(fun _ -> 0)
  | "stray" ->
      (* a nonzero word in an empty slot, with empty slots before it *)
      R.Sys.Wal.corrupt_word wal ~lane:0
        ~slot:(R.Sys.Wal.lane_capacity wal - 1)
        ~word:0
        ~f:(fun _ -> Dssq_pmem.Wal.Codec.kind_alloc)
  | other ->
      Printf.eprintf "dssq: fsck: unknown --corrupt %S\n" other;
      exit 2);
  let emit ~ok ~error (rep : Dssq_core.Recovery.fsck_report option) =
    Option.iter
      (fun file ->
        write_json ~what:"fsck verdict" file
          (Json.Obj
             ([ ("ok", Json.Bool ok) ]
             @ (match error with
               | None -> []
               | Some e -> [ ("error", Json.String e) ])
             @
             match rep with
             | None -> []
             | Some { Dssq_core.Recovery.recovery = r; in_flight } ->
                 [
                   ("replayed", Json.Int r.Dssq_core.Recovery.replayed);
                   ("torn_dropped", Json.Int r.torn_dropped);
                   ("in_flight", Json.Int in_flight);
                   ("roots_attached", Json.Int r.roots_attached);
                   ("leaked", Json.Int r.leaked_total);
                 ])))
      json
  in
  match R.Sys.fsck sys with
  | Ok rep ->
      Format.printf "fsck: clean@.%a@.alloc intents in flight: %d@."
        Dssq_core.Recovery.pp_report rep.recovery rep.in_flight;
      emit ~ok:true ~error:None (Some rep)
  | Error e ->
      Printf.printf "fsck: FAILED: %s\n" e;
      emit ~ok:false ~error:(Some e) None;
      exit 1

let fsck_cmd =
  let corrupt =
    Arg.(
      value
      & opt string "none"
      & info [ "corrupt" ] ~docv:"MODE"
          ~doc:
            "plant damage in the WAL before checking: $(b,none), \
             $(b,bitflip) (flip one payload bit of a committed record), \
             $(b,torn) (zero the final record's checksum), or $(b,stray) \
             (a nonzero word in the lane's last, empty slot)")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "verify a crashed-then-recovered heap end to end (WAL checksums, \
          root directory, recovery, leak audit); exit non-zero on any \
          corruption")
    Term.(const fsck_run $ corrupt $ json_arg)

(* ------------------------------ metrics ------------------------------ *)

let print_event_table ~ops counters =
  Printf.printf "%-16s%12s%12s\n" "event" "total" "per-op";
  let denom = float_of_int (max 1 ops) in
  List.iter
    (fun (k, v) ->
      Printf.printf "%-16s%12d%12.2f\n" k v (float_of_int v /. denom))
    (MI.Counters.to_assoc counters)

(* Accounting for a non-queue detectable object: the zoo's deterministic
   two-thread workload, plus the words-per-op line the zoo exists for. *)
let metrics_object_run name pairs line_size policy =
  let r = Dssq_workload.Zoo.run_one ~pairs ~line_size ~policy name in
  Printf.printf "object: %s   backend: sim%s   ops: %d (all detectable)\n\n"
    name (policy_banner policy) r.z_ops;
  print_event_table ~ops:r.z_ops r.z_events;
  Printf.printf "\npersistent_words_per_op: %.2f   flushes_per_op: %.2f\n"
    (Dssq_workload.Zoo.words_per_op r)
    (Dssq_workload.Zoo.flushes_per_op r);
  Printf.printf "\nobject stats:\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-18s%12d\n" k v)
    (Dssq_core.Detectable_intf.stats_to_assoc r.z_stats)

(* Run a finite deterministic workload on the counted simulator backend
   and print the memory-event accounting for one queue implementation —
   the quickest way to see e.g. flushes per operation. *)
let metrics_queue_run queue pairs det_pct line_size policy =
  let heap = Heap.create ~line_size ~policy () in
  let (module M) = Sim.counted_memory heap in
  let module R = Dssq_workload.Registry.Make (M) in
  match R.find_opt queue with
  | None ->
      Printf.eprintf "dssq: unknown queue %S; known queues: %s\n" queue
        (String.concat ", " R.known_names);
      exit 1
  | Some mk ->
      let nthreads = 2 in
      let ops =
        mk
          (Dssq_core.Queue_intf.config ~line_size ~policy ~nthreads
             ~capacity:(16 + 8 + (nthreads * (pairs + 8)))
             ())
      in
      for i = 1 to 16 do
        ops.enqueue ~tid:(i mod nthreads) i
      done;
      (* Seeding may leave buffered flushes under combine; close them
         before the measured window so they don't skew the accounting. *)
      if policy = Combine then M.drain ();
      M.reset_counters ();
      let completed = ref 0 in
      let worker tid () =
        for i = 1 to pairs do
          let v = (tid * 1_000_000) + i in
          if Dssq_workload.Sim_throughput.detectable ~det_pct i then begin
            ops.d_enqueue ~tid v;
            incr completed;
            ignore (ops.d_dequeue ~tid);
            incr completed
          end
          else begin
            ops.enqueue ~tid v;
            incr completed;
            ignore (ops.dequeue ~tid);
            incr completed
          end
        done
      in
      ignore (Sim.run heap ~threads:[ worker 0; worker 1 ]);
      let c = M.counters () in
      Printf.printf
        "queue: %s   backend: sim%s   ops: %d   detectable: %d%%\n\n" queue
        (policy_banner policy) !completed det_pct;
      print_event_table ~ops:!completed c;
      (match ops.stats () with
      | [] -> ()
      | st ->
          Printf.printf "\nqueue stats:\n";
          List.iter (fun (k, v) -> Printf.printf "  %-18s%12d\n" k v) st);
      match Dssq_obs.Metrics.snapshot () with
      | [] -> ()
      | ms ->
          Printf.printf "\nprocess metrics:\n";
          List.iter (fun (k, v) -> Printf.printf "  %-24s%12d\n" k v) ms

(* [--object] dispatches across queue-registry names and the zoo; an
   unknown name is an error listing every known name — it must never
   fall back to the queue silently. *)
let metrics_run queue object_name pairs det_pct line_size policy =
  let queue_names =
    let heap = Heap.create ~line_size:1 () in
    let (module M) = Sim.counted_memory heap in
    let module R = Dssq_workload.Registry.Make (M) in
    R.known_names
  in
  match object_name with
  | None ->
      metrics_queue_run queue pairs det_pct line_size policy
  | Some name when List.mem name queue_names ->
      metrics_queue_run name pairs det_pct line_size policy
  | Some name when List.mem name Dssq_workload.Zoo.objects ->
      metrics_object_run name pairs line_size policy
  | Some name ->
      let known =
        queue_names
        @ List.filter
            (fun o -> not (List.mem o queue_names))
            Dssq_workload.Zoo.objects
      in
      Printf.eprintf "dssq: unknown object %S; known objects: %s\n" name
        (String.concat ", " known);
      exit 1

let metrics_cmd =
  let object_name =
    object_arg
      Arg.(some string)
      None
      ~doc:
        "detectable object to account (any queue-registry or zoo name); \
         overrides $(b,--queue)"
  in
  let det =
    Arg.(
      value
      & opt (int_in ~lo:0 ~hi:100 "a percentage from 0 to 100") 100
      & info [ "det" ] ~doc:"percent of detectable operations (queues only)")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"memory-event accounting for one detectable object on the simulator")
    Term.(
      const metrics_run
      $ queue_arg Arg.string "dss-queue"
      $ object_name $ pairs_arg $ det $ line_size_arg $ policy_arg)

(* -------------------------------- zoo --------------------------------- *)

let zoo_run pairs line_size json =
  let rows = Dssq_workload.Zoo.run_all ~pairs ~line_size () in
  Printf.printf
    "detectable-object zoo: %d ops/object (2 threads), sim backend, \
     line size %d\n\n"
    (2 * 2 * pairs) line_size;
  Printf.printf "%-14s%8s%10s%12s%12s%14s%16s\n" "object" "ops" "pwrites"
    "words/op" "flushes/op" "state_words" "announce_words";
  List.iter
    (fun (r : Dssq_workload.Zoo.row) ->
      Printf.printf "%-14s%8d%10d%12.2f%12.2f%14d%16d\n" r.z_object r.z_ops
        r.z_events.MI.pwrites
        (Dssq_workload.Zoo.words_per_op r)
        (Dssq_workload.Zoo.flushes_per_op r)
        r.z_stats.Dssq_core.Detectable_intf.state_words
        r.z_stats.Dssq_core.Detectable_intf.announce_words)
    rows;
  Printf.printf
    "\nlower bound (Ben-Baruch et al., PAPERS.md): one persistent announce \
     word\nper process, and >= 2 persisted words per detectable mutation \
     (announce +\nstate); see EXPERIMENTS.md for the comparison table.\n";
  Printf.printf
    "\nflat-combining amortization (dss-fc engine queue, 8 threads): words/op \
     is\nfloor-bound — folding does not skip announce turnover — while \
     flushes/op\namortizes toward O(1/batch), one persist epoch per batch:\n\n";
  Printf.printf "%8s%8s%12s%12s%12s\n" "batch" "ops" "words/op" "flushes/op"
    "fences/op";
  List.iter
    (fun (f : Dssq_workload.Zoo.fc_row) ->
      Printf.printf "%8d%8d%12.2f%12.3f%12.3f\n" f.f_batch f.f_ops f.f_words
        f.f_flushes f.f_fences)
    (Dssq_workload.Zoo.combine_rows ());
  Option.iter
    (fun file ->
      write_run_report file (Dssq_workload.Zoo.to_report ~pairs ~line_size rows))
    json

let zoo_cmd =
  Cmd.v
    (Cmd.info "zoo"
       ~doc:
         "persistent_words_per_op accounting across every detectable object \
          (the space-complexity table; --json for the archivable report)")
    Term.(const zoo_run $ pairs_arg $ line_size_arg $ json_arg)

(* ------------------------------ profile ------------------------------ *)

module Zoo = Dssq_workload.Zoo
module Attrib = Dssq_obs.Attrib
module Prom = Dssq_obs.Prom

(* Attribution-grade profiling of the detectable-object zoo: one table
   charges every persist event to a (protocol phase, persist line) cell,
   and the per-phase table (events plus span latency, scoped by announce
   / exec / resolve / recovery phase) and the per-line persistence
   heatmap (labeled by allocation site) are its projections.  The check
   printed under each table — every projection summing exactly to the
   backend counter deltas — is the invariant the whole attribution rests
   on; the test suite asserts the same function across every object. *)
let profile_run object_ backend pairs line_size policy crash with_heatmap top
    json prom =
  let fail fmt =
    Printf.ksprintf (fun m -> Printf.eprintf "dssq: %s\n" m; exit 2) fmt
  in
  let names =
    match object_ with
    | "all" -> Zoo.objects
    | o when List.mem o Zoo.objects -> [ o ]
    | o when List.mem ("dss-" ^ o) Zoo.objects -> [ "dss-" ^ o ]
    | o ->
        fail "unknown object %S (all, %s)" o (String.concat ", " Zoo.objects)
  in
  let backend_name = Experiments.backend_name backend in
  if crash && backend = Experiments.Native_domains then
    fail "--crash is simulator-only (the native backend cannot lose its cache)";
  let profiles =
    List.map
      (fun name ->
        let p =
          match backend with
          | Experiments.Sim_model ->
              Zoo.profile_one ~pairs ~line_size ~policy ~crash name
          | Experiments.Native_domains ->
              Zoo.profile_one_native ~pairs ~line_size ~policy name
        in
        (name, p))
      names
  in
  List.iter
    (fun (name, (p : Zoo.profile)) ->
      let r = p.Zoo.p_row in
      let c = r.Zoo.z_events in
      Printf.printf "== %s  backend: %s%s  ops: %d  line size: %d%s ==\n" name
        backend_name (policy_banner policy) r.Zoo.z_ops line_size
        (if crash then "  (with crash + recovery)" else "");
      let t = p.Zoo.p_attrib in
      Format.printf "%a@?" Attrib.pp_phases t.Attrib.phases;
      let checks = Attrib.sums t c in
      Printf.printf "attribution check (sums / backend totals): %s\n"
        (String.concat "  "
           (List.map (fun (k, a, b) -> Printf.sprintf "%s %d/%d" k a b) checks));
      (* A sum mismatch means some persist event escaped its cell, so
         fail loudly — CI treats a non-zero exit as a lost-attribution
         regression. *)
      List.iter
        (fun (k, a, b) ->
          if a <> b then
            fail "%s: attribution lost events (%s sum %d, backend total %d)"
              name k a b)
        checks;
      if with_heatmap then begin
        Printf.printf "\npersistence heatmap (top %d of %d lines):\n" top
          (List.length t.Attrib.lines);
        Format.printf "%a@?" Attrib.pp_lines (Attrib.top ~n:top t.Attrib.lines)
      end;
      print_newline ())
    profiles;
  Option.iter
    (fun file ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "dssq-profile-report");
            ("version", Json.Int 1);
            ("git_rev", Json.String (Run_report.git_rev ()));
            ("backend", Json.String backend_name);
            ( "params",
              Json.Obj
                [
                  ("pairs", Json.Int pairs);
                  ("crash", Json.Bool crash);
                  ("policy", Json.String (MI.Policy.to_string policy));
                ] );
            ( "provenance",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.String v))
                   (* The zoo's workload is fixed at two threads. *)
                   (provenance ~threads:"2"
                      ~line_size:(string_of_int line_size) ~policy ())) );
            ( "objects",
              Json.List
                (List.map
                   (fun (name, (p : Zoo.profile)) ->
                     Json.Obj
                       ([
                          ("object", Json.String name);
                          ("ops", Json.Int p.Zoo.p_row.Zoo.z_ops);
                          ( "counters",
                            Json.Obj
                              (List.map
                                 (fun (k, v) -> (k, Json.Int v))
                                 (MI.Counters.to_assoc
                                    p.Zoo.p_row.Zoo.z_events)) );
                        ]
                       @ Attrib.to_json p.Zoo.p_attrib))
                   profiles) );
          ]
      in
      write_json ~what:"dssq-profile-report v1" file doc)
    json;
  Option.iter
    (fun file ->
      (* One flat exposition file; the [workload] label keeps objects
         apart so names stay unique per label set. *)
      let samples =
        List.concat_map
          (fun (name, (p : Zoo.profile)) ->
            List.map
              (fun (s : Prom.sample) ->
                { s with Prom.s_labels = ("workload", name) :: s.Prom.s_labels })
              (Attrib.samples p.Zoo.p_attrib))
          profiles
      in
      match Prom.write file samples with
      | () ->
          Printf.printf "wrote %s (Prometheus text format, %d samples)\n" file
            (List.length samples)
      | exception Sys_error msg ->
          Printf.eprintf "dssq: cannot write Prometheus file: %s\n" msg;
          exit 1)
    prom

let profile_cmd =
  let object_ =
    object_arg Arg.string "all"
      ~doc:"zoo object to profile (the dss- prefix may be omitted), or all"
  in
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "inject a seeded crash after the workload and run recovery plus \
             per-thread resolve, so the recovery phases appear in the \
             attribution (simulator only)")
  in
  let with_heatmap =
    Arg.(
      value & flag
      & info [ "heatmap" ]
          ~doc:"also print the per-line persistence heatmap (see --top)")
  in
  let top =
    Arg.(
      value & opt pos_int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"heatmap rows to print, ranked by effective flushes")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "write the heatmap and phase tables as Prometheus text-format \
             samples to $(docv)")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "attribution-grade profiling: per-line persistence heatmap and \
          phase-attributed persist-event/latency tables for the detectable \
          zoo (--json / --prom for the archivable artifacts)")
    Term.(
      const profile_run $ object_ $ backend_arg $ pairs_arg $ line_size_arg
      $ policy_arg $ crash $ with_heatmap
      $ top $ json_arg $ prom)

(* ---------------------------- crash demo ----------------------------- *)

let crash_demo step evict_p show_trace =
  let module World (M : MI.S) = struct
    module Q = Dssq_core.Dss_queue.Make (M)

    let q = Q.create ~nthreads:2 ~capacity:64 ()
    let () = List.iter (fun v -> Q.enqueue q ~tid:1 v) [ 1; 2; 3 ]
  end in
  let live = Heap.create () in
  let (module L) = Sim.memory live in
  let module L = World (L) in
  Heap.log_persists live;
  Printf.printf "queue initialized with [1; 2; 3]\n";
  Printf.printf
    "thread 0 runs: prep-enqueue(42); exec-enqueue; prep-dequeue; exec-dequeue\n";
  let thread () =
    L.Q.prep_enqueue L.q ~tid:0 42;
    L.Q.exec_enqueue L.q ~tid:0;
    L.Q.prep_dequeue L.q ~tid:0;
    ignore (L.Q.exec_dequeue L.q ~tid:0)
  in
  let run () = Sim.run live ~crash:(Sim.Crash_at_step step) ~threads:[ thread ] in
  let outcome, entries = if show_trace then Trace.capture run else (run (), []) in
  Format.printf "%a" Trace.pp_timeline entries;
  if not outcome.Sim.crashed then
    Printf.printf
      "no crash before the program finished (it takes fewer than %d steps);\n\
       final queue: [%s]\n"
      step
      (String.concat "; " (List.map string_of_int (L.Q.to_list L.q)))
  else begin
    Printf.printf "CRASH injected before memory event #%d (evict_p = %.2f)\n"
      step evict_p;
    (* Restart cold: a fresh set-up loaded with the crash's image. *)
    let heap = Heap.create () in
    let (module M) = Sim.memory heap in
    let module W = World (M) in
    let module Q = W.Q in
    let q = W.q in
    Sim.restart live ~into:heap ~evict_p ~seed:step;
    Q.recover q;
    Printf.printf "recovery complete; queue now: [%s]\n"
      (String.concat "; " (List.map string_of_int (Q.to_list q)));
    let r = Q.resolve q ~tid:0 in
    Printf.printf "resolve for thread 0: %s\n"
      (Format.asprintf "%a" Dssq_core.Queue_intf.pp_resolved r);
    match r with
    | Dssq_core.Queue_intf.Enq_pending v ->
        Printf.printf "-> retrying the enqueue of %d exactly once\n" v;
        Q.exec_enqueue q ~tid:0;
        Printf.printf "queue after retry: [%s]\n"
          (String.concat "; " (List.map string_of_int (Q.to_list q)))
    | Dssq_core.Queue_intf.Deq_pending ->
        Printf.printf "-> retrying the dequeue exactly once\n";
        Printf.printf "dequeued: %d\n" (Q.exec_dequeue q ~tid:0)
    | _ -> Printf.printf "-> nothing to redo\n"
  end

let crash_demo_cmd =
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"print the run's event timeline")
  in
  Cmd.v
    (Cmd.info "crash-demo" ~doc:"crash a detectable program and resolve it")
    Term.(const crash_demo $ step_arg 25 $ evict_arg $ trace)

(* ------------------------------- trace ------------------------------- *)

(* Run a crash-injecting workload on the simulator under the event tracer
   and export the merged event trace as Chrome trace-event JSON: every
   memory event with its cell and post-event dirtiness, the crash with
   per-cell evict verdicts, the recovery phase, and each thread's resolve
   outcome.  The file loads directly into https://ui.perfetto.dev or
   chrome://tracing. *)
let trace_run out step evict_p seed capacity timeline =
  let module World (M : MI.S) = struct
    module Q = Dssq_core.Dss_queue.Make (M)

    let q = Q.create ~nthreads:2 ~capacity:64 ()
    let () = List.iter (fun v -> Q.enqueue q ~tid:0 v) [ 1; 2; 3 ]
  end in
  let live = Heap.create () in
  let (module L) = Sim.memory live in
  let module L = World (L) in
  Heap.log_persists live;
  let tracer = Trace.start ~capacity () in
  (* Persist barrier between setup and the traced run (and the trace's
     guaranteed fence event). *)
  Heap.fence live;
  let enqueuer () =
    L.Q.prep_enqueue L.q ~tid:0 42;
    L.Q.exec_enqueue L.q ~tid:0
  in
  let dequeuer () =
    L.Q.prep_dequeue L.q ~tid:1;
    ignore (L.Q.exec_dequeue L.q ~tid:1)
  in
  let outcome =
    Sim.run live ~policy:(Sim.Random_seed seed)
      ~crash:(Sim.Crash_at_step step)
      ~threads:[ enqueuer; dequeuer ]
  in
  if not outcome.Sim.crashed then
    Printf.printf
      "note: the program finished before step %d; crashing at quiescence\n"
      step;
  (* Restart cold: a fresh set-up, untraced, loaded with the crash's
     image. *)
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let recover, resolve =
    Trace.muted (fun () ->
        let module W = World (M) in
        ((fun () -> W.Q.recover W.q), fun ~tid -> W.Q.resolve W.q ~tid))
  in
  Sim.restart live ~into:heap ~evict_p ~seed;
  recover ();
  let r0 = resolve ~tid:0 in
  let r1 = resolve ~tid:1 in
  Trace.stop ();
  let entries = Trace.entries tracer in
  (match Trace.write_chrome out entries with
  | () -> ()
  | exception Sys_error msg ->
      Printf.eprintf "dssq: cannot write trace: %s\n" msg;
      exit 1);
  (* Validate what we just wrote: it must parse back as JSON and hold a
     non-empty traceEvents array (this is also the CI smoke check). *)
  let parsed = Json.of_string (In_channel.with_open_text out In_channel.input_all) in
  let exported = List.length (Json.to_list (Json.path [ "traceEvents" ] parsed)) in
  let count p = List.length (List.filter (fun (e : Trace.entry) -> p e.Trace.event) entries) in
  let ops =
    count (function Trace.Op_begin _ | Trace.Op_end _ -> true | _ -> false)
  in
  let mem_of k =
    count (function Trace.Mem { op; _ } -> op = k | _ -> false)
  in
  let kinds =
    [
      ("op", ops);
      ("read", mem_of `Read);
      ("write", mem_of `Write);
      ("cas", mem_of `Cas);
      ("flush", mem_of `Flush);
      ("fence", mem_of `Fence);
      ("crash", count (function Trace.Crash _ -> true | _ -> false));
      ( "recovery",
        count (function
          | Trace.Recovery_begin | Trace.Recovery_end -> true
          | _ -> false) );
      ("resolve", count (function Trace.Resolve _ -> true | _ -> false));
    ]
  in
  Printf.printf "wrote %s: %d trace events (%d recorded, %d dropped)\nkinds: %s\n"
    out exported (Trace.recorded tracer) (Trace.dropped tracer)
    (String.concat " " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) kinds));
  if Trace.dropped tracer > 0 then
    Printf.eprintf
      "dssq: warning: ring buffers overflowed and evicted %d event(s) (%s); \
       the exported window is truncated — rerun with a larger --capacity\n"
      (Trace.dropped tracer)
      (String.concat ", "
         (List.map
            (fun (tid, n) ->
              Printf.sprintf "%s: %d"
                (if tid < 0 then "system" else Printf.sprintf "t%d" tid)
                n)
            (Trace.dropped_by_thread tracer)));
  (* The smoke-check contract: an exported trace must exercise every
     event kind, or the run (and CI) fails. *)
  let missing = List.filter (fun (_, n) -> n = 0) kinds in
  if exported = 0 || missing <> [] then begin
    Printf.eprintf "dssq: trace is incomplete (missing: %s)\n"
      (if exported = 0 then "everything"
       else String.concat ", " (List.map fst missing));
    exit 1
  end;
  Printf.printf "resolve: t0 -> %s, t1 -> %s\n"
    (Format.asprintf "%a" Dssq_core.Queue_intf.pp_resolved r0)
    (Format.asprintf "%a" Dssq_core.Queue_intf.pp_resolved r1);
  Printf.printf "open the file in https://ui.perfetto.dev (or chrome://tracing)\n";
  if timeline then Format.printf "@.%a" Trace.pp_timeline entries

let trace_cmd =
  let out =
    Arg.(
      value & opt string "dssq-trace.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"output file (chrome trace-event JSON)")
  in
  let capacity =
    Arg.(
      value & opt pos_int 4096
      & info [ "capacity" ] ~doc:"per-thread ring-buffer capacity")
  in
  let timeline =
    Arg.(
      value & flag
      & info [ "timeline" ] ~doc:"also print the merged human-readable timeline")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "trace a crash/recovery workload and export a Perfetto-loadable \
          timeline")
    Term.(
      const trace_run $ out $ step_arg 30 $ evict_arg $ seed_arg 42 $ capacity
      $ timeline)

(* ----------------------------- lincheck ------------------------------ *)

(* Randomized strict-linearizability testing: random schedules, random
   crash points, recovery, recorded resolves, checked against D<queue>
   ({!Trial.run}).  Every execution runs under an event tracer, so a
   violation is reported with the exact interleaving of stores, flushes,
   crash and resolves that produced it — as a timeline, and optionally
   as Perfetto JSON. *)
let lincheck_run kind (policy : MI.Policy.t) iterations verbose trace_json =
  if policy = Combine && kind <> `Dss then begin
    Printf.eprintf "dssq: --policy combine only applies to the dss queue\n";
    exit 2
  end;
  let spec = Dss_spec.make ~nthreads:2 (Specs.Queue.spec ()) in
  let crashes = ref 0 in
  for i = 1 to iterations do
    ignore (Trace.start () : Trace.t);
    let program =
      {
        Trial.spec;
        base = [];
        threads = [ Specs.Queue.Enqueue i; Specs.Queue.Dequeue ];
        observe = Drain (Specs.Queue.Dequeue, Specs.Queue.Empty);
      }
    in
    let inputs =
      {
        Trial.seed = i;
        crash_step = 5 + (i mod 45);
        evict_p = float_of_int (i mod 3) /. 2.;
        restart_seed = i;
      }
    in
    let r =
      try Trial.run (Trial.queue ~policy kind) program inputs with
      | Trial.Thread_raised e ->
          Printf.printf "iteration %d: THREAD RAISED: %s\n" i
            (Printexc.to_string e);
          exit 1
      | Dssq_pmwcas.Pmwcas.Unresolved_word a ->
          (* The PMwCAS baselines are not hardened for buffered
             persistency: an install can persist without its
             descriptor. *)
          Printf.printf
            "iteration %d: RECOVERY FAILED: PMwCAS word %d points at a \
             descriptor with no slot for it\n"
            i a;
          exit 1
    in
    if r.crashed then incr crashes;
    (match r.verdict with
    | Lincheck.Linearizable w ->
        if verbose then
          Printf.printf "iteration %d: linearizable (%d ops)\n" i (List.length w)
    | Lincheck.Not_linearizable trace ->
        Printf.printf "iteration %d: VIOLATION\n" i;
        Format.printf "%a"
          (Dssq_history.History.pp ~pp_op:spec.Spec.pp_op
             ~pp_response:spec.Spec.pp_response)
          r.history;
        if trace <> [] then
          Format.printf "recorded event timeline:@.%a" Trace.pp_timeline trace;
        Option.iter
          (fun file ->
            Trace.write_chrome file trace;
            Printf.printf "wrote %s (chrome trace-event JSON, %d events)\n" file
              (List.length trace))
          trace_json;
        exit 1);
    Trace.stop ()
  done;
  Printf.printf
    "checked %d random executions (%d with crashes): all strictly linearizable \
     w.r.t. D<queue>\n"
    iterations !crashes

let lincheck_cmd =
  let kind = queue_arg Arg.(enum Trial.queues) `Dss in
  let iterations =
    Arg.(
      value & opt pos_int 500 & info [ "n" ] ~doc:"number of random executions")
  in
  let verbose = Arg.(value & flag & info [ "v" ] ~doc:"verbose") in
  let trace_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-json" ] ~docv:"FILE"
          ~doc:
            "on a violation, also dump the failing execution's event trace \
             as Chrome trace-event JSON to $(docv) (Perfetto-loadable)")
  in
  Cmd.v
    (Cmd.info "lincheck"
       ~doc:
         "randomized strict-linearizability checking of a detectable queue")
    Term.(
      const lincheck_run $ kind $ policy_arg
      $ iterations $ verbose $ trace_json)

(* ------------------------------ explore ------------------------------ *)

module Explore = Dssq_sim.Explore
module Mutants = Dssq_checker.Mutants
module Oracle = Dssq_checker.Oracle
module Explore_report = Dssq_checker.Explore_report

(* Re-exported so the explore driver below can build and match the
   record with unqualified fields; the report schema lives in
   {!Dssq_checker.Explore_report}. *)
type explore_result = Explore_report.case_result = {
  xcase : Scenarios.case;
  verdict : (Explore.stats, Explore.schedule * exn) result;
  naive : (Explore.stats, Explore.schedule * exn) result option;
}

let run_case = Explore_report.run_case

let explore_run object_ crash_mode line_sizes policy mutant mode_name
    max_preemptions max_crash_lines crash_samples seed adversary limit
    compare_naive json token_file replay case_name list_only =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "dssq: %s\n" m; exit 2) fmt in
  if case_name <> None && replay = None then
    fail "--case requires --replay TOKEN (see --list)";
  let mode =
    match Oracle.mode_of_name mode_name with
    | Some m -> m
    | None -> fail "unknown mode %S (strict, recoverable, durable)" mode_name
  in
  let mutation =
    match mutant with
    | None -> None
    | Some n -> (
        match Mutants.by_name n with
        | Some m -> Some m
        | None ->
            fail "unknown mutant %S; known: %s" n
              (String.concat ", "
                 (List.map fst Mutants.all
                 @ [ "drop-drain" ]
                 @ List.map fst Mutants.relaxed)))
  in
  let objects =
    match object_ with
    | "all" -> Scenarios.objects
    | o when List.mem o Scenarios.objects -> [ o ]
    | o ->
        fail "unknown object %S (all, %s)" o (String.concat ", " Scenarios.objects)
  in
  let crash_modes =
    match crash_mode with
    | `Both -> [ false; true ]
    | `On -> [ true ]
    | `Off -> [ false ]
  in
  let cases =
    Scenarios.cases ~objects ~crash_modes ~line_sizes
      ~params:
        {
          Scenarios.default_params with
          policy;
          mutation;
          mode;
          max_preemptions;
          max_crash_lines;
          crash_samples;
          seed;
          adversary;
          limit;
        }
      ()
  in
  if list_only then begin
    List.iter (fun (c : Scenarios.case) -> print_endline c.Scenarios.name) cases;
    exit 0
  end;
  (* A world whose set-up raises, or a search past [--limit], ends the
     run, naming the case. *)
  let or_failed (c : Scenarios.case) f =
    try f () with
    | Scenarios.Setup_failed _ as e ->
        Printf.eprintf "dssq: %s\n" (Printexc.to_string e);
        exit 1
    | Explore.Too_many_executions _ ->
        Printf.eprintf "dssq: %s: more than %d executions (--limit)\n"
          c.Scenarios.name limit;
        exit 1
  in
  match replay with
  | Some token ->
      let name =
        match case_name with
        | Some n -> n
        | None -> fail "--replay requires --case NAME (see --list)"
      in
      let c =
        match Scenarios.find_case ~cases name with
        | Some c -> c
        | None -> fail "unknown case %S (see --list)" name
      in
      let sched =
        match Explore.schedule_of_string token with
        | s -> s
        | exception Invalid_argument m -> fail "bad replay token: %s" m
      in
      let outcome, trace =
        or_failed c (fun () -> c.Scenarios.explain sched)
      in
      Printf.printf "replaying %s under token %s\n" c.Scenarios.name token;
      if trace <> [] then
        Format.printf "event timeline:@.%a" Trace.pp_timeline trace;
      (match outcome with
      | Explore.Passed `Completed ->
          print_endline "execution completed; check passed"
      | Explore.Passed `Crashed ->
          print_endline "execution crashed and recovered; check passed"
      | Explore.Failed exn ->
          Printf.printf "check FAILED:\n%s\n" (Printexc.to_string exn);
          exit 1)
  | None ->
      let results =
        List.map
          (fun (c : Scenarios.case) ->
            let verdict =
              or_failed c (fun () -> run_case c ~reduction:true)
            in
            let naive =
              if compare_naive then
                Some (or_failed c (fun () -> run_case c ~reduction:false))
              else None
            in
            let show = function
              | Ok (s : Explore.stats) ->
                  let hit_denom = s.pruned + s.branches in
                  let hit =
                    if hit_denom = 0 then 0.
                    else 100. *. float_of_int s.pruned /. float_of_int hit_denom
                  in
                  Printf.sprintf
                    "%7d execs %6d pruned (%4.1f%% hit) %7d crash %s %6d \
                     skipped %7d replays %6.2fs"
                    s.executions s.pruned hit s.crash_branches
                    (if s.crash_sampled > 0 then
                       Printf.sprintf "[%d/%d pts sampled]" s.crash_sampled
                         s.crash_points
                     else Printf.sprintf "[%d pts enum]" s.crash_points)
                    s.skipped_branches s.replays s.wall_s
              | Error (sched, _) ->
                  Printf.sprintf "FAIL %s" (Explore.schedule_to_string sched)
            in
            Printf.printf "%-34s %s%s\n%!" c.Scenarios.name (show verdict)
              (match naive with
              | None -> ""
              | Some n -> Printf.sprintf "   [naive: %s]" (show n));
            { xcase = c; verdict; naive })
          cases
      in
      let failures =
        List.filter_map
          (fun r ->
            match r.verdict with
            | Error (sched, exn) -> Some (r.xcase, sched, exn)
            | Ok _ -> None)
          results
      in
      let mismatches =
        List.filter
          (fun r ->
            match (r.verdict, r.naive) with
            | _, None -> false
            | Ok rs, Some (Ok ns) -> rs.Explore.executions > ns.Explore.executions
            | Ok _, Some (Error _) | Error _, Some (Ok _) -> true
            | Error _, Some (Error _) -> false)
          results
      in
      let params =
        [
          ("object", Json.String object_);
          ( "crashes",
            Json.String
              (match crash_mode with
              | `Both -> "both"
              | `On -> "on"
              | `Off -> "off") );
          ( "line_sizes",
            Json.List (List.map (fun n -> Json.Int n) line_sizes) );
          ("policy", Json.String (MI.Policy.to_string policy));
          ( "mutant",
            match mutant with None -> Json.Null | Some m -> Json.String m );
          ("mode", Json.String mode_name);
          ("max_preemptions", Json.Int max_preemptions);
          ("max_crash_lines", Json.Int max_crash_lines);
          ("crash_samples", Json.Int crash_samples);
          ("seed", Json.Int seed);
          ( "adversary",
            Json.String
              (match adversary with
              | `Per_line -> "per-line"
              | `All_or_nothing -> "all-or-nothing") );
          ("compare_naive", Json.Bool compare_naive);
        ]
      in
      Option.iter
        (fun file ->
          write_json
            ~what:
              (Printf.sprintf "%s v%d" Explore_report.schema
                 Explore_report.version)
            file
            (Explore_report.encode ~params results))
        json;
      (match failures with
      | [] -> ()
      | fs ->
          let oc = open_out token_file in
          List.iter
            (fun ((c : Scenarios.case), sched, _) ->
              Printf.fprintf oc "%s %s\n" c.Scenarios.name
                (Explore.schedule_to_string sched))
            fs;
          close_out oc;
          Printf.printf "\n%d failing case(s); replay tokens written to %s\n"
            (List.length fs) token_file;
          (* Replay the first failure under a tracer so the report carries
             the merged event timeline alongside the token. *)
          let c, sched, exn = List.hd fs in
          Printf.printf
            "first failure: %s\n  token: %s\n  %s\n  replay with: dssq explore \
             --case %s --replay %s\n"
            c.Scenarios.name
            (Explore.schedule_to_string sched)
            (Printexc.to_string exn) c.Scenarios.name
            (Explore.schedule_to_string sched);
          let _, trace = c.Scenarios.explain sched in
          if trace <> [] then
            Format.printf "event timeline:@.%a" Trace.pp_timeline trace);
      List.iter
        (fun r ->
          match (r.verdict, r.naive) with
          | Ok rs, Some (Ok ns) when rs.Explore.executions > ns.Explore.executions
            ->
              Printf.printf
                "MISMATCH %s: reduced search ran more executions (%d) than \
                 naive (%d)\n"
                r.xcase.Scenarios.name rs.Explore.executions
                ns.Explore.executions
          | Ok _, Some (Error (sched, _)) ->
              Printf.printf
                "MISMATCH %s: naive search found a violation (%s) the reduced \
                 search missed\n"
                r.xcase.Scenarios.name
                (Explore.schedule_to_string sched)
          | Error (sched, _), Some (Ok _) ->
              Printf.printf
                "note %s: only the reduced search reports a violation (%s); \
                 the naive run is cut short at the first failure, so this is \
                 expected only under differing orders\n"
                r.xcase.Scenarios.name
                (Explore.schedule_to_string sched)
          | _ -> ())
        results;
      if failures <> [] || mismatches <> [] then exit 1;
      let t = Explore_report.totals results in
      Printf.printf
        "explored %d case(s): all executions %s-linearizable w.r.t. their \
         specifications\n\
         coverage: %d executions, %d branches, %d pruned, %d crash points \
         (%d enumerated, %d sampled), %d replays, %.2fs\n\
         skipped: %d crash branches whose image the parent point \
         produced, %d crash points with every branch skipped\n"
        (List.length results) mode_name t.executions t.branches t.pruned
        t.crash_points t.crash_enumerated t.crash_sampled t.replays t.wall_s
        t.skipped_branches t.skipped_points;
      if MI.Policy.relaxed policy then
        Printf.printf
          "%s coverage: %d drain points, %d crash executions with adversary \
           drains\n"
          (MI.Policy.to_string policy)
          t.drain_points t.drain_branches

let explore_cmd =
  let object_ =
    object_arg Arg.string "all"
      ~doc:"object to check: all, queue, stack, register or hashmap"
  in
  let crashes =
    Arg.(
      value
      & opt (enum [ ("both", `Both); ("on", `On); ("off", `Off) ]) `Both
      & info [ "crashes" ]
          ~doc:"crash-injection mode: both (default), on, or off")
  in
  let line_sizes =
    Arg.(
      value
      & opt (list pos_int) [ 1; 8 ]
      & info [ "line-sizes" ] ~docv:"WORDS"
          ~doc:"persist-line sizes to cover (default 1,8)")
  in
  let mutant =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"NAME"
          ~doc:
            "inject a seeded bug (skip-flush-link, skip-flush-mark, \
             stale-announce, unfenced, drop-drain, skip-drain, short-drain, \
             reorder-persist, lost-batch); restricts the corpus to the queue \
             (drop-drain is only observable with --policy coalesced; \
             skip-drain, short-drain and reorder-persist only with --policy \
             px86; lost-batch only with --policy combine, where it targets \
             the engine-backed objects)")
  in
  let mode =
    Arg.(
      value & opt string "strict"
      & info [ "mode" ] ~doc:"linearizability mode: strict, recoverable, durable")
  in
  let max_preemptions =
    Arg.(
      value & opt nonneg_int 1
      & info [ "max-preemptions" ]
          ~doc:"CHESS preemption bound (iterative deepening)")
  in
  let max_crash_lines =
    Arg.(
      value & opt (int_in ~lo:1 ~hi:30 "an integer from 1 to 30") 4
      & info [ "max-crash-lines" ]
          ~doc:
            "cap on exhaustive eviction-subset enumeration per crash point; \
             above it, seeded sampling")
  in
  let crash_samples =
    Arg.(
      value & opt nonneg_int 6
      & info [ "crash-samples" ]
          ~doc:"sampled eviction subsets past the enumeration cap")
  in
  let adversary =
    Arg.(
      value
      & opt
          (enum
             [ ("per-line", `Per_line); ("all-or-nothing", `All_or_nothing) ])
          `Per_line
      & info [ "adversary" ]
          ~doc:"crash adversary: per-line (default) or the legacy all-or-nothing")
  in
  let limit =
    Arg.(
      value & opt pos_int 2_000_000
      & info [ "limit" ] ~doc:"abort past this many executions")
  in
  let compare_naive =
    Arg.(
      value & flag
      & info [ "compare-naive" ]
          ~doc:
            "also run the unreduced search per case and check the reduced \
             search explored no more executions and missed no violation")
  in
  let token_file =
    Arg.(
      value
      & opt string "explore-counterexample.txt"
      & info [ "token-file" ] ~docv:"FILE"
          ~doc:"where to write replay tokens of failing cases")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"TOKEN"
          ~doc:
            "replay one recorded schedule token (from a violation report) \
             against --case and print its outcome and event timeline")
  in
  let case =
    Arg.(
      value
      & opt (some string) None
      & info [ "case" ] ~docv:"NAME"
          ~doc:"corpus case to replay; requires --replay (see --list)")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"list corpus case names and exit")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "bounded-exhaustive crash-consistency model checking of the DSS \
          objects (sleep-set reduction, per-line crash adversary, lincheck \
          oracle, replayable counterexamples)")
    Term.(
      const explore_run $ object_ $ crashes $ line_sizes $ policy_arg
      $ mutant $ mode $ max_preemptions
      $ max_crash_lines $ crash_samples $ seed_arg 0 $ adversary $ limit
      $ compare_naive $ json_arg $ token_file $ replay $ case $ list_only)

(* ------------------------------- info -------------------------------- *)

let info_cmd =
  let run () =
    print_string
      "dssq: OCaml reproduction of Li & Golab, 'Detectable Sequential\n\
       Specifications for Recoverable Shared Objects' (DISC 2021; brief\n\
       announcement at PODC 2021).\n\n\
       Libraries:\n\
      \  dssq.spec      the DSS transformation D<T> (Section 2, Figure 1)\n\
      \  dssq.core      the DSS queue + recovery (Section 3, Figures 3-4, 6);\n\
      \                 D<register>, D<CAS> cells, nesting, D<stack>, D<hashmap>\n\
      \  dssq.baselines MS queue, durable queue, log queue, CASWithEffect queues\n\
      \  dssq.pmwcas    persistent multi-word CAS (Wang et al.)\n\
      \  dssq.pmem/sim  persistent-memory + crash simulator (volatile cache model)\n\
      \  dssq.lincheck  strict/recoverable linearizability checker\n\
      \  dssq.universal recoverable universal construction of D<T>\n\
      \  dssq.ebr       epoch-based reclamation\n\
      \  dssq.obs       histograms, metrics, JSON run reports (--json)\n\n\
       Experiments: figures (all of the below), fig5a, fig5b,\n\
       ablate-flush, ablate-demand, ablate-recovery, ablate-depth,\n\
       ablate-crashes, ablate-pmwcas, ablate-linesize, latency, regress,\n\
       combine, pad-sweep, bechamel, setup, metrics, zoo\n\
       (persistent_words_per_op across the detectable-object zoo),\n\
       profile (persistence heatmap + phase-attributed profiler),\n\
       lincheck, crash-demo, trace, explore, fsck.  See DESIGN.md and\n\
       EXPERIMENTS.md.\n"
  in
  Cmd.v (Cmd.info "info" ~doc:"what this repository implements") Term.(const run $ const ())

let () =
  let default =
    Term.(
      ret
        (const (fun () -> `Help (`Pager, None)) $ const ()))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "dssq" ~doc:"DSS queue reproduction toolkit")
          ([
             figures_cmd;
             fig5a_cmd;
             fig5b_cmd;
             ablate_linesize_cmd;
             latency_cmd;
             regress_cmd;
             bench_diff_cmd;
             combine_cmd;
             pad_sweep_cmd;
             bechamel_cmd;
             setup_cmd;
             fsck_cmd;
             metrics_cmd;
             zoo_cmd;
             profile_cmd;
             crash_demo_cmd;
             trace_cmd;
             lincheck_cmd;
             explore_cmd;
             info_cmd;
           ]
          @ List.map ablate_cmd ablations)))
