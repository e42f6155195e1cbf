(* dssq — command-line front end for the DSS queue reproduction.

     dssq fig5a / fig5b / ablate-*   experiment drivers (same as bench)
     dssq crash-demo                 interactive crash/recovery walkthrough
     dssq lincheck                   randomized strict-linearizability testing
     dssq latency                    modelled per-op latency table
     dssq info                       inventory of what this repo implements *)

module Experiments = Dssq_workload.Experiments
module Report = Dssq_workload.Report
module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Spec = Dssq_spec.Spec
module Dss_spec = Dssq_spec.Dss_spec
module Specs = Dssq_spec.Specs
module Recorder = Dssq_history.Recorder
module Lincheck = Dssq_lincheck.Lincheck
module Trace = Dssq_obs.Trace
module Json = Dssq_obs.Json
open Cmdliner

let render ~title ~x_label ~y_label series =
  Report.print_table ~title ~x_label ~y_label series;
  Report.print_chart series

(* ------------------------------ figures ------------------------------ *)

let threads_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4; 8; 12; 16; 20 ]
    & info [ "threads" ] ~doc:"thread counts")

let repeats_arg = Arg.(value & opt int 3 & info [ "repeats" ] ~doc:"samples")

(* A line size of 0 (or less) would only surface later as an
   [Invalid_argument] from [Line.Alloc.create]; reject it at parse time. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let line_size_arg =
  Arg.(
    value & opt pos_int 1
    & info [ "line-size" ] ~docv:"WORDS"
        ~doc:
          "persist-line size in words (1, the default, is the legacy \
           word-granular model)")

let coalesce_arg =
  Arg.(
    value & flag
    & info [ "coalesce" ]
        ~doc:
          "route flushes through the per-thread persist buffer: duplicate \
           flushes of a pending line coalesce, and each persistence point \
           drains the buffer with one write-back and one fence")

let combine_arg =
  Arg.(
    value & flag
    & info [ "combine" ]
        ~doc:
          "flat-combining mode: engine-backed objects announce, one \
           combiner applies the whole batch and closes a single persist \
           epoch (flush + drain) for all of it")

let persistency_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("sc", Dssq_pmem.Heap.Persistency.Sc);
             ("px86", Dssq_pmem.Heap.Persistency.Px86);
           ])
        Dssq_pmem.Heap.Persistency.Sc
    & info [ "persistency" ] ~docv:"MODEL"
        ~doc:
          "persistency model: $(b,sc) (default; flushes write back \
           eagerly, persist order = store order) or $(b,px86) (flushes \
           enqueue into per-thread persist buffers; only drain/fence — \
           or, under the explorer, the crash adversary — writes them \
           back)")

(* The three memory-model flags as one validated triple.  A combination
   that names no behaviour of its own is refused with the flag it is
   equivalent to ([Policy.of_axes] is where the rest resolve). *)
let memory_model_arg =
  let check coalesce combine persistency =
    let px86 = persistency = Heap.Persistency.Px86 in
    if combine && px86 then
      Error "--combine --persistency px86 is the same policy as --combine"
    else if coalesce && combine then
      Error "--coalesce --combine is the same policy as --combine"
    else if coalesce && px86 then
      Error "--coalesce --persistency px86 is the same policy as --persistency px86"
    else Ok (coalesce, combine, persistency)
  in
  Term.(
    term_result' (const check $ coalesce_arg $ combine_arg $ persistency_arg))

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"write a schema-versioned JSON run report to $(docv)")

let write_report ~experiment ~x_label ~y_label ?(params = []) ?(provenance = [])
    series file =
  let report =
    Dssq_obs.Run_report.make ~backend:"sim" ~experiment ~x_label ~y_label
      ~params ~provenance series
  in
  match Dssq_obs.Run_report.write file report with
  | () ->
      Printf.printf "wrote %s (%s v%d)\n" file Dssq_obs.Run_report.schema_name
        Dssq_obs.Run_report.schema_version
  | exception Sys_error msg ->
      Printf.eprintf "dssq: cannot write report: %s\n" msg;
      exit 1

let fig_params ~threads ~repeats ~line_size ~coalesce =
  [
    ("threads", String.concat "," (List.map string_of_int threads));
    ("repeats", string_of_int repeats);
    ("line_size", string_of_int line_size);
    ("coalesce", string_of_bool coalesce);
  ]

(* Machine-readable run provenance (schema v5): the memory-model knobs
   that decide whether two archived reports are comparable at all.  The
   git revision is stamped by [Run_report.make] itself. *)
let provenance ?threads ~line_size ~coalesce () =
  (match threads with
  | None -> []
  | Some t -> [ ("threads", String.concat "," (List.map string_of_int t)) ])
  @ [
      ("line_size", string_of_int line_size);
      ("coalesce", string_of_bool coalesce);
    ]

let fig5a_cmd =
  let run threads repeats line_size coalesce json =
    match json with
    | None ->
        render ~title:"Figure 5a" ~x_label:"threads" ~y_label:"Mops/s"
          (Experiments.fig5a ~threads ~repeats ~line_size ~coalesce ())
    | Some file ->
        (* Instrumented run: same figure, plus events + latency in JSON. *)
        let series =
          Experiments.fig5a_ex ~threads ~repeats ~line_size ~coalesce
            ~instrument:true ()
        in
        render ~title:"Figure 5a" ~x_label:"threads" ~y_label:"Mops/s"
          (Report.of_run series);
        write_report ~experiment:"fig5a" ~x_label:"threads" ~y_label:"Mops/s"
          ~params:(fig_params ~threads ~repeats ~line_size ~coalesce)
          ~provenance:(provenance ~threads ~line_size ~coalesce ())
          series file
  in
  Cmd.v (Cmd.info "fig5a" ~doc:"regenerate Figure 5a")
    Term.(
      const run $ threads_arg $ repeats_arg $ line_size_arg $ coalesce_arg
      $ json_arg)

let fig5b_cmd =
  let run threads repeats line_size coalesce json =
    match json with
    | None ->
        render ~title:"Figure 5b" ~x_label:"threads" ~y_label:"Mops/s"
          (Experiments.fig5b ~threads ~repeats ~line_size ~coalesce ())
    | Some file ->
        let series =
          Experiments.fig5b_ex ~threads ~repeats ~line_size ~coalesce
            ~instrument:true ()
        in
        render ~title:"Figure 5b" ~x_label:"threads" ~y_label:"Mops/s"
          (Report.of_run series);
        write_report ~experiment:"fig5b" ~x_label:"threads" ~y_label:"Mops/s"
          ~params:(fig_params ~threads ~repeats ~line_size ~coalesce)
          ~provenance:(provenance ~threads ~line_size ~coalesce ())
          series file
  in
  Cmd.v (Cmd.info "fig5b" ~doc:"regenerate Figure 5b")
    Term.(
      const run $ threads_arg $ repeats_arg $ line_size_arg $ coalesce_arg
      $ json_arg)

let ablate_cmd ~name ~doc ~title ~x_label ~y_label f =
  let run line_size json =
    let series = f ~line_size () in
    render ~title ~x_label ~y_label series;
    Option.iter
      (fun file ->
        write_report ~experiment:name ~x_label ~y_label
          ~params:[ ("line_size", string_of_int line_size) ]
          ~provenance:(provenance ~line_size ~coalesce:false ())
          (Report.to_run series) file)
      json
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ line_size_arg $ json_arg)

let ablate_cmds =
  [
    ablate_cmd ~name:"ablate-flush" ~doc:"persist-latency sweep"
      ~title:"Persist-cost ablation" ~x_label:"flush_ns" ~y_label:"Mops/s"
      (fun ~line_size () -> Experiments.ablate_flush ~line_size ());
    ablate_cmd ~name:"ablate-demand" ~doc:"detectability-fraction sweep"
      ~title:"Detectability on demand" ~x_label:"det_pct" ~y_label:"Mops/s"
      (fun ~line_size () -> Experiments.ablate_demand ~line_size ());
    ablate_cmd ~name:"ablate-recovery" ~doc:"recovery-style comparison"
      ~title:"Recovery styles" ~x_label:"queue_len" ~y_label:"memory events"
      (fun ~line_size () -> Experiments.ablate_recovery ~line_size ());
    ablate_cmd ~name:"ablate-pmwcas" ~doc:"PMwCAS width sweep"
      ~title:"PMwCAS width" ~x_label:"width" ~y_label:"ns/op"
      (fun ~line_size () -> Experiments.ablate_pmwcas ~line_size ());
    ablate_cmd ~name:"ablate-crashes" ~doc:"throughput under periodic crashes"
      ~title:"Failure-full throughput" ~x_label:"mtbf_us" ~y_label:"Mops/s"
      (fun ~line_size () -> Experiments.ablate_crash_mtbf ~line_size ());
  ]

(* ------------------------- ablate-linesize --------------------------- *)

(* The persist-line-size sweep has its own command (rather than joining
   [ablate_cmds]) because its payload is richer — every point is
   instrumented, so flushes/op and elided/op per line size are printed
   and archived — and because its size-1 point doubles as the CI
   regression anchor for the whole line refactor. *)
let linesize_run sizes nthreads repeats json anchor =
  let series =
    Experiments.ablate_linesize ~nthreads ~line_sizes:sizes ~repeats ()
  in
  render ~title:"Persist-line size" ~x_label:"line_size" ~y_label:"Mops/s"
    (Report.of_run series);
  let per_op ops n = float_of_int n /. float_of_int (max 1 ops) in
  Printf.printf "%-12s%10s%14s%14s\n" "queue" "line_size" "flushes/op"
    "elided/op";
  List.iter
    (fun (s : Dssq_obs.Run_report.series) ->
      List.iter
        (fun (p : Dssq_obs.Run_report.point) ->
          Printf.printf "%-12s%10d%14.2f%14.2f\n" s.label p.x
            (per_op p.ops p.events.Dssq_memory.Memory_intf.flushes)
            (per_op p.ops p.events.Dssq_memory.Memory_intf.elided_flushes))
        s.points)
    series;
  Option.iter
    (fun file ->
      write_report ~experiment:"ablate-linesize" ~x_label:"line_size"
        ~y_label:"Mops/s"
        ~params:
          [
            ("threads", string_of_int nthreads);
            ("repeats", string_of_int repeats);
            ("line_sizes", String.concat "," (List.map string_of_int sizes));
          ]
        ~provenance:
          [
            ("threads", string_of_int nthreads);
            ("line_size", String.concat "," (List.map string_of_int sizes));
            ("coalesce", "false");
          ]
        series file)
    json;
  (* CI anchor: at line size 1 the harness must be byte-identical to the
     pre-line-abstraction model, so dss-det's flushes/op is a constant of
     the workload.  A drift here means the refactor changed the legacy
     semantics. *)
  Option.iter
    (fun expected ->
      match
        List.find_opt
          (fun (s : Dssq_obs.Run_report.series) -> s.label = "dss-det")
          series
      with
      | None ->
          Printf.eprintf "dssq: anchor check: no dss-det series\n";
          exit 1
      | Some s -> (
          match
            List.find_opt (fun (p : Dssq_obs.Run_report.point) -> p.x = 1)
              s.points
          with
          | None ->
              Printf.eprintf
                "dssq: anchor check: no line-size-1 point (add 1 to --sizes)\n";
              exit 1
          | Some p ->
              let got =
                per_op p.ops p.events.Dssq_memory.Memory_intf.flushes
              in
              if Float.abs (got -. expected) > 0.01 then begin
                Printf.eprintf
                  "dssq: anchor check FAILED: dss-det flushes/op at line size \
                   1 = %.3f, expected %.3f\n"
                  got expected;
                exit 1
              end;
              Printf.printf
                "anchor check passed: dss-det flushes/op at line size 1 = \
                 %.3f (expected %.3f)\n"
                got expected))
    anchor

let ablate_linesize_cmd =
  let sizes =
    Arg.(
      value
      & opt (list pos_int) [ 1; 2; 4; 8; 16 ]
      & info [ "sizes" ] ~doc:"line sizes (words) to sweep")
  in
  let nthreads =
    Arg.(value & opt int 8 & info [ "threads" ] ~doc:"thread count")
  in
  let anchor =
    Arg.(
      value
      & opt (some float) None
      & info [ "check-anchor" ] ~docv:"FLUSHES_PER_OP"
          ~doc:
            "assert that the dss-det series' flushes/op at line size 1 \
             equals $(docv) to within 0.01 (the legacy word-granular \
             regression anchor); exit non-zero on drift")
  in
  Cmd.v
    (Cmd.info "ablate-linesize"
       ~doc:"persist-line-size sweep (instrumented: flushes/op, elided/op)")
    Term.(const linesize_run $ sizes $ nthreads $ repeats_arg $ json_arg $ anchor)

(* ----------------------------- bench-diff ----------------------------- *)

(* Compare two run reports — typically the checked-in BENCH_*.json
   baseline against a fresh `bench regress` run — and exit non-zero when
   throughput regressed.  Points are matched on (series label, x); the
   statistic is the mean of the throughput samples at each point.  Points
   present in only one file are reported but not gated on, so adding or
   retiring a series does not break the pipeline. *)
let bench_diff_run old_file new_file tolerance sp_new sp_ref sp_at sp_min =
  let load file =
    match Dssq_obs.Run_report.read file with
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
  let points (r : Dssq_obs.Run_report.t) =
    List.concat_map
      (fun (s : Dssq_obs.Run_report.series) ->
        List.map
          (fun (p : Dssq_obs.Run_report.point) ->
            ((s.Dssq_obs.Run_report.label, p.Dssq_obs.Run_report.x),
             mean p.Dssq_obs.Run_report.samples))
          s.Dssq_obs.Run_report.points)
      r.Dssq_obs.Run_report.series
  in
  let old_pts = points old_r in
  let new_pts = points new_r in
  Printf.printf "bench-diff: %s (%s) -> %s (%s), tolerance %.1f%%\n\n" old_file
    old_r.Dssq_obs.Run_report.git_rev new_file new_r.Dssq_obs.Run_report.git_rev
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
  let rec_pts (r : Dssq_obs.Run_report.t) =
    List.map
      (fun (p : Dssq_obs.Run_report.recovery_point) ->
        ((p.Dssq_obs.Run_report.r_object, p.r_backend), p))
      r.Dssq_obs.Run_report.recovery
  in
  let old_rec = rec_pts old_r in
  let new_rec = rec_pts new_r in
  if old_rec <> [] && new_rec <> [] then begin
    Printf.printf "\n%-26s%12s%12s%10s\n" "recovery (ms, lower=better)" "old"
      "new" "delta";
    List.iter
      (fun ((obj, backend), (po : Dssq_obs.Run_report.recovery_point)) ->
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
    (fun ((obj, backend), (p : Dssq_obs.Run_report.recovery_point)) ->
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

(* -------------------------------- fsck -------------------------------- *)

(* Build a crashed heap in-process — a detectable queue rooted in a
   whole-system recovery handle, a deterministic workload, a simulated
   power loss — and run the strict verifier over it: WAL checksums,
   root-directory shape, full recovery, leak audit.  [--corrupt] plants
   damage in the log first: [bitflip] flips one payload bit of a
   committed interior record (the checksum must catch it), [torn]
   zeroes the checksum word of the final record so the tail looks
   half-written.  Exit is non-zero whenever fsck reports an error —
   the CI negative test asserts exactly that. *)
let fsck_run corrupt json =
  let heap = Heap.create ~line_size:8 () in
  let (module M) = Sim.memory heap in
  let module R = Dssq_workload.Registry.Make (M) in
  let sys = R.Sys.create ~nthreads:1 ~wal_lane_capacity:128 () in
  let ops =
    R.setup ~system:sys ~mk:"dss-queue" ~init_nodes:4
      (Dssq_core.Queue_intf.config ~nthreads:1 ~capacity:64 ())
  in
  for i = 1 to 24 do
    ops.Dssq_core.Queue_intf.d_enqueue ~tid:0 i;
    if i mod 3 = 0 then ignore (ops.Dssq_core.Queue_intf.d_dequeue ~tid:0)
  done;
  Sim.apply_crash heap ~evict_p:0.5 ~seed:11;
  let wal = R.Sys.wal sys in
  (match corrupt with
  | "none" -> ()
  | "bitflip" ->
      (* one bit of a committed record's payload word *)
      R.Sys.Wal.corrupt_word wal ~lane:0 ~slot:2 ~word:1
        ~f:(fun a -> a lxor (1 lsl 13))
  | "torn" ->
      (* the final record's checksum never made it: a torn tail *)
      R.Sys.Wal.corrupt_word wal ~lane:0
        ~slot:(R.Sys.Wal.appended wal - 1)
        ~word:3
        ~f:(fun _ -> 0)
  | other ->
      Printf.eprintf "dssq: fsck: unknown --corrupt %S\n" other;
      exit 2);
  let emit ~ok ~error (rep : Dssq_core.Recovery.report option) =
    match json with
    | "" -> ()
    | file ->
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc
              (Json.to_string
                 (Json.Obj
                    ([ ("ok", Json.Bool ok) ]
                    @ (match error with
                      | None -> []
                      | Some e -> [ ("error", Json.String e) ])
                    @
                    match rep with
                    | None -> []
                    | Some r ->
                        [
                          ( "replayed",
                            Json.Int r.Dssq_core.Recovery.replayed );
                          ("torn_dropped", Json.Int r.torn_dropped);
                          ("in_flight", Json.Int r.in_flight);
                          ("roots_attached", Json.Int r.roots_attached);
                          ("leaked", Json.Int r.leaked_total);
                        ]))))
  in
  match R.Sys.fsck sys with
  | Ok rep ->
      Format.printf "fsck: clean@.%a@." Dssq_core.Recovery.pp_report rep;
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
             or $(b,torn) (zero the final record's checksum)")
  in
  let json =
    Arg.(
      value & opt string ""
      & info [ "json" ] ~docv:"FILE"
          ~doc:"also write the verdict (and report numbers) as JSON")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "verify a crashed-then-recovered heap end to end (WAL checksums, \
          root directory, recovery, leak audit); exit non-zero on any \
          corruption")
    Term.(const fsck_run $ corrupt $ json)

(* ------------------------------ metrics ------------------------------ *)

let print_event_table ~ops counters =
  Printf.printf "%-16s%12s%12s\n" "event" "total" "per-op";
  let denom = float_of_int (max 1 ops) in
  List.iter
    (fun (k, v) ->
      Printf.printf "%-16s%12d%12.2f\n" k v (float_of_int v /. denom))
    (Dssq_memory.Memory_intf.Counters.to_assoc counters)

(* Accounting for a non-queue detectable object: the zoo's deterministic
   two-thread workload, plus the words-per-op line the zoo exists for. *)
let metrics_object_run name pairs line_size combine persistency =
  let r =
    Dssq_workload.Zoo.run_one ~pairs ~line_size ~combine ~persistency name
  in
  Printf.printf "object: %s   backend: sim%s%s   ops: %d (all detectable)\n\n"
    name
    (if persistency = Heap.Persistency.Px86 then "+px86" else "")
    (if combine then "+fc" else "")
    r.z_ops;
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
let metrics_queue_run queue pairs det_pct line_size
    (coalesce, combine, persistency) =
  let heap = Heap.create ~line_size ~coalesce ~combine ~persistency () in
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
          (Dssq_core.Queue_intf.config ~line_size ~coalesce ~combine ~nthreads
             ~capacity:(16 + 8 + (nthreads * (pairs + 8)))
             ())
      in
      for i = 1 to 16 do
        ops.enqueue ~tid:(i mod nthreads) i
      done;
      (* Seeding may leave buffered flushes under combine; close them
         before the measured window so they don't skew the accounting. *)
      if combine then M.drain ();
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
        "queue: %s   backend: sim%s%s%s   ops: %d   detectable: %d%%\n\n" queue
        (if coalesce then "+coalesce" else "")
        (if persistency = Heap.Persistency.Px86 then "+px86" else "")
        (if combine then "+fc" else "")
        !completed det_pct;
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
let metrics_run queue object_name pairs det_pct line_size
    ((_, combine, persistency) as model) =
  let queue_names =
    let heap = Heap.create ~line_size:1 () in
    let (module M) = Sim.counted_memory heap in
    let module R = Dssq_workload.Registry.Make (M) in
    R.known_names
  in
  match object_name with
  | None ->
      metrics_queue_run queue pairs det_pct line_size model
  | Some name when List.mem name queue_names ->
      metrics_queue_run name pairs det_pct line_size model
  | Some name when List.mem name Dssq_workload.Zoo.objects ->
      metrics_object_run name pairs line_size combine persistency
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
  let queue =
    Arg.(
      value & opt string "dss-queue"
      & info [ "queue" ] ~doc:"queue implementation to account (see dssq info)")
  in
  let object_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "object" ] ~docv:"NAME"
          ~doc:
            "detectable object to account (any queue-registry or zoo name); \
             overrides $(b,--queue)")
  in
  let pairs =
    Arg.(
      value & opt int 200
      & info [ "pairs" ] ~doc:"operation pairs per thread")
  in
  let det =
    Arg.(
      value & opt int 100
      & info [ "det" ] ~doc:"percent of detectable operations (queues only)")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"memory-event accounting for one detectable object on the simulator")
    Term.(
      const metrics_run $ queue $ object_name $ pairs $ det $ line_size_arg
      $ memory_model_arg)

(* -------------------------------- zoo --------------------------------- *)

let zoo_run pairs line_size combine json =
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
        r.z_events.Dssq_memory.Memory_intf.pwrites
        (Dssq_workload.Zoo.words_per_op r)
        (Dssq_workload.Zoo.flushes_per_op r)
        r.z_stats.Dssq_core.Detectable_intf.state_words
        r.z_stats.Dssq_core.Detectable_intf.announce_words)
    rows;
  Printf.printf
    "\nlower bound (Ben-Baruch et al., PAPERS.md): one persistent announce \
     word\nper process, and >= 2 persisted words per detectable mutation \
     (announce +\nstate); see EXPERIMENTS.md for the comparison table.\n";
  if combine then begin
    Printf.printf
      "\nflat-combining amortization (dss-fc engine queue, 8 threads): \
       words/op is\nfloor-bound — folding does not skip announce turnover — \
       while flushes/op\namortizes toward O(1/batch), one persist epoch per \
       batch:\n\n";
    Printf.printf "%8s%8s%12s%12s%12s\n" "batch" "ops" "words/op" "flushes/op"
      "fences/op";
    List.iter
      (fun (f : Dssq_workload.Zoo.fc_row) ->
        Printf.printf "%8d%8d%12.2f%12.3f%12.3f\n" f.f_batch f.f_ops f.f_words
          f.f_flushes f.f_fences)
      (Dssq_workload.Zoo.combine_rows ())
  end;
  match json with
  | None -> ()
  | Some file ->
      let report = Dssq_workload.Zoo.to_report ~pairs ~line_size rows in
      (match Dssq_obs.Run_report.write file report with
      | () ->
          Printf.printf "wrote %s (%s v%d)\n" file
            Dssq_obs.Run_report.schema_name Dssq_obs.Run_report.schema_version
      | exception Sys_error msg ->
          Printf.eprintf "dssq: cannot write report: %s\n" msg;
          exit 1)

let zoo_cmd =
  let pairs =
    Arg.(
      value & opt int 200
      & info [ "pairs" ] ~doc:"operation pairs per thread per object")
  in
  let combine =
    Arg.(
      value & flag
      & info [ "combine" ]
          ~doc:
            "append the flat-combining amortization sweep: words/op and \
             flushes/op per batch size on the engine queue, against the \
             Ben-Baruch floor")
  in
  Cmd.v
    (Cmd.info "zoo"
       ~doc:
         "persistent_words_per_op accounting across every detectable object \
          (the space-complexity table; --json for the archivable report)")
    Term.(const zoo_run $ pairs $ line_size_arg $ combine $ json_arg)

(* ------------------------------ profile ------------------------------ *)

module Zoo = Dssq_workload.Zoo
module Heatmap = Dssq_obs.Heatmap
module Profile = Dssq_obs.Profile
module Prom = Dssq_obs.Prom
module MI = Dssq_memory.Memory_intf

(* Attribution-grade profiling of the detectable-object zoo: the
   per-line persistence heatmap (which persist lines absorb the writes,
   flushes, elisions and coalesces, labeled by allocation site) and the
   phase-attributed profiler (the same events plus span latency, scoped
   by announce / exec / resolve / recovery phase).  The cross-check
   printed under each table — per-phase events summing exactly to the
   backend counter deltas — is the invariant the whole attribution rests
   on; the test suite asserts it across every object. *)
let profile_run object_ backend pairs line_size (coalesce, combine, persistency)
    crash with_heatmap top json prom =
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
  let backend_name = match backend with `Sim -> "sim" | `Native -> "native" in
  if crash && backend = `Native then
    fail "--crash is simulator-only (the native backend cannot lose its cache)";
  let profiles =
    List.map
      (fun name ->
        let p =
          match backend with
          | `Sim ->
              Zoo.profile_one ~pairs ~line_size ~coalesce ~combine ~persistency
                ~crash name
          | `Native ->
              Zoo.profile_one_native ~pairs ~line_size ~coalesce ~combine
                ~persistency name
        in
        (name, p))
      names
  in
  List.iter
    (fun (name, (p : Zoo.profile)) ->
      let r = p.Zoo.p_row in
      let c = r.Zoo.z_events in
      Printf.printf "== %s  backend: %s%s%s%s  ops: %d  line size: %d%s ==\n"
        name backend_name
        (if coalesce then "+coalesce" else "")
        (if persistency = Heap.Persistency.Px86 then "+px86" else "")
        (if combine then "+fc" else "")
        r.Zoo.z_ops line_size
        (if crash then "  (with crash + recovery)" else "");
      Format.printf "%a@?" Profile.pp_rows p.Zoo.p_phases;
      let sum f =
        List.fold_left
          (fun acc (ph : Profile.phase_row) -> acc + f ph)
          0 p.Zoo.p_phases
      in
      let checks =
        [
          ("pwrites", sum (fun ph -> ph.Profile.ph_pwrites), c.MI.pwrites);
          ("flushes", sum (fun ph -> ph.Profile.ph_flushes), c.MI.flushes);
          ("elided", sum (fun ph -> ph.Profile.ph_elides), c.MI.elided_flushes);
          ( "coalesced",
            sum (fun ph -> ph.Profile.ph_coalesces),
            c.MI.coalesced_flushes );
          ("fences", sum (fun ph -> ph.Profile.ph_fences), c.MI.fences);
        ]
      in
      Printf.printf "attribution check (phase sums / backend totals): %s\n"
        (String.concat "  "
           (List.map (fun (k, a, b) -> Printf.sprintf "%s %d/%d" k a b) checks));
      (* The invariant the attribution rests on: a sum mismatch means
         some persist event escaped its phase, so fail loudly — CI
         treats a non-zero exit as a lost-attribution regression. *)
      List.iter
        (fun (k, a, b) ->
          if a <> b then
            fail "%s: attribution lost %s events (phase sum %d, backend total %d)"
              name k a b)
        checks;
      if with_heatmap then begin
        Printf.printf "\npersistence heatmap (top %d of %d lines):\n" top
          (List.length p.Zoo.p_heat);
        Format.printf "%a@?" Heatmap.pp_rows (Heatmap.top ~n:top p.Zoo.p_heat)
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
            ("git_rev", Json.String (Dssq_obs.Run_report.git_rev ()));
            ("backend", Json.String backend_name);
            ( "params",
              Json.Obj
                [
                  ("pairs", Json.Int pairs);
                  ("crash", Json.Bool crash);
                  ("combine", Json.Bool combine);
                  ( "persistency",
                    Json.String (Heap.Persistency.to_string persistency) );
                ] );
            ( "provenance",
              Json.Obj
                (List.map
                   (fun (k, v) -> (k, Json.String v))
                   (* The zoo's workload is fixed at two threads. *)
                   (provenance ~threads:[ 2 ] ~line_size ~coalesce ())) );
            ( "objects",
              Json.List
                (List.map
                   (fun (name, (p : Zoo.profile)) ->
                     Json.Obj
                       [
                         ("object", Json.String name);
                         ("ops", Json.Int p.Zoo.p_row.Zoo.z_ops);
                         ( "counters",
                           Json.Obj
                             (List.map
                                (fun (k, v) -> (k, Json.Int v))
                                (MI.Counters.to_assoc p.Zoo.p_row.Zoo.z_events))
                         );
                         ("phases", Profile.rows_to_json p.Zoo.p_phases);
                         ("heatmap", Heatmap.rows_to_json p.Zoo.p_heat);
                       ])
                   profiles) );
          ]
      in
      match
        let oc = open_out file in
        output_string oc (Json.to_string doc);
        output_char oc '\n';
        close_out oc
      with
      | () -> Printf.printf "wrote %s (dssq-profile-report v1)\n" file
      | exception Sys_error msg ->
          Printf.eprintf "dssq: cannot write profile report: %s\n" msg;
          exit 1)
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
              (Prom.phase_samples p.Zoo.p_phases
              @ Prom.heatmap_samples p.Zoo.p_heat))
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
    Arg.(
      value & opt string "all"
      & info [ "object" ] ~docv:"NAME"
          ~doc:
            "zoo object to profile (the dss- prefix may be omitted), or all")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("native", `Native) ]) `Sim
      & info [ "backend" ] ~doc:"memory backend: sim (default) or native")
  in
  let pairs =
    Arg.(
      value & opt int 200
      & info [ "pairs" ] ~doc:"operation pairs per thread")
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
      const profile_run $ object_ $ backend $ pairs $ line_size_arg
      $ memory_model_arg $ crash $ with_heatmap
      $ top $ json_arg $ prom)

let latency_cmd =
  let run () =
    Printf.printf "%-16s%14s%14s%9s\n" "queue" "plain_ns" "detectable_ns" "ratio";
    List.iter
      (fun (name, nondet, det) ->
        Printf.printf "%-16s%14.0f%14.0f%9.2f\n" name nondet det
          (if nondet > 0. then det /. nondet else 0.))
      (Experiments.op_latency ())
  in
  Cmd.v (Cmd.info "latency" ~doc:"modelled per-op latency") Term.(const run $ const ())

(* ---------------------------- crash demo ----------------------------- *)

let crash_demo step evict_p show_trace =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Q = Dssq_core.Dss_queue.Make (M) in
  let q = Q.create ~nthreads:2 ~capacity:64 () in
  List.iter (fun v -> Q.enqueue q ~tid:1 v) [ 1; 2; 3 ];
  Printf.printf "queue initialized with [1; 2; 3]\n";
  Printf.printf
    "thread 0 runs: prep-enqueue(42); exec-enqueue; prep-dequeue; exec-dequeue\n";
  let thread () =
    Q.prep_enqueue q ~tid:0 42;
    Q.exec_enqueue q ~tid:0;
    Q.prep_dequeue q ~tid:0;
    ignore (Q.exec_dequeue q ~tid:0)
  in
  let run () = Sim.run heap ~crash:(Sim.Crash_at_step step) ~threads:[ thread ] in
  let outcome, entries = if show_trace then Trace.capture run else (run (), []) in
  Format.printf "%a" Trace.pp_timeline entries;
  if not outcome.Sim.crashed then
    Printf.printf
      "no crash before the program finished (it takes fewer than %d steps);\n\
       final queue: [%s]\n"
      step
      (String.concat "; " (List.map string_of_int (Q.to_list q)))
  else begin
    Printf.printf "CRASH injected before memory event #%d (evict_p = %.2f)\n"
      step evict_p;
    Sim.apply_crash heap ~evict_p ~seed:step;
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
  let step =
    Arg.(value & opt int 25 & info [ "step" ] ~doc:"memory event to crash before")
  in
  let evict =
    Arg.(value & opt float 0.5 & info [ "evict" ] ~doc:"cache eviction probability")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"print the run's event timeline")
  in
  Cmd.v
    (Cmd.info "crash-demo" ~doc:"crash a detectable program and resolve it")
    Term.(const crash_demo $ step $ evict $ trace)

(* ------------------------------- trace ------------------------------- *)

(* Run a crash-injecting workload on the simulator under the event tracer
   and export the merged event trace as Chrome trace-event JSON: every
   memory event with its cell and post-event dirtiness, the crash with
   per-cell evict verdicts, the recovery phase, and each thread's resolve
   outcome.  The file loads directly into https://ui.perfetto.dev or
   chrome://tracing. *)
let trace_run out step evict_p seed capacity timeline =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Q = Dssq_core.Dss_queue.Make (M) in
  let q = Q.create ~nthreads:2 ~capacity:64 () in
  List.iter (fun v -> Q.enqueue q ~tid:0 v) [ 1; 2; 3 ];
  let tracer = Trace.start ~capacity () in
  (* Persist barrier between setup and the traced run (and the trace's
     guaranteed fence event). *)
  Heap.fence heap;
  let enqueuer () =
    Q.prep_enqueue q ~tid:0 42;
    Q.exec_enqueue q ~tid:0
  in
  let dequeuer () =
    Q.prep_dequeue q ~tid:1;
    ignore (Q.exec_dequeue q ~tid:1)
  in
  let outcome =
    Sim.run heap ~policy:(Sim.Random_seed seed)
      ~crash:(Sim.Crash_at_step step)
      ~threads:[ enqueuer; dequeuer ]
  in
  if not outcome.Sim.crashed then
    Printf.printf
      "note: the program finished before step %d; crashing at quiescence\n"
      step;
  Sim.apply_crash heap ~evict_p ~seed;
  Q.recover q;
  let r0 = Q.resolve q ~tid:0 in
  let r1 = Q.resolve q ~tid:1 in
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
  let step =
    Arg.(value & opt int 30 & info [ "step" ] ~doc:"memory event to crash before")
  in
  let evict =
    Arg.(
      value & opt float 0.5 & info [ "evict" ] ~doc:"cache eviction probability")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"schedule seed") in
  let capacity =
    Arg.(
      value & opt int 4096
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
    Term.(const trace_run $ out $ step $ evict $ seed $ capacity $ timeline)

(* ----------------------------- lincheck ------------------------------ *)

(* A detectable queue as closures, for implementation-generic fuzzing. *)
type qh = {
  heap : Heap.t;
  prep_enqueue : tid:int -> int -> unit;
  exec_enqueue : tid:int -> unit;
  prep_dequeue : tid:int -> unit;
  exec_dequeue : tid:int -> int;
  dequeue : tid:int -> int;
  resolve : tid:int -> Dssq_core.Queue_intf.resolved;
  recover : unit -> unit;
}

let make_queue ?(coalesce = false) ?(combine = false) ?persistency kind : qh =
  let heap = Heap.create ~coalesce ~combine ?persistency () in
  let (module M) = Sim.memory heap in
  match kind with
  | `Dss ->
      let module Q = Dssq_core.Dss_queue.Make (M) in
      let q = Q.create ~nthreads:2 ~capacity:64 ~combine () in
      {
        heap;
        prep_enqueue = (fun ~tid v -> Q.prep_enqueue q ~tid v);
        exec_enqueue = (fun ~tid -> Q.exec_enqueue q ~tid);
        prep_dequeue = (fun ~tid -> Q.prep_dequeue q ~tid);
        exec_dequeue = (fun ~tid -> Q.exec_dequeue q ~tid);
        dequeue = (fun ~tid -> Q.dequeue q ~tid);
        resolve = (fun ~tid -> Q.resolve q ~tid);
        recover = (fun () -> Q.recover q);
      }
  | `Log ->
      let module Q = Dssq_baselines.Log_queue.Make (M) in
      let q = Q.create ~nthreads:2 ~capacity:64 in
      {
        heap;
        prep_enqueue = (fun ~tid v -> Q.prep_enqueue q ~tid v);
        exec_enqueue = (fun ~tid -> Q.exec_enqueue q ~tid);
        prep_dequeue = (fun ~tid -> Q.prep_dequeue q ~tid);
        exec_dequeue = (fun ~tid -> Q.exec_dequeue q ~tid);
        dequeue = (fun ~tid -> Q.dequeue q ~tid);
        resolve = (fun ~tid -> Q.resolve q ~tid);
        recover = (fun () -> Q.recover q);
      }
  | `Fast ->
      let module Q = Dssq_baselines.Caswe_queue.Fast (M) in
      let q = Q.create ~nthreads:2 ~capacity:64 () in
      {
        heap;
        prep_enqueue = (fun ~tid v -> Q.prep_enqueue q ~tid v);
        exec_enqueue = (fun ~tid -> Q.exec_enqueue q ~tid);
        prep_dequeue = (fun ~tid -> Q.prep_dequeue q ~tid);
        exec_dequeue = (fun ~tid -> Q.exec_dequeue q ~tid);
        dequeue = (fun ~tid -> Q.dequeue q ~tid);
        resolve = (fun ~tid -> Q.resolve q ~tid);
        recover = (fun () -> Q.recover q);
      }
  | `General ->
      let module Q = Dssq_baselines.Caswe_queue.General (M) in
      let q = Q.create ~nthreads:2 ~capacity:64 () in
      {
        heap;
        prep_enqueue = (fun ~tid v -> Q.prep_enqueue q ~tid v);
        exec_enqueue = (fun ~tid -> Q.exec_enqueue q ~tid);
        prep_dequeue = (fun ~tid -> Q.prep_dequeue q ~tid);
        exec_dequeue = (fun ~tid -> Q.exec_dequeue q ~tid);
        dequeue = (fun ~tid -> Q.dequeue q ~tid);
        resolve = (fun ~tid -> Q.resolve q ~tid);
        recover = (fun () -> Q.recover q);
      }

(* Randomized strict-linearizability testing: random schedules, random
   crash points, recovery, recorded resolves, checked against D<queue>.
   Every execution runs under an event tracer, so a violation is reported
   with the exact interleaving of stores, flushes, crash and resolves
   that produced it — as a timeline, and optionally as Perfetto JSON. *)
let lincheck_run kind (coalesce, combine, persistency) iterations verbose
    trace_json =
  if combine && kind <> `Dss then begin
    Printf.eprintf "dssq: --combine only applies to the dss queue\n";
    exit 2
  end;
  let spec = Dss_spec.make ~nthreads:2 (Specs.Queue.spec ()) in
  let checked = ref 0 in
  let crashes = ref 0 in
  for i = 1 to iterations do
    ignore (Trace.start () : Trace.t);
    let q = make_queue ~coalesce ~combine ~persistency kind in
    let heap = q.heap in
    let rec_ = Recorder.create () in
    let record ~tid op f =
      ignore (Recorder.record rec_ ~tid op f)
    in
    let deq_response v : (Specs.Queue.op, Specs.Queue.response) Dss_spec.response
        =
      if v = Dssq_core.Queue_intf.empty_value then Dss_spec.Ret Specs.Queue.Empty
      else Dss_spec.Ret (Specs.Queue.Value v)
    in
    let resolved_response (r : Dssq_core.Queue_intf.resolved) :
        (Specs.Queue.op, Specs.Queue.response) Dss_spec.response =
      match r with
      | Nothing -> Dss_spec.Status (None, None)
      | Enq_pending v -> Dss_spec.Status (Some (Specs.Queue.Enqueue v), None)
      | Enq_done v ->
          Dss_spec.Status (Some (Specs.Queue.Enqueue v), Some Specs.Queue.Ok)
      | Deq_pending -> Dss_spec.Status (Some Specs.Queue.Dequeue, None)
      | Deq_empty ->
          Dss_spec.Status (Some Specs.Queue.Dequeue, Some Specs.Queue.Empty)
      | Deq_done v ->
          Dss_spec.Status
            (Some Specs.Queue.Dequeue, Some (Specs.Queue.Value v))
    in
    let enqueuer () =
      record ~tid:0 (Dss_spec.Prep (Specs.Queue.Enqueue i)) (fun () ->
          q.prep_enqueue ~tid:0 i;
          Dss_spec.Ack);
      record ~tid:0 (Dss_spec.Exec (Specs.Queue.Enqueue i)) (fun () ->
          q.exec_enqueue ~tid:0;
          Dss_spec.Ret Specs.Queue.Ok)
    in
    let dequeuer () =
      record ~tid:1 (Dss_spec.Prep Specs.Queue.Dequeue) (fun () ->
          q.prep_dequeue ~tid:1;
          Dss_spec.Ack);
      record ~tid:1 (Dss_spec.Exec Specs.Queue.Dequeue) (fun () ->
          deq_response (q.exec_dequeue ~tid:1))
    in
    let outcome =
      Sim.run heap ~policy:(Sim.Random_seed i)
        ~crash:(Sim.Crash_at_step (5 + (i mod 45)))
        ~threads:[ enqueuer; dequeuer ]
    in
    if outcome.Sim.crashed then begin
      incr crashes;
      Recorder.crash rec_;
      Sim.apply_crash heap ~evict_p:(float_of_int (i mod 3) /. 2.) ~seed:i;
      q.recover ();
      record ~tid:0 Dss_spec.Resolve (fun () ->
          resolved_response (q.resolve ~tid:0));
      record ~tid:1 Dss_spec.Resolve (fun () ->
          resolved_response (q.resolve ~tid:1))
    end;
    (* Drain so the final state is validated too. *)
    let rec drain guard =
      if guard > 0 then begin
        let v = ref 0 in
        record ~tid:0 (Dss_spec.Base Specs.Queue.Dequeue) (fun () ->
            v := q.dequeue ~tid:0;
            deq_response !v);
        if !v <> Dssq_core.Queue_intf.empty_value then drain (guard - 1)
      end
    in
    drain 10;
    let history = Recorder.history rec_ in
    (match Lincheck.check ~mode:Lincheck.Strict spec history with
    | Lincheck.Linearizable w ->
        if verbose then begin
          Printf.printf "iteration %d: linearizable (%d ops)\n" i (List.length w)
        end
    | Lincheck.Not_linearizable trace ->
        Printf.printf "iteration %d: VIOLATION\n" i;
        Format.printf "%a"
          (Dssq_history.History.pp ~pp_op:spec.Spec.pp_op
             ~pp_response:spec.Spec.pp_response)
          history;
        if trace <> [] then
          Format.printf "recorded event timeline:@.%a" Trace.pp_timeline trace;
        Option.iter
          (fun file ->
            Trace.write_chrome file trace;
            Printf.printf "wrote %s (chrome trace-event JSON, %d events)\n" file
              (List.length trace))
          trace_json;
        exit 1);
    Trace.stop ();
    incr checked
  done;
  Printf.printf
    "checked %d random executions (%d with crashes): all strictly linearizable \
     w.r.t. D<queue>\n"
    !checked !crashes

let lincheck_cmd =
  let kind =
    Arg.(
      value
      & opt
          (enum
             [ ("dss", `Dss); ("log", `Log); ("fast-caswe", `Fast); ("general-caswe", `General) ])
          `Dss
      & info [ "queue" ] ~doc:"implementation to check")
  in
  let iterations =
    Arg.(value & opt int 500 & info [ "n" ] ~doc:"number of random executions")
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
      const lincheck_run $ kind $ memory_model_arg
      $ iterations $ verbose $ trace_json)

(* ------------------------------ explore ------------------------------ *)

module Explore = Dssq_sim.Explore
module Scenarios = Dssq_checker.Scenarios
module Mutants = Dssq_checker.Mutants
module Oracle = Dssq_checker.Oracle
module Explore_report = Dssq_checker.Explore_report

(* Re-exported so the explore driver below can build and match the
   record with unqualified fields; the schema (encode + decode) lives in
   {!Dssq_checker.Explore_report}. *)
type explore_result = Explore_report.case_result = {
  xcase : Scenarios.case;
  verdict : (Explore.stats, Explore.schedule * exn) result;
  naive : (Explore.stats, Explore.schedule * exn) result option;
}

let run_case = Explore_report.run_case

let explore_run object_ crash_mode line_sizes (coalesce, combine, persistency)
    mutant mode_name max_preemptions max_crash_lines crash_samples seed
    adversary limit compare_naive json token_file replay case_name list_only =
  let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "dssq: %s\n" m; exit 2) fmt in
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
    Scenarios.cases ~objects ~crash_modes ~line_sizes ~coalesce ~combine
      ~persistency ?mutation ~mode ~max_preemptions ~max_crash_lines
      ~crash_samples ~seed ~adversary ~limit ()
  in
  if list_only then begin
    List.iter (fun (c : Scenarios.case) -> print_endline c.Scenarios.name) cases;
    exit 0
  end;
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
      let outcome, trace = c.Scenarios.explain sched in
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
            let verdict = run_case c ~reduction:true in
            let naive =
              if compare_naive then Some (run_case c ~reduction:false)
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
                    "%7d execs %6d pruned (%4.1f%% hit) %7d crash %s %7d \
                     replays %6.2fs"
                    s.executions s.pruned hit s.crash_branches
                    (if s.crash_sampled > 0 then
                       Printf.sprintf "[%d/%d pts sampled]" s.crash_sampled
                         s.crash_points
                     else Printf.sprintf "[%d pts enum]" s.crash_points)
                    s.replays s.wall_s
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
          ("coalesce", Json.Bool coalesce);
          ("combine", Json.Bool combine);
          ( "persistency",
            Json.String (Dssq_pmem.Heap.Persistency.to_string persistency) );
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
          let doc = Explore_report.encode ~params results in
          let oc = open_out file in
          output_string oc (Json.to_string doc);
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s (%s v%d)\n" file Explore_report.schema
            Explore_report.version)
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
      let tot f =
        List.fold_left
          (fun acc r -> match r.verdict with Ok s -> acc + f s | Error _ -> acc)
          0 results
      in
      let wall =
        List.fold_left
          (fun acc r ->
            match r.verdict with
            | Ok s -> acc +. s.Explore.wall_s
            | Error _ -> acc)
          0. results
      in
      Printf.printf
        "explored %d case(s): all executions %s-linearizable w.r.t. their \
         specifications\n\
         coverage: %d executions, %d branches, %d pruned, %d crash points \
         (%d enumerated, %d sampled), %d replays, %.2fs\n"
        (List.length results) mode_name
        (tot (fun s -> s.Explore.executions))
        (tot (fun s -> s.Explore.branches))
        (tot (fun s -> s.Explore.pruned))
        (tot (fun s -> s.Explore.crash_points))
        (tot (fun s -> s.Explore.crash_enumerated))
        (tot (fun s -> s.Explore.crash_sampled))
        (tot (fun s -> s.Explore.replays))
        wall;
      if persistency = Dssq_pmem.Heap.Persistency.Px86 then
        Printf.printf
          "px86 coverage: %d drain points, %d crash executions with adversary \
           drains\n"
          (tot (fun s -> s.Explore.drain_points))
          (tot (fun s -> s.Explore.drain_branches))

let explore_cmd =
  let object_ =
    Arg.(
      value & opt string "all"
      & info [ "object" ] ~docv:"OBJ"
          ~doc:"object to check: all, queue, stack, register or hashmap")
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
             (drop-drain is only observable with --coalesce; skip-drain, \
             short-drain and reorder-persist only with --persistency px86; \
             lost-batch only with --combine, where it targets the \
             engine-backed objects)")
  in
  let mode =
    Arg.(
      value & opt string "strict"
      & info [ "mode" ] ~doc:"linearizability mode: strict, recoverable, durable")
  in
  let max_preemptions =
    Arg.(
      value & opt int 1
      & info [ "max-preemptions" ]
          ~doc:"CHESS preemption bound (iterative deepening)")
  in
  let max_crash_lines =
    Arg.(
      value & opt pos_int 4
      & info [ "max-crash-lines" ]
          ~doc:
            "cap on exhaustive eviction-subset enumeration per crash point; \
             above it, seeded sampling")
  in
  let crash_samples =
    Arg.(
      value & opt int 6
      & info [ "crash-samples" ]
          ~doc:"sampled eviction subsets past the enumeration cap")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"crash-sampling seed")
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
      value & opt int 2_000_000
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
      & info [ "case" ] ~docv:"NAME" ~doc:"corpus case to replay (see --list)")
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
      const explore_run $ object_ $ crashes $ line_sizes $ memory_model_arg
      $ mutant $ mode $ max_preemptions
      $ max_crash_lines $ crash_samples $ seed $ adversary $ limit
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
       Experiments: fig5a, fig5b, ablate-flush, ablate-demand,\n\
       ablate-recovery, ablate-pmwcas, ablate-linesize, latency, metrics,\n\
       zoo (persistent_words_per_op across the detectable-object zoo),\n\
       profile (persistence heatmap + phase-attributed profiler),\n\
       lincheck, crash-demo, trace, explore.  See DESIGN.md and\n\
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
             fig5a_cmd;
             fig5b_cmd;
             ablate_linesize_cmd;
             bench_diff_cmd;
             fsck_cmd;
             metrics_cmd;
             zoo_cmd;
             profile_cmd;
             latency_cmd;
             crash_demo_cmd;
             trace_cmd;
             lincheck_cmd;
             explore_cmd;
             info_cmd;
           ]
          @ ablate_cmds)))
