(* The repository benchmark: one workload per process, on the main
   domain only.  See README.md for the workloads and metrics.

     dune exec perfbench/suite.exe -- --workload native-queue --seed 1 --seconds 10
     dune exec perfbench/suite.exe -- --workload explore-queue --seed 1 \
       --seconds 10 --trace spans.json

   Human-readable lines first; the last line of standard output is one
   JSON object {correct, attempted, failed, metrics}, with every
   end-to-end metric, or with --trace every per-layer metric (and the
   span records written to the file).  The exit code is 0 whenever the
   result line was printed, 1 when the workload could not run at all. *)

open Cmdliner

(* Set-up is repeated this many times per run and its median reported. *)
let setup_reps = 3

let workloads =
  [
    ("native-queue", Native_queue.run);
    ("sim-queue-8t", Sim_objects.run Sim_objects.Queue);
    ("sim-fc-8t", Sim_objects.run Sim_objects.Fc);
    ("sim-register-rw", Sim_objects.run Sim_objects.Register);
    ("restart", Restart.run);
    ("explore-queue", Explore_queue.run);
  ]

let result_line ~trace (r : Metrics.result) =
  let catalogue = if trace then Metrics.per_layer else Metrics.end_to_end in
  let missing =
    if trace then []
    else
      List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name r.values then None
          else Some ("missing metric " ^ name))
        catalogue
  in
  let errors = r.errors @ missing in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let module J = Dssq_obs.Json in
  J.to_string ~indent:false
    (J.Obj
       [
         ("correct", J.Bool (errors = [] && r.failed = 0));
         ("attempted", J.Int r.attempted);
         ("failed", J.Int r.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, value, unit_) ->
                  (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit_) ]))
                (Metrics.complete ~catalogue r.values)) );
       ])

let main workload seed seconds trace_file =
  match List.assoc_opt workload workloads with
  | None ->
      Printf.eprintf "suite: unknown workload %S (known: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      exit 1
  | Some run ->
      let trace = Option.is_some trace_file in
      let r = run ~seed ~seconds ~trace ~setup_reps in
      let r =
        if trace then r
        else { r with values = ("peak_rss_mb", !Clock.peak_rss_mb) :: r.values }
      in
      Option.iter Spans.write trace_file;
      print_endline (result_line ~trace r)

let () =
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"workload to run")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"seed for every input")
  in
  let seconds =
    Arg.(
      value & opt float 10.
      & info [ "seconds" ] ~doc:"measured time (set-up and checks excluded)")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "traced run: report the per-layer metrics and write the span \
             records to $(docv)")
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "suite" ~doc:"run one benchmark workload")
          Term.(const main $ workload $ seed $ seconds $ trace)))
