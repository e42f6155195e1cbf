(* explore-queue: the model checker on the queue slice CI pays for —
   `dssq explore --object queue --max-preemptions 2 --line-sizes 1`
   under sc — rebuilt here with [Explore.make] around the corpus
   descriptor so the benchmark can time each execution and, traced, wrap
   set-up, check and crash recovery in spans.  The crash-sampling seed
   comes from --seed.  The slice leaves out the three-thread enq-enq-deq
   program: at this bound it alone takes 15 s (48,001 set-ups), three
   times a run's budget.  Each pass over the slice is checked (every
   execution strictly linearizable) and timed; passes repeat until
   --seconds is used up. *)

module Explore = Dssq_sim.Explore
module Scenarios = Dssq_checker.Scenarios
module Heap = Dssq_pmem.Heap
module Intf = Dssq_memory.Memory_intf

let max_preemptions = 2

let slice =
  List.concat_map
    (fun prog -> [ (prog, false); (prog, true) ])
    [ "enq-deq"; "enq-enq"; "mid-alloc"; "mid-link" ]

(* Tiny cases for the set-up's warm-up. *)
let warmup = [ ("mid-alloc", false); ("mid-link", false) ]

let params ~seed ~crashes =
  {
    Scenarios.default_params with
    crashes;
    line_size = 1;
    max_preemptions;
    seed;
  }

(* Kernel samples from inside the search, at most this often. *)
let tick_every_ns = 1_000_000

type pass = {
  mutable executions : int;
  mutable failed : int;
  mutable errors : string list;
  mutable wall : float;  (** normalised ns *)
  mutable raw : float;
  lat : float list ref;  (** normalised ns per execution *)
  mutable stats : Explore.stats list;
  mutable events : Intf.counters;  (** summed over executions' heaps *)
}

let new_pass () =
  {
    executions = 0;
    failed = 0;
    errors = [];
    wall = 0.;
    raw = 0.;
    lat = ref [];
    stats = [];
    events = Intf.Counters.zero;
  }

(* One case, as [Scenarios.explorer] builds it, with every execution
   timed from the previous check to the end of its own, and normalised
   by the kernel samples on both sides of it. *)
let explore_case ~seed ~trace p (prog, crashes) =
  let params = params ~seed ~crashes in
  let d = Scenarios.descriptor_of_obj "queue" in
  let setup = d.Scenarios.d_setup ~params ~prog in
  let r0 = ref (Clock.tick ()) and pending = ref [] in
  let last = ref (Clock.now ()) in
  let last_tick = ref !last in
  let settle () =
    let r1 = Spans.with_span "bench.ref" Clock.tick in
    let rf = (!r0 +. r1) /. 2. in
    List.iter
      (fun raw ->
        p.wall <- p.wall +. (raw /. rf);
        p.lat := (raw /. rf) :: !(p.lat))
      !pending;
    pending := [];
    r0 := r1;
    last_tick := Clock.now ()
  in
  let check (w : Scenarios.world) heap ~crashed =
    Spans.with_span "checker.check" (fun () -> w.finish ~crashed);
    let t = Clock.now () in
    let raw = float_of_int (t - !last) in
    p.executions <- p.executions + 1;
    p.raw <- p.raw +. raw;
    pending := raw :: !pending;
    if trace then p.events <- Intf.Counters.add p.events (Heap.counters heap);
    if t - !last_tick >= tick_every_ns then settle ();
    last := Clock.now ()
  in
  let ex =
    Explore.make ~crashes:params.crashes ~adversary:params.adversary
      ~max_crash_lines:params.max_crash_lines ~crash_samples:params.crash_samples
      ~seed:params.seed ~reduction:true ~limit:params.limit
      ~max_preemptions:params.max_preemptions
      ~on_crash:(fun (w : Scenarios.world) _heap ->
        Spans.with_span "checker.reattach" w.reattach)
      ~setup:(fun () -> Spans.with_span "checker.setup" setup)
      ~check ()
  in
  let name = Printf.sprintf "queue/%s/%s" prog (if crashes then "crash" else "nocrash") in
  Fun.protect ~finally:settle @@ fun () ->
  match Spans.with_span "sim.explore.case" (fun () -> Explore.run ex) with
  | stats -> p.stats <- stats :: p.stats
  | exception Explore.Violation { schedule; exn } ->
      p.failed <- p.failed + 1;
      p.errors <-
        p.errors
        @ [ Printf.sprintf "%s: not strictly linearizable (%s): replay %s" name
              (Printexc.to_string exn)
              (Explore.schedule_to_string schedule) ]
  | exception e ->
      p.failed <- p.failed + 1;
      p.errors <- p.errors @ [ Printf.sprintf "%s raised %s" name (Printexc.to_string e) ]

let run_pass ~seed ~trace cases =
  let p = new_pass () in
  Spans.with_span "bench.pass" (fun () -> List.iter (explore_case ~seed ~trace p) cases);
  p

(* Passes while another fits before the deadline, at least one. *)
let passes ~seed ~trace ~deadline =
  let rec go acc =
    let t0 = Clock.now () in
    let acc = run_pass ~seed ~trace slice :: acc in
    Clock.mark_first_unit ();
    if 2 * Clock.now () - t0 <= deadline then go acc else List.rev acc
  in
  go []

let sum f ps = List.fold_left (fun a p -> a + f p) 0 ps

let run ~seed ~seconds ~trace ~setup_reps : Metrics.result =
  let _, setup_s =
    Clock.setup_time setup_reps (fun () -> run_pass ~seed ~trace:false warmup)
  in
  let untraced_s = if trace then seconds /. 2. else seconds in
  let deadline s = Clock.now () + int_of_float (s *. 1e9) in
  Clock.settle_heap ();
  let ps = passes ~seed ~trace:false ~deadline:(deadline untraced_s) in
  let first = List.hd ps in
  (* Every execution: they differ by case, so dropping the ones measured
     in a slow period would skew the mix. *)
  let lat = List.concat_map (fun p -> !(p.lat)) ps in
  let errors =
    List.concat_map (fun p -> p.errors) ps
    @ List.filter_map
        (fun p ->
          if p.executions = first.executions then None
          else
            Some
              (Printf.sprintf "a pass explored %d executions, the first %d"
                 p.executions first.executions))
        ps
  in
  let walls = List.map (fun p -> p.wall) ps in
  Printf.printf
    "explore-queue: %d case(s), %d executions per pass, %d pass(es); median \
     pass %.3f s raw / %.3f ref-s; per-execution p50 %.1f / p99 %.1f ref-us \
     over %d executions; kernel %.3f ns/iter\n"
    (List.length slice) first.executions (List.length ps)
    (Clock.median (List.map (fun p -> p.raw) ps) /. 1e9)
    (Clock.median walls /. 1e9)
    (Clock.percentile lat 50. /. 1e3)
    (Clock.percentile lat 99. /. 1e3)
    (List.length lat)
    (Clock.median !Clock.ref_samples);
  let attempted = sum (fun p -> p.executions) ps in
  let failed = sum (fun p -> p.failed) ps in
  if not trace then
    {
      Metrics.attempted;
      failed;
      errors;
      values =
        [
          ("setup_s", setup_s);
          ("wall_ms", Clock.median walls /. 1e6);
          ("op_p50_ns", Clock.percentile lat 50.);
          ("op_p99_ns", Clock.percentile lat 99.);
        ];
    }
  else begin
    Clock.reset_refs ();
    Clock.settle_heap ();
    Spans.on := true;
    let tp = run_pass ~seed ~trace:true slice in
    Spans.on := false;
    let total name = fst (Spans.total name) in
    let pass_ns = total "bench.pass" in
    let setup_ns, setup_calls = Spans.total "checker.setup" in
    let check_ns = total "checker.check" and reattach_ns = total "checker.reattach" in
    let ref_ns = total "bench.ref" in
    let search_ns = pass_ns -. setup_ns -. check_ns -. reattach_ns -. ref_ns in
    Printf.printf
      "explore trace: pass %.3f s = set-up %.3f + check %.3f + reattach %.3f + \
       search %.3f + kernel %.3f s (raw)\n"
      (pass_ns /. 1e9) (setup_ns /. 1e9) (check_ns /. 1e9) (reattach_ns /. 1e9)
      (search_ns /. 1e9) (ref_ns /. 1e9);
    let rf = Clock.median !Clock.ref_samples in
    let s x = x /. rf /. 1e9 in
    let stat f = List.fold_left (fun a st -> a + f st) 0 tp.stats in
    let branches = stat (fun st -> st.Explore.branches) in
    let pruned = stat (fun st -> st.Explore.pruned) in
    let n = tp.executions and e = tp.events in
    {
      attempted = attempted + tp.executions;
      failed = failed + tp.failed;
      errors = errors @ tp.errors;
      values =
        [
          ("memory.reads_per_op", Metrics.per_op n e.reads);
          ("memory.writes_per_op", Metrics.per_op n e.writes);
          ("memory.cas_per_op", Metrics.per_op n e.cases);
          ("memory.flushes_per_op", Metrics.per_op n e.flushes);
          ("memory.elided_flushes_per_op", Metrics.per_op n e.elided_flushes);
          ("memory.fences_per_op", Metrics.per_op n e.fences);
          ("memory.pwrites_per_op", Metrics.per_op n e.pwrites);
          ( "sim.events_per_wall_s",
            float_of_int (Intf.Counters.total e) /. (pass_ns /. 1e9) );
          ("sim.explore.executions", float_of_int n);
          ("sim.explore.branches", float_of_int branches);
          ( "sim.explore.sleep_hit_rate",
            float_of_int pruned /. float_of_int (max 1 (pruned + branches)) );
          ("sim.explore.crash_points", float_of_int (stat (fun st -> st.Explore.crash_points)));
          ("sim.explore.search_s", s search_ns);
          ("checker.setup_s", s setup_ns);
          ("checker.setup_calls", float_of_int setup_calls);
          ("checker.setup_us_per_call", s setup_ns *. 1e6 /. float_of_int (max 1 setup_calls));
          ("checker.check_s", s check_ns);
          ("checker.reattach_s", s reattach_ns);
          ("bench.ref_ns_per_iter", rf);
          ("bench.ref_spread", Clock.spread !Clock.ref_samples);
          ("bench.trace_overhead", tp.wall /. Clock.median walls);
        ];
    }
  end
