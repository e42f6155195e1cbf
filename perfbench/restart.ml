(* restart: power loss -> WAL replay -> roots -> recover -> first op, the
   path no steady-state workload runs.  Two parts.

   Modelled: a DSS queue rooted in a [Recovery] system on a simulated
   heap (line size 8).  Four modelled clients run detectable pairs until
   a seeded horizon, the heap crashes with a seeded eviction draw, and
   the system restarts: reattach, one resolve per client, one completed
   pair.  The restart is priced by its memory events under the sim cost
   table, as [Experiments.recovery_latency] does.  The crash seeds are
   fixed by --seed.

   Wall clock: the same system on Native with an 8k-node pool.  After a
   seeded 8k-operation stream from four clients (interleaved on the main
   domain) the system restarts; the restart is timed and checked, and
   the stream-plus-restart cycle repeats until --seconds is used up.
   The sizes keep the working set near the 2 MB L2 of the benchmark
   host: at 64k nodes the restart waited on the shared L3, and its time
   tracked neither the host's slow periods nor the reference kernel
   (8 % spread over ten seeds). *)

module Intf = Dssq_memory.Memory_intf
module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Machine = Dssq_sim.Machine
module Recovery = Dssq_core.Recovery
module Queue_intf = Dssq_core.Queue_intf

let nthreads = 4
let crash_seeds = 1000
let init_nodes = 16
let init_value k = (1 lsl 36) + k
let value ~tid i = (tid lsl 32) lor i
let native_capacity = 8192
let stream_ops = 8192

(* Both parts run the queue without node recycling: with it, a client
   whose last completed dequeue's node is recycled by later operations
   resolves that dequeue as pending (README.md, known issues), which the
   resolve checks below would report on most runs.  Without it, old
   nodes stay unreachable until the restart's rebuild returns them to
   the free lists, so a stream never needs more nodes than one pool. *)
let config ?line_size ~capacity () =
  Queue_intf.config ~reclaim:false ?line_size ~nthreads ~capacity ()

(* ------------------------------------------------------------------ *)
(* Modelled crash and restart.                                          *)

let modelled_ns (d : Intf.counters) =
  let k = Dssq_workload.Sim_throughput.default_costs in
  let f = float_of_int in
  (f d.reads *. k.read_ns) +. (f d.writes *. k.write_ns) +. (f d.cases *. k.cas_ns)
  +. (f d.flushes *. k.flush_ns) +. (f d.fences *. k.fence_ns)

type crash_result = {
  cost_ns : float;
  events : int;  (** memory events charged to the restart *)
  sim_events : int;  (** memory events of the whole seed, for the sim rate *)
  counts : Counting.counts;  (** interposer counts over the restart *)
  heap : Intf.counters;  (** the heap's counts over the restart *)
  problems : string list;
}

(* Value bookkeeping for one crash: what was offered, what completed. *)
let check_values ~init ~attempted ~enq_done ~deq_done ~resolved ~held =
  let consumed = Hashtbl.create 64 and problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun v ->
      if Hashtbl.mem consumed v then problem "value %d dequeued twice" v;
      Hashtbl.replace consumed v ())
    deq_done;
  let effective = Hashtbl.copy enq_done in
  List.iter
    (function
      | Queue_intf.Deq_done v -> Hashtbl.replace consumed v ()
      | Queue_intf.Enq_done v -> Hashtbl.replace effective v ()
      | _ -> ())
    resolved;
  let known v = List.mem v init || Hashtbl.mem attempted v in
  let in_queue = Hashtbl.create 64 in
  List.iter
    (fun v ->
      if Hashtbl.mem in_queue v then problem "value %d held twice" v;
      if Hashtbl.mem consumed v then problem "value %d held and dequeued" v;
      if not (known v) then problem "value %d invented" v;
      Hashtbl.replace in_queue v ())
    held;
  Hashtbl.iter (fun v () -> if not (known v) then problem "value %d invented" v) consumed;
  let survives v =
    if not (Hashtbl.mem in_queue v || Hashtbl.mem consumed v) then problem "value %d lost" v
  in
  List.iter survives init;
  Hashtbl.iter (fun v () -> survives v) effective;
  (* Detectability: an enqueue resolved as not taken effect left no
     trace. *)
  List.iter
    (function
      | Queue_intf.Enq_pending v when Hashtbl.mem in_queue v || Hashtbl.mem consumed v ->
          problem "value %d resolved pending but took effect" v
      | _ -> ())
    resolved;
  List.rev !problems

let modelled_restart ~seed ~count =
  let rng = Random.State.make [| seed; 0xC4A5 |] in
  let horizon_ns = 20_000. +. Random.State.float rng 20_000. in
  let heap = Heap.create ~line_size:8 () in
  let (module M0) = Sim.memory heap in
  let counts, mem =
    if count then
      let module C = Counting.Make (M0) () in
      (C.counts, (module C : Intf.S))
    else (Counting.zero (), (module M0 : Intf.S))
  in
  let (module M) = mem in
  let module R = struct
    module Sys = Recovery.Make (M)
    module Dss = Dssq_core.Dss_queue.Make (M)
  end in
  let sys = R.Sys.create ~nthreads ~wal_lane_capacity:256 () in
  let q =
    R.Dss.of_config ~wal:(R.Sys.wal sys) ~pool_id:(R.Sys.fresh_pool_id sys)
      (config ~line_size:8 ~capacity:(init_nodes + 8 + (nthreads * 64)) ())
  in
  ignore
    (R.Sys.register sys ~name:"dss-queue"
       ~audit:(fun () -> Recovery.audit_of_pool (R.Dss.audit q))
       (fun () -> R.Dss.recover q)
      : int);
  let init = List.init init_nodes (fun k -> init_value (k + 1)) in
  List.iteri (fun k v -> R.Dss.enqueue q ~tid:(k mod nthreads) v) init;
  let attempted = Hashtbl.create 64 and enq_done = Hashtbl.create 64 in
  let deq_done = ref [] and failed = ref 0 and ops = ref 0 in
  let client tid () =
    let i = ref 0 in
    while true do
      (try
         if !i land 1 = 0 then begin
           let v = value ~tid !i in
           Hashtbl.replace attempted v ();
           R.Dss.prep_enqueue q ~tid v;
           R.Dss.exec_enqueue q ~tid;
           Hashtbl.replace enq_done v ()
         end
         else begin
           R.Dss.prep_dequeue q ~tid;
           let v = R.Dss.exec_dequeue q ~tid in
           if v = Queue_intf.empty_value then incr failed
           else deq_done := v :: !deq_done
         end;
         incr ops
       with
      | Machine.Killed as e -> raise e
      | _ -> incr failed);
      incr i
    done
  in
  let h_start = Heap.counters heap in
  ignore
    (Dssq_workload.Sim_throughput.run ~seed ~horizon_ns ~heap
       ~threads:(Array.init nthreads client)
       ~ops_done:(fun () -> !ops)
       ()
      : float);
  Sim.apply_crash heap ~evict_p:0.5 ~seed;
  (* Charged: reattach + resolves, then the first pair; the output check
     between them is not. *)
  let h0 = Heap.counters heap and c0 = Counting.copy counts in
  let rep = R.Sys.reattach sys in
  let resolved = List.init nthreads (fun tid -> R.Dss.resolve q ~tid) in
  let h1 = Heap.counters heap and c1 = Counting.copy counts in
  let held = R.Dss.to_list q in
  let violations = R.Dss.recovered_violations q in
  let h2 = Heap.counters heap and c2 = Counting.copy counts in
  let fresh = value ~tid:0 (1 lsl 31) in
  R.Dss.prep_enqueue q ~tid:0 fresh;
  R.Dss.exec_enqueue q ~tid:0;
  R.Dss.prep_dequeue q ~tid:0;
  let first = R.Dss.exec_dequeue q ~tid:0 in
  let h3 = Heap.counters heap in
  let d =
    Intf.Counters.add
      (Intf.Counters.diff ~after:h1 ~before:h0)
      (Intf.Counters.diff ~after:h3 ~before:h2)
  in
  let c =
    Counting.add
      (Counting.diff ~after:c1 ~before:c0)
      (Counting.diff ~after:counts ~before:c2)
  in
  let problems =
    check_values ~init ~attempted ~enq_done ~deq_done:!deq_done ~resolved ~held
    @ violations
    @ (if rep.Recovery.leaked_total > 0 then
         [ Printf.sprintf "%d node(s) leaked" rep.Recovery.leaked_total ]
       else [])
    @ (match held with
      | h :: _ when h <> first ->
          [ Printf.sprintf "first dequeue after restart gave %d, head was %d" first h ]
      | _ -> [])
    @ (if !failed > 0 then [ Printf.sprintf "%d client op(s) failed" !failed ] else [])
    @ if count then Counting.mismatches ~eager:true c d else []
  in
  {
    cost_ns = modelled_ns d;
    events = Intf.Counters.total d;
    sim_events = Intf.Counters.total (Intf.Counters.diff ~after:h3 ~before:h_start);
    counts = c;
    heap = d;
    problems = List.map (Printf.sprintf "crash seed %d: %s" seed) problems;
  }

let crash_seed_list seed =
  let rng = Random.State.make [| seed; 0xC4A5E |] in
  List.init crash_seeds (fun _ -> Random.State.bits rng)

(* ------------------------------------------------------------------ *)
(* Native restart.                                                      *)

module N = struct
  module Sys = Recovery.Make (Dssq_memory.Native)
  module Dss = Dssq_core.Dss_queue.Make (Dssq_memory.Native)
end

type native = {
  sys : N.Sys.t;
  q : N.Dss.t;
  model : int Queue.t;  (** expected contents, front first *)
  last : Queue_intf.resolved array;  (** expected resolve per client *)
  rng : Random.State.t;
  next : int array;
  mutable failed : int;
}

let build ~seed =
  let sys = N.Sys.create ~nthreads ~wal_lane_capacity:4096 () in
  let q =
    N.Dss.of_config ~wal:(N.Sys.wal sys) ~pool_id:(N.Sys.fresh_pool_id sys)
      (config ~capacity:native_capacity ())
  in
  ignore
    (N.Sys.register sys ~name:"dss-queue"
       ~audit:(fun () -> Recovery.audit_of_pool (N.Dss.audit q))
       (fun () -> N.Dss.recover q)
      : int);
  let model = Queue.create () in
  for k = 1 to init_nodes do
    N.Dss.enqueue q ~tid:(k mod nthreads) (init_value k);
    Queue.push (init_value k) model
  done;
  {
    sys;
    q;
    model;
    last = Array.make nthreads Queue_intf.Nothing;
    rng = Random.State.make [| seed; 0x57AE |];
    next = Array.make nthreads 0;
    failed = 0;
  }

let enq t ~tid v =
  N.Dss.prep_enqueue t.q ~tid v;
  N.Dss.exec_enqueue t.q ~tid;
  Queue.push v t.model;
  t.last.(tid) <- Queue_intf.Enq_done v

let deq t ~tid =
  N.Dss.prep_dequeue t.q ~tid;
  let v = N.Dss.exec_dequeue t.q ~tid in
  let want = Option.value ~default:Queue_intf.empty_value (Queue.take_opt t.model) in
  if v <> want then t.failed <- t.failed + 1;
  t.last.(tid) <-
    (if v = Queue_intf.empty_value then Queue_intf.Deq_empty else Queue_intf.Deq_done v);
  v

let fresh t ~tid =
  let i = t.next.(tid) in
  t.next.(tid) <- i + 1;
  value ~tid i

(* The seeded stream that fills the log before each restart.  It ends
   with the queue back at its seeded depth, so every restart recovers
   the same shape and the seed moves only the log's contents. *)
let stream t =
  let op f = try f () with _ -> t.failed <- t.failed + 1 in
  for _ = 1 to stream_ops do
    let tid = Random.State.int t.rng nthreads in
    op (fun () ->
        if Random.State.bool t.rng then enq t ~tid (fresh t ~tid)
        else ignore (deq t ~tid))
  done;
  while Queue.length t.model <> init_nodes do
    let tid = Random.State.int t.rng nthreads in
    op (fun () ->
        if Queue.length t.model < init_nodes then enq t ~tid (fresh t ~tid)
        else ignore (deq t ~tid))
  done

let setup ~seed =
  let t = build ~seed in
  stream t;
  t

let ms ns = ns /. 1e6
let span = Spans.with_span

(* One restart, through [Recovery.reattach] (untraced) or through the
   same steps called one by one under spans (traced). *)
let restart t ~traced =
  let replayed, leaked =
    if not traced then
      let rep = N.Sys.reattach t.sys in
      (rep.Recovery.replayed, rep.Recovery.leaked_total)
    else begin
      let records, _ =
        span "pmem.wal_replay" (fun () -> N.Sys.Wal.replay (N.Sys.wal t.sys))
      in
      ignore (span "core.in_flight" (fun () -> N.Sys.count_in_flight records) : int);
      ignore (span "pmem.roots_reattach" (fun () -> N.Sys.Roots.reattach (N.Sys.roots t.sys)) : int);
      span "core.recover" (fun () -> N.Dss.recover t.q);
      let audit = span "core.audit" (fun () -> Recovery.audit_of_pool (N.Dss.audit t.q)) in
      span "pmem.wal_truncate" (fun () -> N.Sys.Wal.truncate (N.Sys.wal t.sys));
      (List.length records, audit.Recovery.leaked)
    end
  in
  let resolved =
    List.init nthreads (fun tid -> span "core.resolve" (fun () -> N.Dss.resolve t.q ~tid))
  in
  let v = fresh t ~tid:0 in
  span "core.first_op" (fun () ->
      span "core.prep" (fun () -> N.Dss.prep_enqueue t.q ~tid:0 v);
      span "core.exec" (fun () -> N.Dss.exec_enqueue t.q ~tid:0);
      N.Dss.prep_dequeue t.q ~tid:0;
      ignore (N.Dss.exec_dequeue t.q ~tid:0 : int));
  (replayed, leaked, resolved, v)

(* What the restart must have produced; updates the model for the
   first pair. *)
let check_restart t (replayed, leaked, resolved, v) =
  let problems = ref (N.Dss.recovered_violations t.q) in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if leaked > 0 then problem "%d node(s) leaked" leaked;
  if replayed = 0 then problem "the log replayed nothing";
  List.iteri
    (fun tid r ->
      if r <> t.last.(tid) then
        problem "client %d resolved %s, expected %s" tid
          (Format.asprintf "%a" Queue_intf.pp_resolved r)
          (Format.asprintf "%a" Queue_intf.pp_resolved t.last.(tid)))
    resolved;
  Queue.push v t.model;
  t.last.(0) <- Queue_intf.Enq_done v;
  (match Queue.take_opt t.model with
  | Some head -> t.last.(0) <- Queue_intf.Deq_done head
  | None -> ());
  let held = N.Dss.to_list t.q and want = List.of_seq (Queue.to_seq t.model) in
  if held <> want then
    problem "queue holds %d value(s) after restart, expected %d" (List.length held)
      (List.length want);
  List.rev !problems

type native_run = {
  mutable restarts : int;
  walls : (float * float) list ref;  (** normalised ns, kernel ns/iter *)
  raws : float list ref;
  replays : float list ref;
  mutable errors : string list;
}

let native_runs t ~traced ~deadline =
  let r = { restarts = 0; walls = ref []; raws = ref []; replays = ref []; errors = [] } in
  (* The set-up ran the first stream; each later restart gets its own. *)
  let rec go () =
    (match Clock.timed (fun () -> span "bench.restart" (fun () -> restart t ~traced)) with
    | ((replayed, _, _, _) as out), raw, rf ->
        r.walls := (raw /. rf, rf) :: !(r.walls);
        r.raws := raw :: !(r.raws);
        r.replays := float_of_int replayed :: !(r.replays);
        r.errors <- r.errors @ check_restart t out
    | exception e ->
        t.failed <- t.failed + 1;
        r.errors <- r.errors @ [ "restart raised " ^ Printexc.to_string e ]);
    r.restarts <- r.restarts + 1;
    Clock.mark_first_unit ();
    stream t;
    if Clock.now () < deadline || r.restarts < 2 then go ()
  in
  go ();
  r

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~trace ~setup_reps : Metrics.result =
  let t, setup_s = Clock.setup_time setup_reps (fun () -> setup ~seed) in
  Clock.settle_heap ();
  let t0 = Clock.now () in
  let crashes = List.map (fun s -> modelled_restart ~seed:s ~count:false) (crash_seed_list seed) in
  let modelled_wall = Clock.now () - t0 in
  let crash_errors = List.concat_map (fun c -> c.problems) crashes in
  let costs = List.map (fun c -> c.cost_ns) crashes in
  let remaining = seconds -. (float_of_int modelled_wall /. 1e9) in
  let untraced_s = if trace then remaining /. 2. else remaining in
  let deadline s = Clock.now () + int_of_float (s *. 1e9) in
  Clock.settle_heap ();
  let u = native_runs t ~traced:false ~deadline:(deadline untraced_s) in
  let wall = Clock.median (Clock.quiet !(u.walls)) in
  Printf.printf
    "restart: %d modelled crashes, restart p50 %.2f / p99 %.2f modelled us; %d \
     native restarts, median %.3f ms raw, %.3f ref-ms over the quiet ones, \
     %.0f log records replayed; kernel %.3f ns/iter\n"
    crash_seeds
    (Clock.percentile costs 50. /. 1e3)
    (Clock.percentile costs 99. /. 1e3)
    u.restarts (ms (Clock.median !(u.raws))) (ms wall)
    (Clock.median !(u.replays))
    (Clock.median !Clock.ref_samples);
  let attempted = crash_seeds + u.restarts in
  let failed () = t.failed + List.length (List.filter (fun c -> c.problems <> []) crashes) in
  if not trace then
    {
      Metrics.attempted;
      failed = failed ();
      errors = crash_errors @ u.errors;
      values =
        [
          ("setup_s", setup_s);
          ("wall_ms", ms wall);
          ("op_p50_ns", Clock.percentile costs 50.);
          ("op_p99_ns", Clock.percentile costs 99.);
        ];
    }
  else begin
    let t1 = Clock.now () in
    let counted = List.map (fun s -> modelled_restart ~seed:s ~count:true) (crash_seed_list seed) in
    let counted_wall = Clock.now () - t1 in
    let same =
      List.for_all2 (fun a b -> a.cost_ns = b.cost_ns) crashes counted
    in
    Clock.reset_refs ();
    Clock.settle_heap ();
    Spans.on := true;
    let tr = native_runs t ~traced:true ~deadline:(deadline untraced_s) in
    Spans.on := false;
    let rf = Clock.median !Clock.ref_samples in
    let span_ms name = ms (Clock.median (Spans.durations name) /. rf) in
    let c = List.fold_left (fun acc x -> Counting.add acc x.counts) (Counting.zero ()) counted in
    let h =
      List.fold_left (fun acc x -> Intf.Counters.add acc x.heap) Intf.Counters.zero counted
    in
    let n = crash_seeds in
    let steps =
      [ "pmem.wal_replay"; "core.in_flight"; "pmem.roots_reattach"; "core.recover";
        "core.audit"; "pmem.wal_truncate"; "core.resolve"; "core.first_op" ]
    in
    (* The steps' share of the traced restarts, times the traced restart
       over the untraced one: the steps against the untraced restart,
       each side normalised by its own kernel samples. *)
    let share =
      List.fold_left (fun acc s -> acc +. fst (Spans.total s)) 0. steps
      /. fst (Spans.total "bench.restart")
    in
    let overhead = Clock.median (Clock.quiet !(tr.walls)) /. wall in
    Printf.printf
      "restart trace: the steps take %.1f %% of a traced restart; traced / \
       untraced restart %.3f; steps against the untraced restart %+.1f %%\n"
      (100. *. share) overhead
      (100. *. ((share *. overhead) -. 1.));
    {
      attempted = attempted + n + tr.restarts;
      failed = failed ();
      errors =
        crash_errors @ u.errors @ tr.errors
        @ List.concat_map (fun c -> c.problems) counted
        @ if same then [] else [ "the interposer changed the modelled restart" ];
      values =
        [
          ("core.prep_ns", Clock.median (Spans.durations "core.prep") /. rf);
          ("core.exec_ns", Clock.median (Spans.durations "core.exec") /. rf);
          ("core.resolve_ns", Clock.median (Spans.durations "core.resolve") /. rf);
          ("core.recover_ms", span_ms "core.recover");
          ("core.audit_ms", span_ms "core.audit");
          ("core.first_op_us", span_ms "core.first_op" *. 1e3);
          ("memory.reads_per_op", Metrics.per_op n c.reads);
          ("memory.writes_per_op", Metrics.per_op n c.writes);
          ("memory.cas_per_op", Metrics.per_op n c.cas);
          ("memory.fences_per_op", Metrics.per_op n c.fences);
          ("memory.pwrites_per_op", Metrics.per_op n (Counting.pwrites c));
          ("memory.drains_per_op", Metrics.per_op n c.drains);
          ("memory.flushes_per_op", Metrics.per_op n h.flushes);
          ("memory.elided_flushes_per_op", Metrics.per_op n h.elided_flushes);
          ("memory.cas_fail_ratio", Metrics.per_op c.cas c.cas_failed);
          ("pmem.wal_replay_ms", span_ms "pmem.wal_replay");
          ("pmem.wal_records_replayed", Clock.median !(tr.replays));
          ("pmem.roots_reattach_ms", span_ms "pmem.roots_reattach");
          ("pmem.wal_truncate_ms", span_ms "pmem.wal_truncate");
          ( "pmem.restart_events",
            Clock.median (List.map (fun c -> float_of_int c.events) counted) );
          ( "sim.events_per_wall_s",
            float_of_int (List.fold_left (fun a c -> a + c.sim_events) 0 counted)
            /. (float_of_int counted_wall /. 1e9) );
          ("bench.ref_ns_per_iter", rf);
          ("bench.ref_spread", Clock.spread !Clock.ref_samples);
          ("bench.trace_overhead", overhead);
        ];
    }
  end
