(* sim-queue-8t, sim-fc-8t, sim-register-rw: eight modelled threads on
   the simulated multiprocessor ([Dssq_workload.Sim_throughput]'s cost
   model), each a closed-loop client of one detectable object.  A run
   measures a fixed set of five scheduler seeds derived from --seed, 20 ms
   of modelled time each; the modelled numbers come from that set, and
   the set is repeated until --seconds is used up to sample the wall
   clock (the repeats must reproduce the modelled numbers exactly).

   Clients stop issuing at the 20 ms mark and finish the operation in
   hand, so every run ends quiescent and the outputs can be checked
   exactly. *)

module Intf = Dssq_memory.Memory_intf
module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Machine = Dssq_sim.Machine
module Sim_throughput = Dssq_workload.Sim_throughput
module Queue_intf = Dssq_core.Queue_intf
module Spec_queue = Dssq_spec.Specs.Queue

type kind = Queue | Fc | Register

let nthreads = 8
let seeds_per_set = 5
let stop_ns = 20e6
let warmup_stop_ns = 1e6

(* Modelled slack after the stop mark for in-flight operations; a client
   still running past it is a failed check. *)
let margin_ns = 1e6
let chunk = 1024
let batch = 8
let init_nodes = 16
let init_value k = (1 lsl 36) + k

(* Unique per client and operation, inside the register's 40-bit range. *)
let value ~tid i = (tid lsl 32) lor i

(* One object under test, as closures over the memory it was built on. *)
type obj = {
  prep : tid:int -> int -> unit;
  exec : tid:int -> int -> unit;
      (** op [i] of client [tid]; raises or counts a failure on a wrong
          answer *)
  after_op : int -> unit;  (** after op [i]: combine closes batch epochs *)
  finish : unit -> unit;
  check : unit -> string list;  (** quiescent output check *)
  fc_stats : unit -> int * int;  (** combining passes, ops folded *)
  wrong : int ref;  (** wrong answers *)
}

let no_fc () = (0, 0)

(* Enqueue on even ops, dequeue on odd: detectable pairs. *)
let queue_obj (module M : Intf.S) ~combine : obj =
  let enq_n = ref 0 and enq_sum = ref 0 and deq_n = ref 0 and deq_sum = ref 0 in
  let enqueued v =
    incr enq_n;
    enq_sum := !enq_sum + v
  in
  let wrong = ref 0 in
  let dequeued v =
    (* Each client enqueues before it dequeues, so the queue never
       drops below its seeded nodes: EMPTY is a wrong answer. *)
    if v = Queue_intf.empty_value then incr wrong
    else begin
      incr deq_n;
      deq_sum := !deq_sum + v
    end
  in
  let conservation held =
    let n = List.length held and sum = List.fold_left ( + ) 0 held in
    if n = !enq_n - !deq_n && sum = !enq_sum - !deq_sum then []
    else
      [
        Printf.sprintf
          "queue: conservation: %d in / %d out / %d held (sums %d / %d / %d)"
          !enq_n !deq_n n !enq_sum !deq_sum sum;
      ]
  in
  if not combine then begin
    let module Q = Dssq_core.Dss_queue.Make (M) in
    let q =
      Q.of_config
        (Queue_intf.config ~nthreads ~capacity:(init_nodes + 8 + (nthreads * 192)) ())
    in
    for k = 1 to init_nodes do
      Q.enqueue q ~tid:(k mod nthreads) (init_value k);
      enqueued (init_value k)
    done;
    {
      prep =
        (fun ~tid i ->
          if i land 1 = 0 then Q.prep_enqueue q ~tid (value ~tid i)
          else Q.prep_dequeue q ~tid);
      exec =
        (fun ~tid i ->
          if i land 1 = 0 then begin
            Q.exec_enqueue q ~tid;
            enqueued (value ~tid i)
          end
          else dequeued (Q.exec_dequeue q ~tid));
      after_op = ignore;
      finish = ignore;
      check = (fun () -> conservation (Q.to_list q));
      fc_stats = no_fc;
      wrong;
    }
  end
  else begin
    (* The engine queue the registry calls "dss-fc", instantiated here
       for its separate prep/exec and [peek]. *)
    let module Fcq =
      Dssq_core.Detectable.Make
        (struct
          type state = int list
          type op = Spec_queue.op
          type response = Spec_queue.response

          let spec = Spec_queue.spec ()
        end)
        (M)
    in
    let q = Fcq.create ~name:"fcq" ~combine:true ~nthreads () in
    for k = 1 to init_nodes do
      ignore (Fcq.base q ~tid:(k mod nthreads) (Spec_queue.Enqueue (init_value k)));
      enqueued (init_value k)
    done;
    {
      prep =
        (fun ~tid i ->
          Fcq.prep q ~tid
            (if i land 1 = 0 then Spec_queue.Enqueue (value ~tid i)
             else Spec_queue.Dequeue));
      exec =
        (fun ~tid i ->
          match (Fcq.exec q ~tid, i land 1) with
          | Spec_queue.Ok, 0 -> enqueued (value ~tid i)
          | Spec_queue.Value v, 1 -> dequeued v
          | Spec_queue.Empty, 1 -> dequeued Queue_intf.empty_value
          | _ -> incr wrong);
      (* Each client closes a persist epoch every [batch] pairs, as
         [Sim_throughput.measure_ex] does. *)
      after_op =
        (fun i -> if i land 1 = 1 && ((i / 2) + 1) mod batch = 0 then M.drain ());
      finish = M.drain;
      check = (fun () -> conservation (Fcq.peek q));
      fc_stats = (fun () -> Fcq.combining_stats q);
      wrong;
    }
  end

(* 90 % detectable reads, 10 % detectable writes, the mix seeded. *)
let register_obj (module M : Intf.S) ~seed : obj =
  let module Rg = Dssq_core.Dss_register.Make (M) in
  let init = init_value 0 in
  let r = Rg.create ~init ~nthreads () in
  let written = Hashtbl.create 4096 in
  Hashtbl.replace written init ();
  let is_write ~tid i = Hashtbl.hash (seed, tid, i) mod 10 = 0 in
  let wrong = ref 0 in
  {
    prep =
      (fun ~tid i ->
        if is_write ~tid i then begin
          (* Written before the write can take effect, so a read that
             sees it finds it here. *)
          Hashtbl.replace written (value ~tid i) ();
          Rg.prep_write r ~tid (value ~tid i)
        end
        else Rg.prep_read r ~tid);
    exec =
      (fun ~tid i ->
        if is_write ~tid i then Rg.exec_write r ~tid
        else
          let v = Rg.exec_read r ~tid in
          if not (Hashtbl.mem written v) then incr wrong);
    after_op = ignore;
    finish = ignore;
    check =
      (fun () ->
        let v = Rg.read r ~tid:0 in
        if Hashtbl.mem written v then []
        else [ Printf.sprintf "register: final value %d was never written" v ]);
    fc_stats = no_fc;
    wrong;
  }

(* What one set of seed runs measured. *)
type acc = {
  lat : Clock.Samples.t;  (** modelled ns per op *)
  prep : Clock.Samples.t;  (** traced runs only, as [exec] *)
  exec : Clock.Samples.t;
  mutable ops : int;
  mutable in_window : int;  (** ops completed by the stop mark *)
  mutable lat_sum : float;  (** determinism digest *)
  mutable failed : int;
  mutable errors : string list;
  mutable chunk_ops : int;
  mutable chunk_t0 : int;
  mutable chunk_r0 : float;
  chunks : (float * float) list ref;
      (** normalised wall ns per simulated op, kernel ns/iter beside it *)
  raw_chunks : float list ref;
  mutable wall_ns : int;
  mutable events : int;
  mutable busy_ns : float;  (** modelled busy time, sum count x cost *)
  mutable thread_ns : float;  (** modelled time of all clients *)
  mutable fc : int * int;
  mutable counts : Counting.counts;
  mutable heap_counts : Intf.counters;
}

let new_acc () =
  {
    lat = Clock.Samples.create ();
    prep = Clock.Samples.create ();
    exec = Clock.Samples.create ();
    ops = 0;
    in_window = 0;
    lat_sum = 0.;
    failed = 0;
    errors = [];
    chunk_ops = 0;
    chunk_t0 = 0;
    chunk_r0 = nan;
    chunks = ref [];
    raw_chunks = ref [];
    wall_ns = 0;
    events = 0;
    busy_ns = 0.;
    thread_ns = 0.;
    fc = (0, 0);
    counts = Counting.zero ();
    heap_counts = Intf.Counters.zero;
  }

(* Wall time of every [chunk] completed simulated ops, normalised by the
   reference kernel on both sides; the kernel's own time is excluded. *)
let completed acc =
  acc.chunk_ops <- acc.chunk_ops + 1;
  if acc.chunk_ops = chunk then begin
    let raw = float_of_int (Clock.now () - acc.chunk_t0) /. float_of_int chunk in
    let r1 = Clock.tick () in
    let rf = (acc.chunk_r0 +. r1) /. 2. in
    acc.chunks := (raw /. rf, rf) :: !(acc.chunks);
    acc.raw_chunks := raw :: !(acc.raw_chunks);
    acc.chunk_ops <- 0;
    acc.chunk_r0 <- r1;
    acc.chunk_t0 <- Clock.now ()
  end

let busy_cost ~eager (c : Counting.counts) (h : Intf.counters) =
  let k = Sim_throughput.default_costs in
  let f = float_of_int in
  (f c.reads *. k.read_ns) +. (f c.writes *. k.write_ns) +. (f c.cas *. k.cas_ns)
  +. (f c.fences *. k.fence_ns)
  +. (if eager then f h.flushes *. k.flush_ns
      else f (c.flushes - h.elided_flushes) *. k.flush_issue_ns)
  +. (f nthreads *. k.work_ns (* each client's first step *))

(* One seed run on a fresh heap.  [count] builds the object over the
   counting interposer (traced runs). *)
let run_seed kind ~seed ~sched_seed ~stop ~count acc =
  let combine = kind = Fc in
  let heap = Heap.create ~line_size:1 ~combine () in
  let (module M0) = Sim.memory heap in
  let counts, mem =
    if count then
      let module C = Counting.Make (M0) () in
      (C.counts, (module C : Intf.S))
    else (Counting.zero (), (module M0 : Intf.S))
  in
  let o =
    match kind with
    | Queue -> queue_obj mem ~combine:false
    | Fc -> queue_obj mem ~combine:true
    | Register -> register_obj mem ~seed
  in
  (* Seeding may leave buffered flushes under combine: start clean. *)
  if combine then Heap.drain heap;
  let c0 = Counting.copy counts and h0 = Heap.counters heap in
  let clock = ref (fun (_ : int) -> 0.) in
  let finished = Array.make nthreads nan in
  let client tid () =
    let now () = !clock tid in
    let i = ref 0 in
    while now () < stop do
      let t0 = now () in
      (try
         o.prep ~tid !i;
         let t1 = now () in
         o.exec ~tid !i;
         let t2 = now () in
         Clock.Samples.add acc.lat (t2 -. t0);
         if count then begin
           Clock.Samples.add acc.prep (t1 -. t0);
           Clock.Samples.add acc.exec (t2 -. t1)
         end;
         acc.lat_sum <- acc.lat_sum +. (t2 -. t0);
         acc.ops <- acc.ops + 1;
         if t2 <= stop then acc.in_window <- acc.in_window + 1;
         completed acc;
         o.after_op !i
       with
      | Machine.Killed as e -> raise e
      | _ -> acc.failed <- acc.failed + 1);
      incr i
    done;
    o.finish ();
    finished.(tid) <- now ()
  in
  acc.chunk_ops <- 0;
  acc.chunk_r0 <- Clock.current ();
  let t0 = Clock.now () in
  acc.chunk_t0 <- t0;
  Spans.with_span "sim.run" ~op:sched_seed (fun () ->
      ignore
        (Sim_throughput.run ~seed:sched_seed ~clock ~horizon_ns:(stop +. margin_ns)
           ~heap ~threads:(Array.init nthreads client)
           ~ops_done:(fun () -> acc.ops)
           ()
          : float));
  acc.wall_ns <- acc.wall_ns + (Clock.now () - t0);
  let h = Intf.Counters.diff ~after:(Heap.counters heap) ~before:h0 in
  let c = Counting.diff ~after:counts ~before:c0 in
  acc.failed <- acc.failed + !(o.wrong);
  let unfinished =
    Array.to_list finished |> List.filter Float.is_nan |> List.length
  in
  acc.errors <-
    acc.errors
    @ (if unfinished > 0 then
         [ Printf.sprintf "%d client(s) still running %.0f ns past the stop mark"
             unfinished margin_ns ]
       else [])
    @ o.check ()
    @ if count then Counting.mismatches ~eager:(not combine) c h else [];
  acc.events <- acc.events + Intf.Counters.total h;
  acc.counts <- Counting.add acc.counts c;
  acc.heap_counts <- Intf.Counters.add acc.heap_counts h;
  acc.busy_ns <- acc.busy_ns +. busy_cost ~eager:(not combine) c h;
  acc.thread_ns <- acc.thread_ns +. Array.fold_left ( +. ) 0. finished;
  let b, f = o.fc_stats () in
  acc.fc <- (fst acc.fc + b, snd acc.fc + f)

let sched_seeds seed =
  let rng = Random.State.make [| seed; 0x5EED5 |] in
  List.init seeds_per_set (fun _ -> Random.State.bits rng)

let run_set kind ~seed ~count =
  let acc = new_acc () in
  List.iter
    (fun s -> run_seed kind ~seed ~sched_seed:s ~stop:stop_ns ~count acc)
    (sched_seeds seed);
  acc

(* Sets while another fits before the deadline (at least one); the
   first one's modelled numbers stand, every later one must reproduce
   them. *)
let run_sets kind ~seed ~count ~deadline =
  let t0 = Clock.now () in
  let first = run_set kind ~seed ~count in
  Clock.mark_first_unit ();
  let set_ns = Clock.now () - t0 in
  (* Later sets keep only their wall-clock chunks. *)
  let rec more n chunks raw =
    if Clock.now () + set_ns > deadline then (n, chunks, raw)
    else
      let a = run_set kind ~seed ~count in
      if a.ops <> first.ops || a.lat_sum <> first.lat_sum then
        first.errors <-
          first.errors
          @ [ Printf.sprintf "repeat set modelled %d ops / %.0f ns, first %d / %.0f"
                a.ops a.lat_sum first.ops first.lat_sum ];
      first.failed <- first.failed + a.failed;
      first.errors <- first.errors @ a.errors;
      more (n + 1) (!(a.chunks) @ chunks) (!(a.raw_chunks) @ raw)
  in
  let n, chunks, raw = more 1 !(first.chunks) !(first.raw_chunks) in
  (first, n, chunks, raw)

let name = function
  | Queue -> "sim-queue-8t"
  | Fc -> "sim-fc-8t"
  | Register -> "sim-register-rw"

let run kind ~seed ~seconds ~trace ~setup_reps : Metrics.result =
  let (), setup_s =
    Clock.setup_time setup_reps (fun () ->
        run_seed kind ~seed ~sched_seed:seed ~stop:warmup_stop_ns ~count:false
          (new_acc ()))
  in
  let untraced_s = if trace then seconds /. 2. else seconds in
  let deadline s = Clock.now () + int_of_float (s *. 1e9) in
  Clock.settle_heap ();
  let a, nsets, chunks, raw = run_sets kind ~seed ~count:false ~deadline:(deadline untraced_s) in
  let modelled_mops =
    float_of_int a.in_window /. (float_of_int seeds_per_set *. stop_ns /. 1e3)
  in
  let wall = Clock.median (Clock.quiet chunks) in
  Printf.printf
    "%s: %d modelled ops over %d seeds x %.0f ms (%.4f modelled Mops/s), p50 \
     %.1f / p99 %.1f modelled ns; %d set(s), %d wall chunks of %d ops, median \
     %.3f us raw, %.3f ref-us over the quiet chunks per simulated op; kernel \
     %.3f ns/iter\n"
    (name kind) a.ops seeds_per_set (stop_ns /. 1e6) modelled_mops
    (Clock.Samples.percentile a.lat 50.) (Clock.Samples.percentile a.lat 99.) nsets
    (List.length chunks) chunk (Clock.median raw /. 1e3) (wall /. 1e3)
    (Clock.median !Clock.ref_samples);
  let attempted = a.ops * nsets in
  if not trace then
    {
      Metrics.attempted;
      failed = a.failed;
      errors = a.errors;
      values =
        [
          ("setup_s", setup_s);
          (* wall per 1,000 simulated ops *)
          ("wall_ms", wall /. 1e3);
          ("op_p50_ns", Clock.Samples.percentile a.lat 50.);
          ("op_p99_ns", Clock.Samples.percentile a.lat 99.);
        ];
    }
  else begin
    Clock.reset_refs ();
    Clock.settle_heap ();
    Spans.on := true;
    let t, tsets, tchunks, _ =
      run_sets kind ~seed ~count:true ~deadline:(deadline (seconds /. 2.))
    in
    Spans.on := false;
    let errors =
      a.errors @ t.errors
      @
      if t.ops <> a.ops || t.lat_sum <> a.lat_sum then
        [ "the interposer changed the modelled run" ]
      else []
    in
    let ops = t.ops and c = t.counts and h = t.heap_counts in
    let batches, folded = t.fc in
    {
      attempted = attempted + (t.ops * tsets);
      failed = a.failed + t.failed;
      errors;
      values =
        [
          ("core.prep_ns", Clock.Samples.percentile t.prep 50.);
          ("core.exec_ns", Clock.Samples.percentile t.exec 50.);
          ("core.fc_ops_per_batch", Metrics.per_op batches folded);
          ("memory.reads_per_op", Metrics.per_op ops c.reads);
          ("memory.writes_per_op", Metrics.per_op ops c.writes);
          ("memory.cas_per_op", Metrics.per_op ops c.cas);
          ("memory.flushes_per_op", Metrics.per_op ops h.flushes);
          ("memory.elided_flushes_per_op", Metrics.per_op ops h.elided_flushes);
          ("memory.fences_per_op", Metrics.per_op ops c.fences);
          ("memory.pwrites_per_op", Metrics.per_op ops (Counting.pwrites c));
          ("memory.drains_per_op", Metrics.per_op ops c.drains);
          ("memory.cas_fail_ratio", Metrics.per_op c.cas c.cas_failed);
          ("pmem.coalesced_flushes_per_op", Metrics.per_op ops h.coalesced_flushes);
          ("pmem.elided_fences_per_op", Metrics.per_op ops h.elided_fences);
          ( "sim.events_per_wall_s",
            float_of_int t.events /. (float_of_int t.wall_ns /. 1e9) );
          ("sim.modelled_wait_share", 1. -. (t.busy_ns /. t.thread_ns));
          ("bench.ref_ns_per_iter", Clock.median !Clock.ref_samples);
          ("bench.ref_spread", Clock.spread !Clock.ref_samples);
          ("bench.trace_overhead", Clock.median (Clock.quiet tchunks) /. wall);
        ];
    }
  end
