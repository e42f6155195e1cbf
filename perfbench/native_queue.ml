(* native-queue: the detectable DSS queue on the Native backend (eager,
   line size 1, no persist busy-wait), seeded with 16 nodes, one client
   on the main domain running detectable enqueue/dequeue pairs in a
   closed loop.  Measured in 4,096-op blocks with one clock read per op
   boundary; the reference kernel runs between blocks.

   Latency percentiles are taken per block, from its 4,096 raw samples
   (40 of them beyond the p99), and the run reports the median over its
   quiet blocks: a few blocks disturbed by the host moved a whole-run
   p99 by 10 % between runs, the median block's by a fraction of that. *)

module Intf = Dssq_memory.Memory_intf
module Queue_intf = Dssq_core.Queue_intf

let block = 4096
let warmup_ops = 200_000
let init_nodes = 16
let span_every = 64

(* Index of the nearest-rank [p]th percentile in a sorted block. *)
let rank p = (((block * p) + 99) / 100) - 1

module Client (M : Intf.S) = struct
  module Q = Dssq_core.Dss_queue.Make (M)

  type t = {
    q : Q.t;
    base : int;  (** seeded value offset *)
    mutable i : int;
    mutable enq_n : int;
    mutable enq_sum : int;
    mutable deq_n : int;
    mutable deq_sum : int;
    mutable failed : int;
  }

  let create ~seed =
    let q = Q.create ~nthreads:1 ~capacity:4096 () in
    let base = Random.State.int (Random.State.make [| seed; 0x9E11 |]) 1_000_000 in
    let t =
      { q; base; i = 0; enq_n = 0; enq_sum = 0; deq_n = 0; deq_sum = 0; failed = 0 }
    in
    for k = 1 to init_nodes do
      Q.enqueue q ~tid:0 (base + k);
      t.enq_n <- t.enq_n + 1;
      t.enq_sum <- t.enq_sum + base + k
    done;
    t

  let value t i = t.base + init_nodes + 1 + (i land 0xFFFFFF)

  let prep t i =
    if i land 1 = 0 then Q.prep_enqueue t.q ~tid:0 (value t i)
    else Q.prep_dequeue t.q ~tid:0

  let exec t i =
    if i land 1 = 0 then begin
      Q.exec_enqueue t.q ~tid:0;
      t.enq_n <- t.enq_n + 1;
      t.enq_sum <- t.enq_sum + value t i
    end
    else
      let v = Q.exec_dequeue t.q ~tid:0 in
      (* The client always enqueues before it dequeues, so the queue
         never drops below its 16 seeded nodes: EMPTY is a wrong
         answer. *)
      if v = Queue_intf.empty_value then t.failed <- t.failed + 1
      else begin
        t.deq_n <- t.deq_n + 1;
        t.deq_sum <- t.deq_sum + v
      end

  (* One closed-loop operation: the next one starts when this returns. *)
  let op t =
    let i = t.i in
    t.i <- i + 1;
    try
      prep t i;
      exec t i
    with _ -> t.failed <- t.failed + 1

  let op_traced t =
    let i = t.i in
    if i mod span_every <> 0 then op t
    else begin
      t.i <- i + 1;
      try
        Spans.with_span "bench.op" ~op:i (fun () ->
            Spans.with_span "core.prep" ~op:i (fun () -> prep t i);
            Spans.with_span "core.exec" ~op:i (fun () -> exec t i))
      with _ -> t.failed <- t.failed + 1
    end

  (* Count and value-sum conservation: what went in minus what came out
     is what the queue holds. *)
  let check t =
    let rest = Q.to_list t.q in
    let n = List.length rest and sum = List.fold_left ( + ) 0 rest in
    if n <> t.enq_n - t.deq_n || sum <> t.enq_sum - t.deq_sum then
      [
        Printf.sprintf
          "native-queue: conservation: %d in / %d out / %d held (sums %d / %d / %d)"
          t.enq_n t.deq_n n t.enq_sum t.deq_sum sum;
      ]
    else []

  (* One block, raw ns: its duration and its ops' p50 and p99; [rf] is
     the kernel's ns per iteration beside it. *)
  type block_stat = { raw : float; p50 : float; p99 : float; rf : float }
  type run = { mutable ops : int; mutable blocks : block_stat list }

  let new_run () = { ops = 0; blocks = [] }

  (* Closed-loop measurement until [deadline]: per-op durations from one
     clock read at each op boundary, normalised by the kernel samples
     on both sides of their block. *)
  let measure t ~step ~deadline r =
    let samples = Array.make block 0 in
    while Clock.now () < deadline do
      let r0 = Clock.current () in
      let t0 = Clock.now () in
      let prev = ref t0 in
      for k = 0 to block - 1 do
        step t;
        let x = Clock.now () in
        samples.(k) <- x - !prev;
        prev := x
      done;
      let rf = (r0 +. Clock.tick ()) /. 2. in
      Array.sort Int.compare samples;
      r.ops <- r.ops + block;
      r.blocks <-
        {
          raw = float_of_int (!prev - t0);
          p50 = float_of_int samples.(rank 50);
          p99 = float_of_int samples.(rank 99);
          rf;
        }
        :: r.blocks;
      Clock.mark_first_unit ()
    done

  (* Median over the quiet blocks of a normalised block statistic. *)
  let median_block r f =
    Clock.median (Clock.quiet (List.map (fun b -> (f b /. b.rf, b.rf)) r.blocks))
end

module Plain = Client (Dssq_memory.Native)

(* Build, seed and warm up one client: the set-up the metric times. *)
let setup ~seed =
  let c = Plain.create ~seed in
  for _ = 1 to warmup_ops do
    Plain.op c
  done;
  c

let run ~seed ~seconds ~trace ~setup_reps : Metrics.result =
  let c, setup_s = Clock.setup_time setup_reps (fun () -> setup ~seed) in
  let untraced_s = if trace then seconds /. 2. else seconds in
  let r = Plain.new_run () in
  Clock.settle_heap ();
  Plain.measure c ~step:Plain.op
    ~deadline:(Clock.now () + int_of_float (untraced_s *. 1e9))
    r;
  let errors = Plain.check c in
  let wall = Plain.median_block r (fun b -> b.raw) in
  let p50 = Plain.median_block r (fun b -> b.p50) in
  let p99 = Plain.median_block r (fun b -> b.p99) in
  let raw = Clock.median (List.map (fun (b : Plain.block_stat) -> b.raw) r.blocks) in
  Printf.printf
    "native-queue: %d ops in %d blocks of %d; median block %.0f ns raw (%.3f \
     Mops/s), %.0f ref-ns over the quiet blocks; their per-op p50 %.1f / p99 \
     %.1f ref-ns; kernel %.3f ns/iter\n"
    r.ops (List.length r.blocks) block raw
    (float_of_int block *. 1e3 /. raw)
    wall p50 p99 (Clock.median !Clock.ref_samples);
  if not trace then
    {
      Metrics.attempted = r.ops;
      failed = c.failed;
      errors;
      values =
        [
          ("setup_s", setup_s);
          ("wall_ms", wall /. 1e6);
          ("op_p50_ns", p50);
          ("op_p99_ns", p99);
        ];
    }
  else begin
    (* Traced phase: a second queue over the counting interposer over
       the counted backend, spans on every 64th op. *)
    let module Backend = Dssq_memory.Native.Counted () in
    let module Counter = Counting.Make (Backend) () in
    let module T = Client (Counter) in
    let tc = T.create ~seed in
    for _ = 1 to warmup_ops do
      T.op tc
    done;
    let c0 = Counting.copy Counter.counts and b0 = Backend.counters () in
    let tr = T.new_run () in
    Clock.reset_refs ();
    Clock.settle_heap ();
    Spans.on := true;
    T.measure tc ~step:T.op_traced
      ~deadline:(Clock.now () + int_of_float (seconds /. 2. *. 1e9))
      tr;
    Spans.on := false;
    let ic = Counting.diff ~after:Counter.counts ~before:c0 in
    let bc = Intf.Counters.diff ~after:(Backend.counters ()) ~before:b0 in
    let errors =
      errors @ T.check tc @ Counting.mismatches ~eager:true ic bc
    in
    let rf = Clock.median !Clock.ref_samples in
    let span_p50 name = Clock.median (Spans.durations name) /. rf in
    let ops = tr.ops in
    {
      attempted = r.ops + tr.ops;
      failed = c.failed + tc.failed;
      errors;
      values =
        [
          ("core.prep_ns", span_p50 "core.prep");
          ("core.exec_ns", span_p50 "core.exec");
          ("memory.reads_per_op", Metrics.per_op ops ic.reads);
          ("memory.writes_per_op", Metrics.per_op ops ic.writes);
          ("memory.cas_per_op", Metrics.per_op ops ic.cas);
          ("memory.flushes_per_op", Metrics.per_op ops bc.flushes);
          ("memory.elided_flushes_per_op", Metrics.per_op ops bc.elided_flushes);
          ("memory.fences_per_op", Metrics.per_op ops ic.fences);
          ("memory.pwrites_per_op", Metrics.per_op ops (Counting.pwrites ic));
          ("memory.drains_per_op", Metrics.per_op ops ic.drains);
          ("memory.cas_fail_ratio", Metrics.per_op ic.cas ic.cas_failed);
          ("bench.ref_ns_per_iter", rf);
          ("bench.ref_spread", Clock.spread !Clock.ref_samples);
          ( "bench.trace_overhead",
            T.median_block tr (fun b -> b.raw) /. wall );
        ];
    }
  end
