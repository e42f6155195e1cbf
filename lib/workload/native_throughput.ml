(** Wall-clock throughput harness over real OCaml domains and the native
    [Atomic.t] backend with the calibrated persist cost.

    This is the harness to use on a machine with at least as many cores
    as threads.  The reference host has two cores, so the shipped
    figures come from {!Sim_throughput} instead; this harness still runs
    there (domains timeslice), which is exercised by the test suite with
    small parameters.

    Instrumentation (memory-event counters, latency histograms) is a
    backend/worker selection made here in the harness: the uninstrumented
    path runs the plain [Native] backend and the original worker loop,
    bit-for-bit, so enabling the observability layer elsewhere costs
    measured runs nothing.  Every policy but [Eager] selects a buffered
    {!Native.Make} backend, which is always counted — the
    coalesced/elided event totals are the point of running it. *)

module MI = Dssq_memory.Memory_intf
module Native = Dssq_memory.Native

let now () = Unix.gettimeofday ()

(* How many enqueue/dequeue pairs a worker runs between polls of the
   [stop] flag.  Polling a shared atomic every pair puts a cross-core
   load on the hottest path of every thread; once per batch is invisible
   to the flag's latency (a batch is microseconds) and keeps the flag's
   line out of the steady-state loop. *)
let stop_check_period = 32

(* Busy-wait for [cond] with exponential backoff around
   [Domain.cpu_relax]: on an oversubscribed machine (more domains than
   cores — eight domains on a 2-core host) a tight relax loop starves the
   very thread that would make [cond] true.  Doubling the relax burst up
   to a cap keeps the barrier responsive when cores are free and cheap
   when they are not. *)
let backoff_until cond =
  let spins = ref 1 in
  while not (cond ()) do
    for _ = 1 to !spins do
      Domain.cpu_relax ()
    done;
    if !spins < 1024 then spins := !spins * 2
  done

(** Spawn [nthreads] domains alternating enqueue/dequeue pairs on [ops]
    for [duration] seconds.  Returns (Mops/s, completed operations,
    per-thread latency histograms when [instrument]). *)
let run_workers ?(instrument = false) ?epoch ~nthreads ~det_pct ~duration
    (ops : Dssq_core.Queue_intf.ops) =
  let start = Atomic.make false in
  let stop = Atomic.make false in
  let hists =
    if instrument then
      Some (Array.init nthreads (fun _ -> Dssq_obs.Histogram.create ()))
    else None
  in
  let worker tid () =
    backoff_until (fun () -> Atomic.get start);
    let count = ref 0 in
    let i = ref 0 in
    let pair =
      match hists with
      | None ->
          fun () ->
            let detectable = Sim_throughput.detectable ~det_pct !i in
            let v = (tid * 1_000_000) + (!i land 0xFFFF) in
            if detectable then begin
              ops.d_enqueue ~tid v;
              ignore (ops.d_dequeue ~tid)
            end
            else begin
              ops.enqueue ~tid v;
              ignore (ops.dequeue ~tid)
            end;
            (* Flat-combining batch epoch: close the domain's persist
               buffer every [k] pairs (combine mode only). *)
            (match epoch with
            | Some (k, drain) when (!i + 1) mod k = 0 -> drain ()
            | _ -> ());
            count := !count + 2;
            incr i
      | Some hs ->
          let h = hs.(tid) in
          let timed f =
            let t0 = now () in
            f ();
            Dssq_obs.Histogram.add h ((now () -. t0) *. 1e9)
          in
          fun () ->
            let detectable = Sim_throughput.detectable ~det_pct !i in
            let v = (tid * 1_000_000) + (!i land 0xFFFF) in
            if detectable then begin
              timed (fun () -> ops.d_enqueue ~tid v);
              timed (fun () -> ignore (ops.d_dequeue ~tid))
            end
            else begin
              timed (fun () -> ops.enqueue ~tid v);
              timed (fun () -> ignore (ops.dequeue ~tid))
            end;
            (match epoch with
            | Some (k, drain) when (!i + 1) mod k = 0 -> drain ()
            | _ -> ());
            count := !count + 2;
            incr i
    in
    while not (Atomic.get stop) do
      for _ = 1 to stop_check_period do
        pair ()
      done
    done;
    !count
  in
  let domains = Array.init nthreads (fun tid -> Domain.spawn (worker tid)) in
  let t0 = now () in
  Atomic.set start true;
  Unix.sleepf duration;
  Atomic.set stop true;
  let total = Array.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  let elapsed = now () -. t0 in
  (float_of_int total /. elapsed /. 1e6, total, hists)

(** Run [nthreads] domains alternating enqueue/dequeue pairs on a fresh
    queue for [duration] seconds.  [line_size] reconfigures the native
    backend's process-wide line allocator before the queue is built (1,
    the default, is the legacy word-granular model).  With
    [instrument:true] the queue is built over a counted copy of the
    native backend (a fresh [Native.Counted ()] instance, so concurrent
    measurements don't share counters) and each thread records
    wall-clock per-operation latency; events exclude queue seeding.
    Under any [policy] but [Eager] the queue runs over a fresh
    [Native.Make] instance under that policy — per-domain persist
    buffers, one drain per persistence point — whose counters are always
    reported.
    [det_pct] is as in {!Sim_throughput.pair_worker}. *)
let measure ?(init_nodes = 16) ?(det_pct = 100) ?(line_size = 1)
    ?(policy = MI.Policy.Eager) ?(batch = 8) ?(instrument = false) ~mk
    ~nthreads ~duration () : Dssq_obs.Run_report.sample =
  let capacity = init_nodes + 8 + (nthreads * 4096) in
  let cfg =
    Dssq_core.Queue_intf.config ~line_size ~policy ~nthreads ~capacity ()
  in
  Native.set_line_size line_size;
  if (not instrument) && policy = MI.Policy.Eager then begin
    let ops = Registry.setup (module Native) ~mk ~init_nodes cfg in
    let mops, total, _ = run_workers ~nthreads ~det_pct ~duration ops in
    {
      Dssq_obs.Run_report.mops;
      ops = total;
      events = MI.Counters.zero;
      latency = None;
    }
  end
  else begin
    let module Run (C : MI.COUNTED with type 'a cell = 'a Native.cell) = struct
      let result =
        let ops = Registry.setup (module C) ~mk ~init_nodes cfg in
        C.drain () (* close any seeding-time persist buffer *);
        C.reset_counters ();
        let epoch =
          if policy = Combine then Some (max 1 batch, fun () -> C.drain ())
          else None
        in
        let mops, total, hists =
          run_workers ~instrument ?epoch ~nthreads ~det_pct ~duration ops
        in
        let latency =
          Option.map
            (fun hs ->
              Array.fold_left Dssq_obs.Histogram.merge
                (Dssq_obs.Histogram.create ())
                hs)
            hists
        in
        {
          Dssq_obs.Run_report.mops;
          ops = total;
          events = C.counters ();
          latency;
        }
    end in
    let module B =
      Native.Make
        (struct
          let policy = policy
        end)
        ()
    in
    let module R = Run (B) in
    R.result
  end

(** NUMA-ish padding-stride sweep: measure one implementation across
    isolation strides for the hot [Isolated]-placement cells (queue
    head/tail, announce words).  On a real multi-socket machine the
    right stride is an empirical trade — too small false-shares the hot
    words across domains, too large wastes cache reach — and with
    the combine policy the persist traffic is batched, so the stride's
    false-sharing component dominates what remains.  Returns
    [(pad_words, Mops/s)] per stride; the process-wide stride is
    restored to the default afterwards. *)
let pad_sweep ?(pads = [ 0; 2; 6; 14; 30 ]) ?init_nodes ?det_pct ?line_size
    ?policy ?batch ~mk ~nthreads ~duration () =
  Fun.protect
    ~finally:(fun () -> Native.set_pad_words MI.Padded.pad_words)
    (fun () ->
      List.map
        (fun pad ->
          Native.set_pad_words pad;
          ( pad,
            (measure ?init_nodes ?det_pct ?line_size ?policy ?batch ~mk
               ~nthreads ~duration ())
              .Dssq_obs.Run_report.mops ))
        pads)
