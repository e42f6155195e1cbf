(** Discrete-event throughput model: the "simulated multiprocessor" on
    which the Figure 5 scalability curves are regenerated.

    Rationale (see DESIGN.md): the paper measures wall-clock throughput
    of 1-20 hardware threads on a 20-core Xeon with Optane memory.  On a
    host with a few cores (the reference host has two), real domains
    cannot exhibit 20-thread scaling; instead we run the {e same
    algorithm code} on the simulator and charge each memory event a
    latency drawn from published costs of the corresponding x86/Optane
    operation.  Threads progress on private clocks; the scheduler
    always steps the thread with the smallest clock, which models
    independent cores — the only coupling between threads is through
    the shared words themselves, so contention (failed CAS -> retry ->
    more charged time) and helping emerge exactly where the real machine
    has them, and throughput saturates at the queue's head/tail
    serialization just as in the paper.

    A deterministic per-step jitter (a few percent, seeded) breaks the
    artificial lockstep that identical integer costs would otherwise
    produce. *)

open Dssq_pmem
open Dssq_sim

type costs = {
  read_ns : float;
  write_ns : float;
  cas_ns : float;
  flush_ns : float;
  fence_ns : float;
  work_ns : float;  (** charged at thread-local compute points (Yield) *)
  cas_fail_line_ns : float;
      (** line occupancy of a failed CAS: the requester still grabs the
          line (RFO) but releases it quickly, so a retry storm wastes
          less line bandwidth than a stream of successful updates *)
  transfer_ns : float;
      (** extra latency when the line's previous owner is another thread
          (cross-core transfer); repeated access by one thread is a cache
          hit and pays nothing *)
  flush_issue_ns : float;
      (** issue latency of an {e asynchronous} (coalesced) flush: the
          CLWB enters the store pipeline and the thread moves on; the
          device round-trip ([flush_ns]) completes in the background and
          is only waited on at the next drain/fence *)
}

(** Rough latencies of the modelled machine: cache-hit loads/stores, a
    locked CAS, and a CLWB+sfence pair against Optane DCPMM. *)
let default_costs =
  {
    read_ns = 12.;
    write_ns = 18.;
    cas_ns = 45.;
    flush_ns = 140.;
    fence_ns = 25.;
    work_ns = 30.;
    cas_fail_line_ns = 15.;
    transfer_ns = 80.;
    flush_issue_ns = 25.;
  }

let cost_of costs (kind : Sim_op.kind) =
  match kind with
  | Sim_op.Read -> costs.read_ns
  | Sim_op.Write -> costs.write_ns
  | Sim_op.Cas -> costs.cas_ns
  | Sim_op.Flush -> costs.flush_ns
      (* on a buffered heap: the async round-trip latency; the issue
         stall is flush_issue_ns *)
  | Sim_op.Drain -> 0. (* a drain only waits; see the stepping loop *)
  | Sim_op.Fence -> costs.fence_ns
  | Sim_op.Yield -> costs.work_ns

(* [a] copied into a fresh array of [size] slots, the rest [fill]. *)
let grow a size fill =
  let b = Array.make size fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(** Run [threads] (infinite-loop workers) on [heap] until every thread's
    private clock passes [horizon_ns] of simulated time; returns the
    value of [ops_done] divided by the simulated seconds, in operations
    per second.

    Cache-line contention model: line identity comes from the heap's
    {!Dssq_memory.Memory_intf.Line} placement ([Machine.next_line] is
    the persist-line id), so the contention unit here and the
    persistence unit in the heap are one and the same module — at line
    size 1 every word is its own line, the original model.  Every
    write-class access (store, CAS, flush) to a line needs exclusive
    ownership of it, so such accesses {e serialize} per line — an access
    starts no earlier than the line's previous owner finished.  Loads
    wait for the line to be free but can then share it.  An {e elided}
    flush (clean line, size >= 2) costs nothing: there is no write-back
    to wait on.  This is what makes throughput peak and
    then degrade under contention on the queue's head and tail words,
    exactly as on the paper's testbed: at high thread counts the line
    ping-pong (mostly failed-CAS traffic) dominates, and the per-thread
    flush costs that separate the variants at low thread counts are
    hidden behind it, so the curves converge (Figure 5a). *)
let run ?(costs = default_costs) ?(seed = 1) ?clock ~horizon_ns ~heap ~threads
    ~ops_done () =
  let machine = Machine.create heap (Array.to_list threads) in
  let buffered = Heap.policy heap <> Dssq_memory.Memory_intf.Policy.Eager in
  let n = Array.length threads in
  let clocks = Array.make n 0. in
  (* Expose the private clocks to instrumented workers (they read their
     own simulated time around each operation). *)
  (match clock with
  | Some r -> r := fun tid -> clocks.(tid)
  | None -> ());
  (* Per line, indexed by the heap's dense line id: the time it becomes
     free, and its last owning thread (-1: never owned, which costs like
     one's own line).  Lines allocated during the run grow the tables. *)
  let line_free = ref (Array.make (max 1 heap.Heap.line_count) 0.) in
  let line_owner = ref (Array.make (max 1 heap.Heap.line_count) (-1)) in
  (* per thread: completion time of its outstanding asynchronous
     (coalesced) flushes — the drain/fence that retires them waits for
     this instead of paying per-flush round-trips *)
  let pending_done = Array.make n 0. in
  let rng = Random.State.make [| seed; 0xD15C |] in
  heap.Heap.in_sim <- true;
  Fun.protect
    ~finally:(fun () -> heap.Heap.in_sim <- false)
    (fun () ->
      let continue_run = ref true in
      while !continue_run do
        (* The runnable thread with the smallest clock below the horizon
           steps next; ties go to the lowest id. *)
        let tid = ref (-1) and earliest = ref horizon_ns in
        for i = 0 to n - 1 do
          let c = clocks.(i) in
          if c < !earliest && Machine.is_runnable machine i then begin
            tid := i;
            earliest := c
          end
        done;
        if !tid < 0 then continue_run := false
        else begin
          let tid = !tid in
          let kind = Machine.next_kind machine tid in
          let line = Machine.next_line machine tid in
          Machine.step machine tid;
          let jitter = 0.95 +. Random.State.float rng 0.1 in
          let cost = cost_of costs kind *. jitter in
          if line >= Array.length !line_free then begin
            (* Every line id belongs to this heap, so [line_count]
               covers it. *)
            let size =
              max (2 * Array.length !line_free) heap.Heap.line_count
            in
            line_free := grow !line_free size 0.;
            line_owner := grow !line_owner size (-1)
          end;
          (* The line's state, for the events that target one: when it
             becomes free, and the cross-core transfer owed if another
             thread owned it last. *)
          let free = if line < 0 then 0. else !line_free.(line) in
          let transfer =
            if line < 0 then 0.
            else
              let owner = !line_owner.(line) in
              if owner = tid || owner < 0 then 0. else costs.transfer_ns
          in
          match kind with
          | Sim_op.Flush when Machine.flush_elided machine ->
              (* Clean line: the CLWB has nothing to write back.  No
                 device round-trip, no line occupancy — free. *)
              ()
          | Sim_op.Write | Sim_op.Cas ->
              (* Exclusive access (RFO): wait for the line, pay a
                 cross-core transfer if another thread owned it, then
                 own it — briefly for a failed CAS (the requester grabs
                 the line but releases it without a lasting update),
                 for the full update latency otherwise.  Outstanding
                 coalesced flushes do NOT stall the store: the heap's
                 auto-drain orders the write-backs before the store
                 semantically, but the timing model treats them as an
                 ordered background queue (the delay-free batching of
                 Ben-David et al.) — only an explicit drain/fence waits
                 for completions. *)
              let start = Float.max clocks.(tid) free +. transfer in
              let line_cost =
                if Machine.cas_failed machine then
                  costs.cas_fail_line_ns *. jitter
                else cost
              in
              clocks.(tid) <- start +. cost;
              !line_free.(line) <- start +. line_cost;
              !line_owner.(line) <- tid
          | Sim_op.Flush when buffered ->
              (* Buffered flush: the CLWB issues (short pipeline
                 stall) and its device round-trip completes in the
                 background — only the eventual drain/fence waits on
                 it.  Like an eager CLWB it does not take ownership. *)
              let start = Float.max clocks.(tid) free +. transfer in
              clocks.(tid) <- start +. (costs.flush_issue_ns *. jitter);
              pending_done.(tid) <- Float.max pending_done.(tid) (start +. cost)
          | Sim_op.Read | Sim_op.Flush ->
              (* Loads share the line after the owner is done (paying a
                 transfer if it moved cores); CLWB writes back without
                 invalidating, so it stalls the issuing thread for the
                 device round-trip but does not take ownership. *)
              clocks.(tid) <-
                Float.max clocks.(tid) free +. transfer +. cost
          | Sim_op.Drain ->
              (* Wait for the outstanding CLWBs to complete; the
                 barrier itself overlaps the wait (no separate fence
                 charge — that is exactly the elided-fences win). *)
              clocks.(tid) <- Float.max clocks.(tid) pending_done.(tid);
              pending_done.(tid) <- 0.
          | Sim_op.Fence ->
              (* An sfence additionally retires outstanding CLWBs (the
                 heap folds the drain into it). *)
              clocks.(tid) <-
                Float.max (clocks.(tid) +. cost) pending_done.(tid);
              pending_done.(tid) <- 0.
          | Sim_op.Yield -> clocks.(tid) <- clocks.(tid) +. cost
        end
      done;
      Machine.kill_all machine);
  float_of_int (ops_done ()) /. (horizon_ns /. 1e9)

(** [detectable ~det_pct i] spreads detectable operation pairs evenly so
    that exactly [det_pct] percent of pairs are detectable — the
    "detectability on demand" knob that DSS offers and NRL-style
    definitions cannot (every operation is detectable there). *)
let detectable ~det_pct i =
  ((i + 1) * det_pct / 100) - (i * det_pct / 100) > 0

(** Worker that alternates enqueue/dequeue pairs forever — the workload
    of Section 4 — bumping [counter] once per completed operation.
    [det_pct] = 100 makes every pair detectable (Figure 5b / "DSS queue
    detectable"), 0 none (non-detectable / MS queue). *)
let pair_worker ?epoch (ops : Dssq_core.Queue_intf.ops) ~tid ~counter ~det_pct
    () =
  let i = ref 0 in
  while true do
    let detectable = detectable ~det_pct !i in
    let v = (tid * 1_000_000) + (!i land 0xFFFF) in
    if detectable then begin
      ops.d_enqueue ~tid v;
      incr counter;
      ignore (ops.d_dequeue ~tid);
      incr counter
    end
    else begin
      ops.enqueue ~tid v;
      incr counter;
      ignore (ops.dequeue ~tid);
      incr counter
    end;
    (* Flat-combining batch epoch: under the combine policy the objects leave
       their flushes in the per-thread persist buffer; the driver closes
       the epoch (one drain) every [k] operation pairs.  A no-op when
       the buffer is already empty (engine combiners drain per batch). *)
    (match epoch with
    | Some (k, drain) when (!i + 1) mod k = 0 -> drain ()
    | _ -> ());
    incr i
  done

(** Like {!pair_worker}, but reads the thread's simulated clock around
    each operation and records the delta (charged ns, including line
    waits) in [hist].  Only used when latency instrumentation is on, so
    the uninstrumented path keeps the exact event sequence of
    {!pair_worker}. *)
let timed_pair_worker ?epoch (ops : Dssq_core.Queue_intf.ops) ~tid ~counter
    ~det_pct ~now ~hist () =
  let i = ref 0 in
  let timed f =
    let t0 = now () in
    f ();
    Dssq_obs.Histogram.add hist (now () -. t0);
    incr counter
  in
  while true do
    let detectable = detectable ~det_pct !i in
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
    incr i
  done

(** Measure one queue implementation at one thread count on a fresh
    simulated heap.  [line_size] configures the heap's persist-line size
    (1, the default, is the legacy word-granular model).  Memory-event
    deltas exclude queue seeding (the heap counters are read after
    initialization); per-operation latency histograms are recorded only
    when [instrument] is set, leaving the default path's event sequence
    untouched. *)
let measure ?costs ?(seed = 1) ?(horizon_ns = 300_000.) ?(init_nodes = 16)
    ?(det_pct = 100) ?(line_size = 1) ?(policy = Heap.Policy.Eager)
    ?(batch = 8) ?(instrument = false) ~mk ~nthreads () :
    Dssq_obs.Run_report.sample =
  let combine = policy = Combine in
  let heap = Heap.create ~line_size ~policy () in
  let (module M) = Sim.memory heap in
  let capacity = init_nodes + 8 + (nthreads * 192) in
  let ops =
    Registry.setup
      (module M)
      ~mk ~init_nodes
      (Dssq_core.Queue_intf.config ~line_size ~policy ~nthreads ~capacity ())
  in
  (* Seeding may leave buffered flushes under combine; close them before
     measuring so every run starts from a clean persist state. *)
  if combine then Heap.drain heap;
  let epoch =
    if combine then Some (max 1 batch, fun () -> M.drain ()) else None
  in
  let before = Heap.counters heap in
  let counters = Array.init nthreads (fun _ -> ref 0) in
  let hist = if instrument then Some (Dssq_obs.Histogram.create ()) else None in
  let clock = ref (fun (_ : int) -> 0.) in
  let threads =
    Array.init nthreads (fun tid ->
        match hist with
        | None -> pair_worker ?epoch ops ~tid ~counter:counters.(tid) ~det_pct
        | Some h ->
            timed_pair_worker ?epoch ops ~tid ~counter:counters.(tid) ~det_pct
              ~now:(fun () -> !clock tid)
              ~hist:h)
  in
  let ops_done () = Array.fold_left (fun acc c -> acc + !c) 0 counters in
  let per_sec =
    run ?costs ~seed ~clock ~horizon_ns ~heap ~threads ~ops_done ()
  in
  let events =
    Dssq_memory.Memory_intf.Counters.diff ~after:(Heap.counters heap) ~before
  in
  {
    Dssq_obs.Run_report.mops = per_sec /. 1e6;
    ops = ops_done ();
    events;
    latency = hist;
  }
