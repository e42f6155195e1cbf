(** Phase-attributed profiler: scope every memory event and span with
    the engine phase it occurred in.

    The detectable-object engine runs each operation through a fixed
    phase taxonomy — {!Announce} (prep: persist the announce record),
    {!Exec} (apply + install + completion), {!Resolve} (post-crash
    detection), {!Recovery_scan} (structural recovery passes) and
    {!Recovery_complete} (completing effective operations' announce
    state).  Instrumented code brackets each phase with
    {!begin_span}/{!end_span}; memory events reported while a thread is
    inside a span are charged to that thread's current phase, and
    everything outside any span lands in {!Other} — so the per-phase
    event counts always sum to the backend totals.

    Per-thread phase slots make attribution correct under the
    simulator's interleaving: each simulated thread carries its own
    current phase, and each event of the {!Dssq_memory.Persist_event}
    stream — which the profiler subscribes to while on — is charged to
    the thread the event names: the one the scheduler is stepping on
    the sim heap, the pinned worker on the native backend.

    Span latency is wall-clock: real per-phase cost on the native
    backend; on the simulator it includes interleaved steps of other
    threads, so treat sim latencies as relative weights, not absolutes.

    Costs nothing when off: every span entry point is one load + one
    branch, {!begin_span} returns a shared dummy span (no allocation), no
    event reaches an unsubscribed profiler, and no instrumented call
    site ever touches backend memory — event streams and counters are
    bit-for-bit identical whether profiling is on or off. *)

type phase =
  | Announce
  | Exec
  | Combine
      (** flat-combining persist epoch: the combiner's batch drain plus
          result publication — nested inside {!Exec}, so exec keeps the
          apply/install cost and combine isolates the epoch's *)
  | Resolve
  | Recovery_scan
  | Recovery_complete
  | Other

let phase_name = function
  | Announce -> "announce"
  | Exec -> "exec"
  | Combine -> "combine"
  | Resolve -> "resolve"
  | Recovery_scan -> "recovery-scan"
  | Recovery_complete -> "recovery-complete"
  | Other -> "other"

let phases =
  [ Announce; Exec; Combine; Resolve; Recovery_scan; Recovery_complete; Other ]

let nphases = List.length phases

let phase_index = function
  | Announce -> 0
  | Exec -> 1
  | Combine -> 2
  | Resolve -> 3
  | Recovery_scan -> 4
  | Recovery_complete -> 5
  | Other -> 6

let other_index = phase_index Other

type span = { sp_phase : int; sp_prev : int; sp_t0 : float }

(* Returned by [begin_span] when profiling is off: physically
   distinguished, so a span opened while off is ignored by [end_span]
   even if profiling was switched on in between. *)
let dummy_span = { sp_phase = other_index; sp_prev = other_index; sp_t0 = 0. }

let subscription = ref None
let is_on () = !subscription <> None
let lock = Mutex.create ()

(* Per-thread current phase, indexed by [tid + 1] ([-1] = system
   context), grown on demand — the ring layout {!Trace} uses. *)
let slots = ref (Array.make 8 other_index)

let slot_index tid =
  let idx = tid + 1 in
  if idx >= Array.length !slots then begin
    let grown =
      Array.make (max (idx + 1) (2 * Array.length !slots)) other_index
    in
    Array.blit !slots 0 grown 0 (Array.length !slots);
    slots := grown
  end;
  idx

(* Per-phase accounting: spans completed, their wall time, and the six
   persist-relevant event kinds. *)
let ops = Array.make nphases 0
let pwrites = Array.make nphases 0
let flushes = Array.make nphases 0
let elides = Array.make nphases 0
let coalesces = Array.make nphases 0
let fences = Array.make nphases 0
let elided_fences = Array.make nphases 0
let lat = Array.init nphases (fun _ -> Histogram.create ())

let reset () =
  Mutex.lock lock;
  Array.iteri
    (fun i _ ->
      ops.(i) <- 0;
      pwrites.(i) <- 0;
      flushes.(i) <- 0;
      elides.(i) <- 0;
      coalesces.(i) <- 0;
      fences.(i) <- 0;
      elided_fences.(i) <- 0;
      lat.(i) <- Histogram.create ())
    ops;
  Array.fill !slots 0 (Array.length !slots) other_index;
  Mutex.unlock lock

let begin_span ~tid phase =
  if not (is_on ()) then dummy_span
  else begin
    Mutex.lock lock;
    let idx = slot_index tid in
    let prev = !slots.(idx) in
    let p = phase_index phase in
    !slots.(idx) <- p;
    Mutex.unlock lock;
    { sp_phase = p; sp_prev = prev; sp_t0 = Unix.gettimeofday () }
  end

let end_span ~tid sp =
  if is_on () && sp != dummy_span then begin
    let dt_ns = (Unix.gettimeofday () -. sp.sp_t0) *. 1e9 in
    Mutex.lock lock;
    let idx = slot_index tid in
    !slots.(idx) <- sp.sp_prev;
    ops.(sp.sp_phase) <- ops.(sp.sp_phase) + 1;
    Histogram.add lat.(sp.sp_phase) (Float.max 0. dt_ns);
    Mutex.unlock lock
  end

let charge ?(n = 1) counts tid =
  Mutex.lock lock;
  let p = !slots.(slot_index tid) in
  counts.(p) <- counts.(p) + n;
  Mutex.unlock lock

(* Fold one stream event into its thread's current phase.  Crash
   verdicts, reads and allocations are not persist traffic here. *)
let observe (ev : Dssq_memory.Persist_event.t) =
  match ev.kind with
  | Write | Cas true -> charge pwrites ev.tid
  | Flush Written_back | Write_back { effective = true; _ } -> charge flushes ev.tid
  | Flush Elided | Write_back { effective = false; _ } -> charge elides ev.tid
  | Flush Coalesced -> charge coalesces ev.tid
  | Fence absorbed ->
      charge fences ev.tid;
      charge elided_fences ev.tid ~n:(max 0 (absorbed - 1))
  | Read | Cas false | Flush Buffered | Verdict _ | Crashed | Alloc -> ()

let stop () =
  Option.iter Dssq_memory.Persist_event.unsubscribe !subscription;
  subscription := None

let start () =
  if not (is_on ()) then
    subscription := Some (Dssq_memory.Persist_event.subscribe observe)

(* ------------------------------ reporting ----------------------------- *)

type phase_row = {
  ph_phase : string;
  ph_ops : int;  (** spans completed in this phase *)
  ph_pwrites : int;
  ph_flushes : int;
  ph_elides : int;
  ph_coalesces : int;
  ph_fences : int;
  ph_elided_fences : int;
  ph_latency : Histogram.t;  (** span wall time, nanoseconds *)
}

let rows () =
  Mutex.lock lock;
  let rows =
    List.map
      (fun phase ->
        let i = phase_index phase in
        {
          ph_phase = phase_name phase;
          ph_ops = ops.(i);
          ph_pwrites = pwrites.(i);
          ph_flushes = flushes.(i);
          ph_elides = elides.(i);
          ph_coalesces = coalesces.(i);
          ph_fences = fences.(i);
          ph_elided_fences = elided_fences.(i);
          ph_latency = Histogram.copy lat.(i);
        })
      phases
  in
  Mutex.unlock lock;
  rows

let row_to_json r : Json.t =
  Json.Obj
    [
      ("phase", Json.String r.ph_phase);
      ("ops", Json.Int r.ph_ops);
      ("pwrites", Json.Int r.ph_pwrites);
      ("flushes", Json.Int r.ph_flushes);
      ("elided_flushes", Json.Int r.ph_elides);
      ("coalesced_flushes", Json.Int r.ph_coalesces);
      ("fences", Json.Int r.ph_fences);
      ("elided_fences", Json.Int r.ph_elided_fences);
      ("latency", Histogram.to_json r.ph_latency);
    ]

let rows_to_json rows : Json.t = Json.List (List.map row_to_json rows)

let pp_rows fmt rows =
  Format.fprintf fmt "%-18s %7s %8s %8s %8s %8s %7s %10s@." "phase" "spans"
    "pwrites" "flushes" "elided" "coal" "fences" "p50-ns";
  List.iter
    (fun r ->
      if
        r.ph_ops > 0 || r.ph_pwrites > 0 || r.ph_flushes > 0
        || r.ph_elides > 0 || r.ph_coalesces > 0 || r.ph_fences > 0
      then
        Format.fprintf fmt "%-18s %7d %8d %8d %8d %8d %7d %10.0f@."
          r.ph_phase r.ph_ops r.ph_pwrites r.ph_flushes r.ph_elides
          r.ph_coalesces r.ph_fences
          (let p = Histogram.p50 r.ph_latency in
           if Float.is_nan p then 0. else p))
    rows
