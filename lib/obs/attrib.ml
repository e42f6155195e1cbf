(** The attribution table: where persist traffic went, by protocol phase
    and by persist line.

    One subscriber of the {!Dssq_memory.Persist_event} stream, which
    both backends emit into, charges every event to a cell keyed by
    (the current phase of the thread the event names, the event's
    persist line).  A cell holds one count per event kind.  Beside the
    cells the table keeps each line's allocation-site label, and per
    phase the completed spans and their latency histogram.  The
    persistence heatmap, the phase profiler and the Prometheus export
    are projections of this one table, and {!sums} checks every
    projection's totals against the backend counters.

    Phases.  The detectable-object engine runs each operation through a
    fixed taxonomy — {!Announce} (prep: persist the announce record),
    {!Exec} (apply + install + completion), {!Resolve} (post-crash
    detection), {!Recovery_scan} (structural recovery passes) and
    {!Recovery_complete} (completing effective operations' announce
    state).  Instrumented code brackets each phase with
    {!begin_span}/{!end_span}; an event reported while its thread is
    inside a span is charged to that thread's current phase, and
    everything outside any span lands in {!Other}.  Each simulated
    thread carries its own current phase, so attribution is correct
    under the simulator's interleaving; on the native backend the
    event names the pinned worker.

    Lines.  Events carry the line id the {!Line} allocator stamped at
    allocation time (the native backend's allocation index).  A line is
    labeled with the first non-empty allocation name placed on it — with
    co-located cells, the block's first member — and bucketed by owning
    object (the label prefix before ['.'] or ['[']).  Fences and crash
    markers carry line [-1]: they reach the phase rows, never a line
    row.  The stream carries one crash verdict per dirty cell; the table
    counts one per line per crash.

    Span latency is wall-clock: real per-phase cost on the native
    backend; on the simulator it includes interleaved steps of other
    threads, so treat sim latencies as relative weights, not absolutes.

    Costs nothing when off: every span entry point is one load + one
    branch, {!begin_span} returns a shared dummy span (no allocation), no
    event reaches an unsubscribed table, and no instrumented call site
    ever touches backend memory — event streams and counters are
    bit-for-bit identical whether attribution is on or off.  Recording
    takes one mutex, acceptable for a measurement mode. *)

module PE = Dssq_memory.Persist_event
module MI = Dssq_memory.Memory_intf

type phase =
  | Announce
  | Exec
  | Combine
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

(* ------------------------------- the table ----------------------------- *)

(* The columns of a cell, one per counted event kind. *)
let c_writes = 0
let c_flushes = 1
let c_elides = 2
let c_coalesces = 3
let c_fences = 4
let c_elided_fences = 5
let c_evicts = 6
let c_drops = 7
let ncols = 8

(* One line's cells: column [c] of phase [p] at [p * ncols + c]. *)
type line = { mutable label : string; cells : int array }

let table : (int, line) Hashtbl.t = Hashtbl.create 64
let spans = Array.make nphases 0
let lat = Array.init nphases (fun _ -> Histogram.create ())

(* Lines already given a verdict by the crash in progress. *)
let judged : (int, unit) Hashtbl.t = Hashtbl.create 16

(* Per-thread current phase, indexed by [tid + 1] ([-1] = system
   context), grown on demand — the ring layout {!Trace} uses. *)
let slots = ref (Array.make 8 other_index)

let lock = Mutex.create ()
let subscription = ref None
let is_on () = !subscription <> None

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

let line_of id =
  match Hashtbl.find_opt table id with
  | Some l -> l
  | None ->
      let l = { label = ""; cells = Array.make (nphases * ncols) 0 } in
      Hashtbl.add table id l;
      l

let charge (ev : PE.t) col n =
  let cells = (line_of ev.line).cells in
  let i = (!slots.(slot_index ev.tid) * ncols) + col in
  cells.(i) <- cells.(i) + n

(* Fold one stream event into its cell.  Events that count nothing
   (reads, failed CAS, buffered flushes) create no line. *)
let observe (ev : PE.t) =
  Mutex.lock lock;
  (match ev.kind with
  | Write | Cas true -> charge ev c_writes 1
  | Flush Written_back | Write_back { effective = true; _ } ->
      charge ev c_flushes 1
  | Flush Elided | Write_back { effective = false; _ } -> charge ev c_elides 1
  | Flush Coalesced -> charge ev c_coalesces 1
  | Fence absorbed ->
      charge ev c_fences 1;
      charge ev c_elided_fences (max 0 (absorbed - 1))
  | Verdict evicted ->
      if not (Hashtbl.mem judged ev.line) then begin
        Hashtbl.add judged ev.line ();
        charge ev (if evicted then c_evicts else c_drops) 1
      end
  | Crashed -> Hashtbl.reset judged
  | Alloc ->
      if ev.name <> "" then begin
        let l = line_of ev.line in
        if l.label = "" then l.label <- ev.name
      end
  | Read | Cas false | Flush Buffered -> ());
  Mutex.unlock lock

let reset () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ l -> Array.fill l.cells 0 (Array.length l.cells) 0) table;
  Array.fill spans 0 nphases 0;
  Array.iteri (fun i _ -> lat.(i) <- Histogram.create ()) lat;
  Hashtbl.reset judged;
  Array.fill !slots 0 (Array.length !slots) other_index;
  Mutex.unlock lock

let start () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock;
  reset ();
  if not (is_on ()) then subscription := Some (PE.subscribe observe)

let stop () =
  Option.iter PE.unsubscribe !subscription;
  subscription := None

(* -------------------------------- spans -------------------------------- *)

type span = { sp_phase : int; sp_prev : int; sp_t0 : float }

(* Returned by [begin_span] when off: physically distinguished, so a
   span opened while off is ignored by [end_span] even if attribution
   was switched on in between. *)
let dummy_span = { sp_phase = other_index; sp_prev = other_index; sp_t0 = 0. }

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
    !slots.(slot_index tid) <- sp.sp_prev;
    spans.(sp.sp_phase) <- spans.(sp.sp_phase) + 1;
    Histogram.add lat.(sp.sp_phase) (Float.max 0. dt_ns);
    Mutex.unlock lock
  end

(* ----------------------------- projections ----------------------------- *)

type counts = {
  writes : int;
  flushes : int;
  elides : int;
  coalesces : int;
  fences : int;
  elided_fences : int;
  evicts : int;
  drops : int;
}

(* The counts at columns [off, off + ncols) of [a]. *)
let counts_of ?(off = 0) a =
  {
    writes = a.(off + c_writes);
    flushes = a.(off + c_flushes);
    elides = a.(off + c_elides);
    coalesces = a.(off + c_coalesces);
    fences = a.(off + c_fences);
    elided_fences = a.(off + c_elided_fences);
    evicts = a.(off + c_evicts);
    drops = a.(off + c_drops);
  }

type phase_row = {
  ph_phase : string;
  ph_ops : int;
  ph_counts : counts;
  ph_latency : Histogram.t;
}

type line_row = {
  h_line : int;
  h_label : string;
  h_object : string;
  h_counts : counts;
}

type t = { phases : phase_row list; lines : line_row list }

(* Owning-object bucket: the label prefix before the first ['.'] (the
   engine's [name.suffix] convention) or ['['] (announce and pool
   arrays), the whole label when neither occurs, "?" when unnamed. *)
let bucket label =
  if label = "" then "?"
  else
    let cut =
      List.filter_map (fun ch -> String.index_opt label ch) [ '.'; '[' ]
    in
    match cut with
    | [] -> label
    | cuts -> String.sub label 0 (List.fold_left min (String.length label) cuts)

let snapshot () =
  Mutex.lock lock;
  (* A phase row sums its cells over every line, a line row its cells
     over every phase. *)
  let by_phase = Array.make (nphases * ncols) 0 in
  let line_rows =
    Hashtbl.fold
      (fun id l acc ->
        let by_col = Array.make ncols 0 in
        Array.iteri
          (fun i v ->
            by_phase.(i) <- by_phase.(i) + v;
            by_col.(i mod ncols) <- by_col.(i mod ncols) + v)
          l.cells;
        if id < 0 then acc
        else
          {
            h_line = id;
            h_label = l.label;
            h_object = bucket l.label;
            h_counts = counts_of by_col;
          }
          :: acc)
      table []
  in
  let phase_rows =
    List.map
      (fun phase ->
        let i = phase_index phase in
        {
          ph_phase = phase_name phase;
          ph_ops = spans.(i);
          ph_counts = counts_of ~off:(i * ncols) by_phase;
          ph_latency = Histogram.copy lat.(i);
        })
      phases
  in
  Mutex.unlock lock;
  {
    phases = phase_rows;
    lines = List.sort (fun a b -> compare a.h_line b.h_line) line_rows;
  }

let sums t (c : MI.counters) =
  let total rows f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let phase f = total t.phases (fun r -> f r.ph_counts) in
  let line f = total t.lines (fun r -> f r.h_counts) in
  [
    ("phase pwrites", phase (fun k -> k.writes), c.MI.pwrites);
    ("phase flushes", phase (fun k -> k.flushes), c.MI.flushes);
    ("phase elided", phase (fun k -> k.elides), c.MI.elided_flushes);
    ("phase coalesced", phase (fun k -> k.coalesces), c.MI.coalesced_flushes);
    ("phase fences", phase (fun k -> k.fences), c.MI.fences);
    ("phase elided fences", phase (fun k -> k.elided_fences), c.MI.elided_fences);
    ("line writes", line (fun k -> k.writes), c.MI.pwrites);
    ("line flushes", line (fun k -> k.flushes), c.MI.flushes);
    ("line elided", line (fun k -> k.elides), c.MI.elided_flushes);
    ("line coalesced", line (fun k -> k.coalesces), c.MI.coalesced_flushes);
  ]

(* Rank by persist cost — effective flushes first (the paid
   write-backs), then writes — and keep the top [n]. *)
let top ~n rows =
  let ranked =
    List.sort
      (fun a b ->
        compare
          (b.h_counts.flushes, b.h_counts.writes, a.h_line)
          (a.h_counts.flushes, a.h_counts.writes, b.h_line))
      rows
  in
  List.filteri (fun i _ -> i < n) ranked

(* ------------------------------ reporting ------------------------------ *)

(* Each projection's columns under its own names: the JSON key and the
   Prometheus metric suffix. *)
let phase_columns r =
  let k = r.ph_counts in
  [
    ("ops", "spans", r.ph_ops);
    ("pwrites", "pwrites", k.writes);
    ("flushes", "flushes", k.flushes);
    ("elided_flushes", "elided_flushes", k.elides);
    ("coalesced_flushes", "coalesced_flushes", k.coalesces);
    ("fences", "fences", k.fences);
    ("elided_fences", "elided_fences", k.elided_fences);
  ]

let line_columns r =
  let k = r.h_counts in
  [
    ("writes", "writes", k.writes);
    ("flushes", "flushes", k.flushes);
    ("elided", "elided_flushes", k.elides);
    ("coalesced", "coalesced_flushes", k.coalesces);
    ("evicted", "evicted_lines", k.evicts);
    ("dropped", "dropped_lines", k.drops);
  ]

let to_json t : (string * Json.t) list =
  let ints cols = List.map (fun (key, _, v) -> (key, Json.Int v)) cols in
  [
    ( "phases",
      Json.List
        (List.map
           (fun r ->
             Json.Obj
               ((("phase", Json.String r.ph_phase) :: ints (phase_columns r))
               @ [ ("latency", Histogram.to_json r.ph_latency) ]))
           t.phases) );
    ( "heatmap",
      Json.List
        (List.map
           (fun r ->
             Json.Obj
               ([
                  ("line", Json.Int r.h_line);
                  ("label", Json.String r.h_label);
                  ("object", Json.String r.h_object);
                ]
               @ ints (line_columns r)))
           t.lines) );
  ]

let samples t : Prom.sample list =
  let counted prefix labels cols =
    List.map
      (fun (_, metric, v) ->
        {
          Prom.s_name = prefix ^ metric;
          s_labels = labels;
          s_value = float_of_int v;
        })
      cols
  in
  let phase r =
    let labels = [ ("phase", r.ph_phase) ] in
    let h = r.ph_latency in
    counted "dssq_profile_" labels (phase_columns r)
    @
    if Histogram.total h = 0 then []
    else
      List.map
        (fun (q, v) ->
          {
            Prom.s_name = "dssq_profile_latency_ns";
            s_labels = labels @ [ ("quantile", q) ];
            s_value = v;
          })
        [
          ("0.5", Histogram.p50 h);
          ("0.9", Histogram.p90 h);
          ("0.99", Histogram.p99 h);
        ]
  in
  let line r =
    counted "dssq_heatmap_"
      [
        ("line", string_of_int r.h_line);
        ("label", r.h_label);
        ("object", r.h_object);
      ]
      (line_columns r)
  in
  List.concat_map phase t.phases @ List.concat_map line t.lines

let pp_phases fmt rows =
  Format.fprintf fmt "%-18s %7s %8s %8s %8s %8s %7s %10s@." "phase" "spans"
    "pwrites" "flushes" "elided" "coal" "fences" "p50-ns";
  List.iter
    (fun r ->
      let k = r.ph_counts in
      if
        r.ph_ops > 0 || k.writes > 0 || k.flushes > 0 || k.elides > 0
        || k.coalesces > 0 || k.fences > 0
      then
        Format.fprintf fmt "%-18s %7d %8d %8d %8d %8d %7d %10.0f@." r.ph_phase
          r.ph_ops k.writes k.flushes k.elides k.coalesces k.fences
          (let p = Histogram.p50 r.ph_latency in
           if Float.is_nan p then 0. else p))
    rows

let pp_lines fmt rows =
  Format.fprintf fmt "%6s  %-24s %8s %8s %8s %8s %6s %6s@." "line" "label"
    "writes" "flushes" "elided" "coal" "evict" "drop";
  List.iter
    (fun r ->
      let k = r.h_counts in
      Format.fprintf fmt "%6d  %-24s %8d %8d %8d %8d %6d %6d@." r.h_line
        (if r.h_label = "" then "?" else r.h_label)
        k.writes k.flushes k.elides k.coalesces k.evicts k.drops)
    rows
