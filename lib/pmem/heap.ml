(** A simulated persistent heap: the set of all allocated cells plus
    bookkeeping for crashes and statistics.

    The heap itself is single-domain: simulated "threads" are cooperative
    coroutines scheduled by [Dssq_sim], so plain mutation here is safe and
    deterministic.

    Persistence is line-granular: cells are placed into persist lines by
    a {!Line.Alloc} allocator at allocation time, [flush] writes back the
    cell's whole line (persisting every dirty member), flushing a clean
    line is elided, and a crash evicts or drops each line as a unit. *)

module Trace = Dssq_obs.Trace
module Heatmap = Dssq_obs.Heatmap
module Profile = Dssq_obs.Profile
module Line = Dssq_memory.Memory_intf.Line
module Persistency = Dssq_memory.Memory_intf.Persistency

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable cases : int;
  mutable pwrites : int;
  mutable flushes : int;
  mutable elided_flushes : int;
  mutable coalesced_flushes : int;
  mutable fences : int;
  mutable elided_fences : int;
}

type t = {
  mutable cells : Cell.packed list; (* most recently allocated first *)
  mutable next_id : int;
  line_alloc : Line.Alloc.t;
  line_members : (int, Cell.packed list ref) Hashtbl.t;
      (* line id -> member cells; flush persists all dirty members *)
  lines : (int, Line.t) Hashtbl.t;
  stats : stats;
  mutable in_sim : bool;
      (* When true, memory operations must be routed through the scheduler
         (performed as effects); when false they apply directly — used for
         initialization and single-threaded recovery code. *)
  mutable cur_tid : int;
      (* Thread on whose behalf memory operations currently apply: set by
         the stepping machine before each step, -1 in direct mode.  Keys
         the per-thread coalescing buffers. *)
  pending : (int, (int, Line.t) Hashtbl.t) Hashtbl.t;
      (* tid -> line id -> line: lines flushed by the thread since its
         last drain (coalescing mode only).  Pending lines stay dirty, so
         the crash adversary covers the whole deferral window. *)
  pending_calls : (int, int) Hashtbl.t;
      (* tid -> flush calls absorbed since the thread's last drain *)
  pending_order : (int, int list ref) Hashtbl.t;
      (* tid -> pending line ids, newest first (reverse FIFO).  Mirrors
         [pending]; under px86 the drain writes back in FIFO order and
         the crash adversary persists FIFO prefixes, so order is part of
         the model, not just bookkeeping. *)
  persistency : Persistency.t;
      (* Sc: flushes are synchronous unless coalescing is opted into and
         stores auto-drain (persist order = flush order).  Px86: every
         flush buffers, stores never auto-drain, only drain/fence — or
         the crash adversary — writes buffers back. *)
  mutable reorder_pat : string option;
      (* Fault injection for the checker's relaxed mutants: a flush of a
         cell whose name contains this pattern enqueues at the FRONT of
         the thread's FIFO instead of the back — a persist that jumps
         the program's persist order.  Invisible under sc (no buffer). *)
  mutable short_drain : bool;
      (* Fault injection (checker's short-drain mutant): each px86 drain
         misses the newest buffered entry — the off-by-one persist
         barrier that covers every pwb except the one issued just before
         it.  Invisible under sc (eager flushes leave nothing pending). *)
  combine : bool;
      (* Flat-combining batch epochs: every flush buffers (even under
         Sc), stores never auto-drain, and only explicit drains — or the
         crash adversary's prefix write-backs — empty the buffers.  The
         write-back of a buffered line re-orders at its {e latest} flush
         or store ([refresh_pending]): the buffered entry persists the
         current value, so its position in the persist FIFO follows the
         last modification, which is what lets the objects replace
         per-op hardening drains with FIFO order inside one epoch. *)
}

let create ?(line_size = 1) ?(persistency = Persistency.Sc) ?(combine = false)
    () =
  {
    cells = [];
    next_id = 0;
    line_alloc = Line.Alloc.create ~size:line_size ();
    line_members = Hashtbl.create 64;
    lines = Hashtbl.create 64;
    stats =
      {
        reads = 0;
        writes = 0;
        cases = 0;
        pwrites = 0;
        flushes = 0;
        elided_flushes = 0;
        coalesced_flushes = 0;
        fences = 0;
        elided_fences = 0;
      };
    in_sim = false;
    cur_tid = -1;
    pending = Hashtbl.create 8;
    pending_calls = Hashtbl.create 8;
    pending_order = Hashtbl.create 8;
    persistency;
    reorder_pat = None;
    short_drain = false;
    combine;
  }

let persistency t = t.persistency
let combine t = t.combine

(* Buffered routing: flushes enter per-thread persist buffers instead of
   writing back synchronously.  Px86 is buffered by definition; combine
   mode opts the Sc heap into the same machinery so one batch drain can
   retire many operations' flushes. *)
let buffered t = t.persistency = Persistency.Px86 || t.combine

let line_size t = Line.Alloc.line_size t.line_alloc

let alloc t ?(name = "") ?placement v =
  let line = Line.Alloc.place ?placement t.line_alloc in
  let cell =
    { Cell.id = t.next_id; name; line; volatile = v; persisted = v; dirty = false }
  in
  t.next_id <- t.next_id + 1;
  t.cells <- Cell.Packed cell :: t.cells;
  let lid = line.Line.id in
  (match Hashtbl.find_opt t.line_members lid with
  | Some members -> members := Cell.Packed cell :: !members
  | None ->
      Hashtbl.add t.lines lid line;
      Hashtbl.add t.line_members lid (ref [ Cell.Packed cell ]));
  if Heatmap.is_on () then Heatmap.note ~line:lid ~name;
  cell

(** Co-located cells: the block starts at a fresh line boundary and the
    allocator is re-aligned afterwards, so distinct blocks never share a
    line.  With the default line size a node's fields land on one line
    and cost one write-back to persist together. *)
let alloc_block t ?(name = "") vs =
  Line.Alloc.align t.line_alloc;
  let cells =
    List.mapi
      (fun i v ->
        let name =
          if name = "" then "" else name ^ "[" ^ string_of_int i ^ "]"
        in
        alloc t ~name v)
      vs
  in
  Line.Alloc.align t.line_alloc;
  cells

let members t (l : Line.t) =
  match Hashtbl.find_opt t.line_members l.Line.id with
  | Some members -> !members
  | None -> []

(* Direct application of memory operations to the heap.  Each operation
   reports itself to the tracer (a load + branch when tracing is off);
   the dirtiness recorded is the cell's state AFTER the event, so a
   trace shows exactly which lines a crash can lose. *)

let traced op (c : 'a Cell.t) =
  if Trace.is_on () then
    Trace.mem op ~cell:c.Cell.id ~name:c.Cell.name
      ~line:c.Cell.line.Line.id ~dirty:c.Cell.dirty

(* Attribution of persist events: per-line to the heatmap, per-phase
   (keyed by the thread the scheduler is stepping) to the profiler.
   Both off by default — one load + branch each, the tracer's cost
   discipline. *)
let attrib t ev ~line =
  if Heatmap.is_on () then Heatmap.record ev ~line;
  if Profile.is_on () then Profile.event ~tid:t.cur_tid ev

(* Write the whole line back: every dirty member persists in the one
   write-back (CLWB acts on the full cache line). *)
let persist_line t (l : Line.t) =
  List.iter
    (fun (Cell.Packed m) ->
      if m.Cell.dirty then begin
        m.Cell.persisted <- m.Cell.volatile;
        m.Cell.dirty <- false
      end)
    (members t l)

(* ------------------------------------------------------------------ *)
(* Flush coalescing: per-thread persist buffers.  Defined before the
   plain operations because stores and CAS auto-drain: a pending flush
   must complete before any later store by the same thread, or
   coalescing would reorder eager code's flush-before-dependent-store
   sequences.  The buffers are only ever populated through
   [flush_coalesced], so on the eager path every operation below pays
   one hash lookup miss and nothing else — event streams are
   bit-for-bit identical. *)

let buffer t tid =
  match Hashtbl.find_opt t.pending tid with
  | Some b -> b
  | None ->
      let b = Hashtbl.create 8 in
      Hashtbl.add t.pending tid b;
      b

let order t tid =
  match Hashtbl.find_opt t.pending_order tid with
  | Some o -> o
  | None ->
      let o = ref [] in
      Hashtbl.add t.pending_order tid o;
      o

let contains_sub hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let has_pending t =
  match Hashtbl.find_opt t.pending t.cur_tid with
  | Some b -> Hashtbl.length b > 0
  | None -> false

let pending_lines t =
  match Hashtbl.find_opt t.pending t.cur_tid with
  | Some b -> Hashtbl.fold (fun lid _ acc -> lid :: acc) b [] |> List.sort compare
  | None -> []

let bump_calls t =
  Hashtbl.replace t.pending_calls t.cur_tid
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.pending_calls t.cur_tid))

(** Coalescing flush: record the cell's line in the current thread's
    persist buffer instead of writing it back now.  A line already
    pending is deduplicated ([coalesced_flushes]); a clean line has
    nothing to write back and is elided outright, {e at any} line size —
    the size-1 always-charge rule of {!flush} exists only to reproduce
    the legacy eager cost model, which the coalescing mode replaces.
    Volatile and persisted state are untouched: the line stays dirty, so
    a crash before the drain exposes exactly the not-yet-persisted
    window the deferral creates. *)
let flush_coalesced t (c : 'a Cell.t) =
  let line = c.Cell.line in
  let b = buffer t t.cur_tid in
  if Hashtbl.mem b line.Line.id then begin
    t.stats.coalesced_flushes <- t.stats.coalesced_flushes + 1;
    bump_calls t;
    (* Combine epochs: a re-flushed line's write-back re-orders at the
       latest flush (the buffered entry persists the current value). *)
    if t.combine then begin
      let ord = order t t.cur_tid in
      ord := line.Line.id :: List.filter (fun l -> l <> line.Line.id) !ord
    end;
    attrib t `Coalesce ~line:line.Line.id
  end
  else if Line.is_dirty line then begin
    Hashtbl.add b line.Line.id line;
    (let ord = order t t.cur_tid in
     match t.reorder_pat with
     | Some pat when contains_sub c.Cell.name pat ->
         (* front of the FIFO = end of the newest-first list *)
         ord := !ord @ [ line.Line.id ]
     | _ -> ord := line.Line.id :: !ord);
    bump_calls t
  end
  else begin
    t.stats.elided_flushes <- t.stats.elided_flushes + 1;
    attrib t `Elide ~line:line.Line.id
  end;
  traced `Flush c

(** Drain the current thread's persist buffer: write every pending line
    back and fence once.  Counts one effective flush per line that is
    still dirty (a concurrent drain may have beaten us to a shared
    line), one fence for the barrier, and [k-1] elided fences for the
    [k] flush calls the barrier absorbed. *)
let drain t =
  match Hashtbl.find_opt t.pending t.cur_tid with
  | None -> ()
  | Some b when Hashtbl.length b = 0 -> ()
  | Some b ->
      let writeback lid line =
        if Line.take_dirty line then begin
          t.stats.flushes <- t.stats.flushes + 1;
          attrib t `Flush ~line:lid;
          persist_line t line;
          if Trace.is_on () then
            match members t line with
            | Cell.Packed m :: _ -> traced `Flush m
            | [] -> ()
        end
        else begin
          t.stats.elided_flushes <- t.stats.elided_flushes + 1;
          attrib t `Elide ~line:lid
        end
      in
      (* Fault injection (checker's short-drain mutant): the barrier
         misses the newest buffered entry, which stays pending. *)
      let kept =
        match t.persistency with
        | Persistency.Px86 when t.short_drain -> (
            match !(order t t.cur_tid) with
            | newest :: _ -> (
                match Hashtbl.find_opt b newest with
                | Some line -> Some (newest, line)
                | None -> None)
            | [] -> None)
        | _ -> None
      in
      (if t.persistency = Persistency.Sc && not t.combine then
         (* Hash order, as always: persist order within a drain is
            unobservable under sc (the batch is atomic w.r.t. crashes),
            and keeping the historical iteration order keeps event
            streams bit-for-bit identical to the pre-px86 figures. *)
         Hashtbl.iter writeback b
       else
         (* FIFO (px86 and combine epochs): the write-back order is the
            order flushes were issued — re-ordered at the latest flush
            or store under combine — which is what the adversary's
            prefix drains (and hence crash states) are defined
            against. *)
         List.iter
           (fun lid ->
             if match kept with Some (k, _) -> k <> lid | None -> true then
               match Hashtbl.find_opt b lid with
               | Some line -> writeback lid line
               | None -> ())
           (List.rev !(order t t.cur_tid)));
      Hashtbl.reset b;
      (match Hashtbl.find_opt t.pending_order t.cur_tid with
      | Some o -> o := []
      | None -> ());
      (match kept with
      | Some (lid, line) ->
          Hashtbl.replace b lid line;
          (match Hashtbl.find_opt t.pending_order t.cur_tid with
          | Some o -> o := [ lid ]
          | None -> Hashtbl.replace t.pending_order t.cur_tid (ref [ lid ]))
      | None -> ());
      let calls =
        Option.value ~default:0 (Hashtbl.find_opt t.pending_calls t.cur_tid)
      in
      Hashtbl.replace t.pending_calls t.cur_tid 0;
      t.stats.fences <- t.stats.fences + 1;
      t.stats.elided_fences <- t.stats.elided_fences + max 0 (calls - 1);
      attrib t `Fence ~line:(-1);
      if Profile.is_on () then
        for _ = 1 to max 0 (calls - 1) do
          Profile.event ~tid:t.cur_tid `Fence_elided
        done;
      if Trace.is_on () then
        Trace.mem `Fence ~cell:(-1) ~name:"" ~line:(-1) ~dirty:false

(* Auto-drain: complete the thread's pending flushes before it issues a
   store, CAS, or fence.  Folding the drain into the same atomic step is
   sound — a drain changes no volatile state, and the crash state "just
   after the drain" is already reachable by evicting every pending line
   at the crash before this step.

   Under px86 stores do NOT auto-drain: the decoupling of persist order
   from store order is the model, and closing the window here would hide
   exactly the executions the relaxed sweep exists to find.  Explicit
   [fence]/[drain] still write the buffer back. *)
let auto_drain t =
  if t.persistency = Persistency.Sc && (not t.combine) && has_pending t then
    drain t

(* Combine epochs run under {e buffered strict persistency} (Pelley et
   al.'s strict model with asynchronous buffering): every store or CAS
   enqueues its line into the storing thread's persist FIFO — persist
   order follows per-thread store order, write-backs happen at drains or
   by the adversary's prefixes.  Two consequences the drain elisions in
   the objects rely on: (a) no line a simulated thread dirties is ever
   outside a buffer, so the crash adversary's free-form per-line
   verdicts cannot persist a store ahead of the stores before it; (b) a
   store (or re-flush) to a line whose write-back is already pending
   moves that write-back to the FIFO tail — the buffered entry persists
   the line's current contents, so its position must follow the last
   modification or a prefix drain could persist a value {e newer} than
   entries behind it in the buffer. *)
let refresh_pending t (line : Line.t) =
  if t.combine then begin
    let b = buffer t t.cur_tid in
    let ord = order t t.cur_tid in
    if Hashtbl.mem b line.Line.id then
      ord := line.Line.id :: List.filter (fun l -> l <> line.Line.id) !ord
    else begin
      Hashtbl.add b line.Line.id line;
      ord := line.Line.id :: !ord
    end
  end

(** Asynchronous write-back chosen by the crash adversary (px86): persist
    the oldest [count] entries of thread [tid]'s persist buffer, in FIFO
    order, with no fence — modelling CLWBs that happened to complete
    before power failed.  Counted as effective flushes.  Out-of-range
    targets (unknown thread, empty buffer, count past the end) degrade to
    persisting what is there, so replaying a token prefix against a heap
    whose buffers evolved differently stays total. *)
let adversary_drain t ~tid ~count =
  match
    (Hashtbl.find_opt t.pending tid, Hashtbl.find_opt t.pending_order tid)
  with
  | Some b, Some ord when count > 0 ->
      List.iteri
        (fun i lid ->
          if i < count then
            match Hashtbl.find_opt b lid with
            | Some line ->
                Hashtbl.remove b lid;
                if Line.take_dirty line then begin
                  t.stats.flushes <- t.stats.flushes + 1;
                  attrib t `Flush ~line:lid;
                  persist_line t line
                end
                else begin
                  t.stats.elided_flushes <- t.stats.elided_flushes + 1;
                  attrib t `Elide ~line:lid
                end
            | None -> ())
        (List.rev !ord);
      ord := List.filter (fun lid -> Hashtbl.mem b lid) !ord
  | _ -> ()

(** Per-thread persist-buffer contents, oldest first: [(tid, lines)]
    sorted by thread id — the FIFOs the crash adversary draws drain
    prefixes over.  Empty under sc: there the coalescing windows are
    already covered by the per-line verdicts. *)
let pending_fifos t =
  if not (buffered t) then []
  else
    Hashtbl.fold
      (fun tid ord acc ->
        match List.rev !ord with [] -> acc | fifo -> (tid, fifo) :: acc)
      t.pending_order []
    |> List.sort compare

let read t (c : 'a Cell.t) : 'a =
  t.stats.reads <- t.stats.reads + 1;
  traced `Read c;
  c.volatile

let write t (c : 'a Cell.t) (v : 'a) =
  auto_drain t;
  t.stats.writes <- t.stats.writes + 1;
  t.stats.pwrites <- t.stats.pwrites + 1;
  c.volatile <- v;
  c.dirty <- true;
  Line.mark_dirty c.line;
  refresh_pending t c.line;
  attrib t `Pwrite ~line:c.line.Line.id;
  traced `Write c

let cas t (c : 'a Cell.t) ~(expected : 'a) ~(desired : 'a) =
  auto_drain t;
  t.stats.cases <- t.stats.cases + 1;
  let hit =
    if Cell.value_equal c.volatile expected then begin
      t.stats.pwrites <- t.stats.pwrites + 1;
      c.volatile <- desired;
      c.dirty <- true;
      Line.mark_dirty c.line;
      refresh_pending t c.line;
      attrib t `Pwrite ~line:c.line.Line.id;
      true
    end
    else false
  in
  traced `Cas c;
  hit

let flush t (c : 'a Cell.t) =
  if Line.flush_effective c.Cell.line then begin
    t.stats.flushes <- t.stats.flushes + 1;
    attrib t `Flush ~line:c.Cell.line.Line.id;
    persist_line t c.Cell.line
  end
  else begin
    t.stats.elided_flushes <- t.stats.elided_flushes + 1;
    attrib t `Elide ~line:c.Cell.line.Line.id
  end;
  traced `Flush c

let fence t =
  if has_pending t then drain t
  else begin
    t.stats.fences <- t.stats.fences + 1;
    attrib t `Fence ~line:(-1);
    if Trace.is_on () then
      Trace.mem `Fence ~cell:(-1) ~name:"" ~line:(-1) ~dirty:false
  end

let dirty_count t =
  List.fold_left
    (fun acc (Cell.Packed c) -> if c.dirty then acc + 1 else acc)
    0 t.cells

(** Ids of every line holding at least one dirty cell, ascending.  This
    is exactly the set over which a crash draws eviction verdicts — the
    model checker enumerates its subsets. *)
let dirty_lines t =
  List.filter_map
    (fun (Cell.Packed c) -> if c.dirty then Some c.line.Line.id else None)
    t.cells
  |> List.sort_uniq compare

(** Lines eligible for a per-line eviction verdict at a crash.  Under sc
    every dirty line qualifies.  Under px86 a line sitting in some
    thread's persist buffer reaches the persistence domain only through
    that buffer — in FIFO order, via an adversary prefix drain — so the
    free-form verdicts range over the dirty lines {e outside} every
    buffer (stores issued and never flushed). *)
let crash_candidate_lines t =
  if not (buffered t) then dirty_lines t
  else begin
    let in_buffer = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ b ->
        Hashtbl.iter (fun lid _ -> Hashtbl.replace in_buffer lid ()) b)
      t.pending;
    List.filter (fun lid -> not (Hashtbl.mem in_buffer lid)) (dirty_lines t)
  end

(* Shared crash core: [verdict lid] decides, per dirty line, whether the
   line was written back by cache eviction before power was lost ([true])
   or discarded ([false]) — the verdict applies to all the line's dirty
   words as a unit, exactly as a real cache evicts whole lines.
   Afterwards volatile state equals persisted state everywhere, which is
   what recovery code and restarted threads observe. *)
let crash_by_line t ~verdict =
  let verdicts = ref [] in
  (* The heatmap wants one Evict/Drop per line, but this walk visits
     every dirty cell — dedup by line id, allocating only when on. *)
  let seen = if Heatmap.is_on () then Some (Hashtbl.create 16) else None in
  List.iter
    (fun (Cell.Packed c) ->
      if c.dirty then begin
        let evicted = verdict c.line.Line.id in
        if evicted then c.persisted <- c.volatile else c.volatile <- c.persisted;
        c.dirty <- false;
        (match seen with
        | Some seen ->
            let lid = c.line.Line.id in
            if not (Hashtbl.mem seen lid) then begin
              Hashtbl.add seen lid ();
              Heatmap.record (if evicted then `Evict else `Drop) ~line:lid
            end
        | None -> ());
        if Trace.is_on () then verdicts := (c.id, c.name, evicted) :: !verdicts
      end)
    t.cells;
  Hashtbl.iter (fun _ l -> Atomic.set l.Line.dirty false) t.lines;
  (* Power loss wipes the persist buffers with the rest of volatile
     state: pending-but-undrained flushes are simply gone (their lines
     were still dirty, so the per-line verdicts above already decided
     their fate). *)
  Hashtbl.reset t.pending;
  Hashtbl.reset t.pending_calls;
  Hashtbl.reset t.pending_order;
  if Trace.is_on () then Trace.crash ~verdicts:(List.rev !verdicts)

(** Crash with one [evict] draw per dirty line, drawn in the order lines
    are first encountered walking [t.cells] (most recent first); at line
    size 1 this degenerates to the original independent-per-cell draw
    sequence, keeping seeded crashes reproducible across refactors. *)
let crash t ~evict =
  let memo : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  crash_by_line t ~verdict:(fun lid ->
      match Hashtbl.find_opt memo lid with
      | Some v -> v
      | None ->
          let v = evict () in
          Hashtbl.add memo lid v;
          v)

(** Crash under an explicit per-line adversary: [evict lid] is the
    verdict for line [lid] (queried once per dirty cell, so it must be a
    pure function of the line id).  This is the entry point the model
    checker uses to enumerate eviction subsets over {!dirty_lines}. *)
let crash_lines t ~evict = crash_by_line t ~verdict:evict

(** Convenience: crash where each dirty line independently persists with
    probability [evict_p], driven by [rng]. *)
let crash_random t ~evict_p ~rng =
  crash t ~evict:(fun () -> Random.State.float rng 1.0 < evict_p)

let stats t = t.stats

(** The same statistics as an immutable {!Dssq_memory.Memory_intf.counters}
    snapshot — the uniform accounting currency shared with the native
    backend. *)
let counters t : Dssq_memory.Memory_intf.counters =
  {
    Dssq_memory.Memory_intf.reads = t.stats.reads;
    writes = t.stats.writes;
    cases = t.stats.cases;
    pwrites = t.stats.pwrites;
    flushes = t.stats.flushes;
    elided_flushes = t.stats.elided_flushes;
    coalesced_flushes = t.stats.coalesced_flushes;
    fences = t.stats.fences;
    elided_fences = t.stats.elided_fences;
  }

let reset_stats t =
  let s = t.stats in
  s.reads <- 0;
  s.writes <- 0;
  s.cases <- 0;
  s.pwrites <- 0;
  s.flushes <- 0;
  s.elided_flushes <- 0;
  s.coalesced_flushes <- 0;
  s.fences <- 0;
  s.elided_fences <- 0

let cell_count t = List.length t.cells
let line_count t = Hashtbl.length t.lines
