(** Native backend: real OCaml domains over [Atomic.t] cells.

    OCaml's [Atomic] operations are sequentially consistent, matching the
    paper's use of C++ [std::atomic] with [seq_cst] ordering (Section 4).
    [flush] and [fence] charge the calibrated persist latency from
    {!Persist_cost}; on this backend the "persistence domain" is ordinary
    RAM, so correctness under crashes is exercised on the simulator
    backend instead (which is the point of having two backends sharing
    one algorithm source).

    Cells carry their persist {!Memory_intf.Line}: stores and CAS mark
    the line dirty, [flush] pays the write-back cost only when the line
    is dirty (clean-line elision) — except at line size 1, the legacy
    word-granular model, where every flush pays. *)

module Line = Memory_intf.Line

type 'a cell = { v : 'a Atomic.t; line : Line.t; pad : int array }

(* One process-wide line allocator.  Allocation happens during
   single-threaded setup or recovery, but harness phases can overlap in
   tests, so serialize with a lock; the hot-path operations below never
   touch it. *)
let alloc_lock = Mutex.create ()
let allocator = ref (Line.Alloc.create ~size:1 ())

let set_line_size size =
  Mutex.lock alloc_lock;
  allocator := Line.Alloc.create ~size ();
  Mutex.unlock alloc_lock

let line_size () = Line.Alloc.line_size !allocator

(* [Isolated] placement asks for a cell real implementations pad to a
   private cache line (queue head/tail, per-thread X words).  The model
   gives it a private persist line; on the real machine we additionally
   allocate a filler block with the atomic so consecutive hot cells do
   not land adjacent on one physical line (false sharing between
   domains).  The filler must stay reachable from the cell, or the GC
   would collect it and compaction could re-pack the atomics.

   The stride is settable (setup-time only, like [set_line_size]) so the
   harness can sweep it: on a NUMA-ish machine the right padding for hot
   isolated cells is an empirical knob — too little false-shares, too
   much wastes cache reach — and the sweep measures the trade directly
   ([Native_throughput.pad_sweep]). *)
let pad_words = ref Memory_intf.Padded.pad_words
let set_pad_words n = pad_words := max 0 n

let pad_for placement =
  match placement with
  | Some Line.Isolated -> Array.make !pad_words 0
  | Some Line.Packed | None -> [||]

module PE = Persist_event

(* Allocation labels go to the stream only while someone listens, so a
   cell's name thunk runs only then.  Native cells keep no name. *)
let note_alloc (name : Memory_intf.Name.t) (line : Line.t) =
  PE.emit Alloc ~tid:(PE.pinned_tid ()) ~cell:(-1) ~name:(name ())
    ~line:line.Line.id ~dirty:false

let alloc ?(name = Memory_intf.Name.none) ?placement v =
  Mutex.lock alloc_lock;
  let line = Line.Alloc.place ?placement !allocator in
  Mutex.unlock alloc_lock;
  if PE.is_on () then note_alloc name line;
  { v = Atomic.make v; line; pad = pad_for placement }

let alloc_block ?(name = Memory_intf.Name.none) vs =
  Mutex.lock alloc_lock;
  Line.Alloc.align !allocator;
  let lines = List.map (fun _ -> Line.Alloc.place !allocator) vs in
  Line.Alloc.align !allocator;
  Mutex.unlock alloc_lock;
  if PE.is_on () then
    List.iteri
      (fun i line -> note_alloc (Memory_intf.Name.element name i) line)
      lines;
  List.map2 (fun v line -> { v = Atomic.make v; line; pad = [||] }) vs lines

let line_id c = c.line.Line.id
let read c = Atomic.get c.v

let write c v =
  Atomic.set c.v v;
  Line.mark_dirty c.line

let cas c ~expected ~desired =
  let hit = Atomic.compare_and_set c.v expected desired in
  if hit then Line.mark_dirty c.line;
  hit

(** Flush the cell's line, paying the calibrated persist cost only for
    an actual write-back; returns whether one happened.  (At line size 1
    — the legacy model — every flush pays.) *)
let flush_line c =
  if Line.flush_effective c.line then begin
    (* Force the store buffer to drain in the model: read back then pay. *)
    ignore (Sys.opaque_identity (Atomic.get c.v));
    Persist_cost.pay_flush ();
    true
  end
  else false

let flush c = ignore (flush_line c)
let fence () = Persist_cost.pay_fence ()

let drain () = ()
(* Eager backend: every [flush] above already wrote back and drained, so
   the persist barrier has nothing to do.  Being a literal no-op is what
   keeps algorithms annotated with [drain] calls bit-for-bit identical
   to their pre-coalescing event streams on this backend. *)

(** The counted native backend under one persist {!Memory_intf.Policy},
    for memory-event accounting on real domains — the native
    counter/event-stream analogue of [Dssq_pmem.Heap] under the same policy.
    Generative: each instantiation owns a fresh set of counters, so
    concurrent harness runs do not share state.  Instrumentation is
    enabled by instantiating algorithm functors over this module instead
    of the plain backend — the plain operations above stay branch-free
    when accounting is off.

    Under [Eager] [flush] writes back synchronously and [drain] is a
    no-op.  Under every other policy each domain owns a private persist
    buffer in domain-local storage: [flush] records the cell's line
    (deduplicated; clean lines elided at any line size), and [drain]
    clears the buffer paying one write-back latency — the buffered CLWBs
    complete in parallel, so one [pay_flush] models the overlapped batch
    — plus the barrier.  [Coalesced] drains the buffer (counts only)
    before every store and CAS; [Combine] enqueues every store's line. *)
module Make (Cfg : sig
  val policy : Memory_intf.Policy.t
end)
() : Memory_intf.COUNTED with type 'a cell = 'a cell = struct
  type nonrec 'a cell = 'a cell
  module P = Memory_intf.Padded
  module Policy = Memory_intf.Policy

  let eager = Cfg.policy = Policy.Eager
  let drains_before_store = Policy.drains_before_store Cfg.policy
  let enqueues_stores = Policy.enqueues_stores Cfg.policy

  (* Every domain increments these on every memory event: padded to
     line-size stride so the counters themselves do not false-share. *)
  let c_reads = P.make 0
  let c_writes = P.make 0
  let c_cases = P.make 0
  let c_pwrites = P.make 0
  let c_flushes = P.make 0
  let c_elided = P.make 0
  let c_coalesced = P.make 0
  let c_fences = P.make 0
  let c_elided_fences = P.make 0
  let alloc = alloc
  let alloc_block = alloc_block

  type buf = {
    lines : (int, Line.t) Hashtbl.t;
    mutable calls : int;
    mutable owed : bool;
        (* a buffered write-back's round-trip is still outstanding: the
           next explicit drain pays one overlapped flush + one fence for
           the whole batch *)
  }

  let key =
    Domain.DLS.new_key (fun () ->
        { lines = Hashtbl.create 8; calls = 0; owed = false })

  (* Every counted operation tests {!PE.is_on} once and emits only when
     someone listens.  Native cells have no id or name; the acting
     thread is the pinned one. *)
  let emit kind ~line ~dirty =
    PE.emit kind ~tid:(PE.pinned_tid ()) ~cell:(-1) ~name:"" ~line ~dirty

  let emit_cell kind c = emit kind ~line:(line_id c) ~dirty:(Line.is_dirty c.line)

  (* One barrier absorbing [absorbed] buffered flush calls. *)
  let count_fence ~on absorbed =
    P.incr c_fences;
    if on then emit (Fence absorbed) ~line:(-1) ~dirty:false

  (* Write the pending lines back (counter-wise): the semantic half of a
     drain, shared by explicit drains and the drain before a store.
     Pays nothing — the batched round-trip cost is charged once, at the
     explicit persistence-point drain (see [drain]). *)
  let retire ~on b =
    if Hashtbl.length b.lines > 0 then begin
      let effective = ref 0 in
      Hashtbl.iter
        (fun _ (l : Line.t) ->
          let written = Line.take_dirty l in
          if written then incr effective;
          if on then
            emit
              (Write_back { effective = written; adversary = false })
              ~line:l.Line.id ~dirty:(Line.is_dirty l))
        b.lines;
      let skipped = Hashtbl.length b.lines - !effective in
      Hashtbl.reset b.lines;
      if !effective > 0 then ignore (P.fetch_and_add c_flushes !effective);
      if skipped > 0 then ignore (P.fetch_and_add c_elided skipped);
      ignore (P.fetch_and_add c_elided_fences (max 0 (b.calls - 1)));
      let absorbed = b.calls in
      b.calls <- 0;
      count_fence ~on absorbed
    end

  (* One overlapped device round-trip plus one fence per persistence
     point, however many flushes were buffered since the last one — the
     coalescing win the [Padded] counters make observable. *)
  let drain () =
    if not eager then begin
      let b = Domain.DLS.get key in
      retire ~on:(PE.is_on ()) b;
      if b.owed then begin
        b.owed <- false;
        Persist_cost.pay_flush ();
        Persist_cost.pay_fence ()
      end
    end

  let enqueue b (line : Line.t) =
    Hashtbl.replace b.lines line.Line.id line;
    b.owed <- true

  let before_store ~on =
    if drains_before_store then retire ~on (Domain.DLS.get key)

  let after_store c =
    if enqueues_stores then enqueue (Domain.DLS.get key) c.line

  let read c =
    P.incr c_reads;
    if PE.is_on () then emit_cell Read c;
    read c

  let write c v =
    let on = PE.is_on () in
    before_store ~on;
    P.incr c_writes;
    P.incr c_pwrites;
    write c v;
    after_store c;
    if on then emit_cell Write c

  let cas c ~expected ~desired =
    let on = PE.is_on () in
    before_store ~on;
    P.incr c_cases;
    let hit = cas c ~expected ~desired in
    if hit then begin
      P.incr c_pwrites;
      after_store c
    end;
    if on then emit_cell (Cas hit) c;
    hit

  let flush_buffered c : PE.flush =
    let b = Domain.DLS.get key in
    if Hashtbl.mem b.lines (line_id c) then begin
      P.incr c_coalesced;
      b.calls <- b.calls + 1;
      b.owed <- true;
      Coalesced
    end
    else if Line.is_dirty c.line then begin
      enqueue b c.line;
      b.calls <- b.calls + 1;
      Buffered
    end
    else begin
      P.incr c_elided;
      Elided
    end

  let flush c =
    let outcome : PE.flush =
      if not eager then flush_buffered c
      else if flush_line c then begin
        P.incr c_flushes;
        Written_back
      end
      else begin
        P.incr c_elided;
        Elided
      end
    in
    if PE.is_on () then emit_cell (Flush outcome) c

  (* A fence with lines pending is the drain (one barrier, counted
     once), exactly as [Heap.fence]. *)
  let fence () =
    if (not eager) && Hashtbl.length (Domain.DLS.get key).lines > 0 then
      drain ()
    else begin
      count_fence ~on:(PE.is_on ()) 0;
      fence ()
    end

  let counters () =
    {
      Memory_intf.reads = P.get c_reads;
      writes = P.get c_writes;
      cases = P.get c_cases;
      pwrites = P.get c_pwrites;
      flushes = P.get c_flushes;
      elided_flushes = P.get c_elided;
      coalesced_flushes = P.get c_coalesced;
      fences = P.get c_fences;
      elided_fences = P.get c_elided_fences;
    }

  let reset_counters () =
    P.set c_reads 0;
    P.set c_writes 0;
    P.set c_cases 0;
    P.set c_pwrites 0;
    P.set c_flushes 0;
    P.set c_elided 0;
    P.set c_coalesced 0;
    P.set c_fences 0;
    P.set c_elided_fences 0
end

(** The eager instance: every flush writes back, [drain] is a no-op. *)
module Counted () = Make (struct
  let policy = Memory_intf.Policy.Eager
end)
()
