(** A simulated persistent heap: the set of all allocated cells plus
    bookkeeping for crashes and statistics.

    The heap itself is single-domain: simulated "threads" are cooperative
    coroutines scheduled by [Dssq_sim], so plain mutation here is safe and
    deterministic.

    Persistence is line-granular: cells are placed into persist lines at
    allocation time, as {!Dssq_memory.Memory_intf.Line.Alloc} places
    them for the native backend, [flush] writes back the
    cell's whole line (persisting every dirty member), flushing a clean
    line is elided, and a crash evicts or drops each line as a unit.

    How flushes reach the persistence domain is one {!Policy.t}: under
    [Eager] a flush writes back at once; under every other policy it
    enters the issuing thread's FIFO persist buffer, and drains write
    buffers back oldest first.

    Every event is emitted once to the {!Dssq_memory.Persist_event}
    stream, tagged with the acting thread ([cur_tid]); with no subscriber
    each operation pays one load and one branch.  Cell names are forced
    from their thunks only for an event actually emitted.

    The heap indexes its dirty lines, so what a store, a write-back, a
    crash and the model checker's dirty-line queries cost follows the
    lines an execution dirtied, not the size of the heap. *)

module PE = Dssq_memory.Persist_event
module Policy = Dssq_memory.Memory_intf.Policy
module Name = Dssq_memory.Memory_intf.Name

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

(* The heap's persist lines: its own records ({!Cell.line}), holding
   their members and their dirty-index slot, placed as
   {!Dssq_memory.Memory_intf.Line.Alloc} places the native backend's. *)
module Line = struct
  type t = Cell.line

  type placement = Dssq_memory.Memory_intf.Line.placement =
    | Packed
    | Isolated

  let id (l : t) = l.Cell.lid
  let is_dirty = Cell.line_is_dirty
end

open Cell

(* One thread's persist buffer: the lines it has flushed (and, under
   [Combine], stored) since its last drain, plus the flush calls the next
   drain's single barrier absorbs. *)
type fifo = {
  mutable entries : Line.t list;  (* newest first *)
  mutable calls : int;
}

type t = {
  mutable next_id : int;
  line_size : int;
  mutable open_line : Line.t;
  mutable room : int;
      (* The line [Packed] cells fill: [open_line] takes [room] more
         cells.  [room = 0] means no line is open, and the next [Packed]
         cell opens one. *)
  mutable lines : Line.t array array;
      (* line id -> line, in chunks of [chunk_size]: line [lid] is slot
         [lid land chunk_mask] of chunk [lid lsr chunk_bits].  Ids are
         handed out densely and in order, so slots [0, line_count) are
         exactly the lines in use.  A full chunk is never copied: only
         the small chunk directory grows.  A line's members are
         contiguous in allocation order ([Packed] fills only the open
         line; [Isolated] and blocks close it), so walking line ids
         downwards and each line's members in order visits every cell
         most recently allocated first. *)
  mutable line_count : int;
  mutable dirty : int array;
  mutable ndirty : int;
      (* The dirty-line index.  Invariant: slots [0, ndirty) hold the
         ids of exactly the lines whose dirty flag is set, in no order,
         and each such line's [slot] is its slot here.  A
         store to a clean line appends it, a write-back moves the last
         entry into its slot, a crash empties it: O(1) each, and
         allocation only when the array grows past the heap's peak dirty
         count.  Ids, not lines, so no store pays a write barrier. *)
  stats : stats;
  mutable in_sim : bool;
      (* When true, memory operations must be routed through the scheduler
         (performed as effects); when false they apply directly — used for
         initialization and single-threaded recovery code. *)
  mutable cur_tid : int;
      (* Thread on whose behalf memory operations currently apply: set by
         the stepping machine before each step, -1 in direct mode.  Keys
         the per-thread persist buffers. *)
  mutable fifos : fifo array;
      (* Persist buffers: slot [tid + 1] is thread [tid]'s ([-1], direct
         mode, has slot 0).  Empty until the first buffered flush or
         store, so an eager heap allocates none.  Buffered lines stay
         dirty, so the crash adversary covers the whole flush-to-drain
         window. *)
  policy : Policy.t;
  mutable version : int;
      (* Bumped by every change to what a crash could leave behind: a
         store, an effective write-back, a buffer enqueue, reorder or
         drain, an allocation, a crash.  Reads, failed CASes without a
         drain, elided flushes and empty fences leave it alone, so an
         unchanged version means an unchanged crash state. *)
  mutable logging : bool;
  mutable logged : Bytes.t;
  mutable persisted_log : int list;
      (* While [logging]: the lines whose persisted words changed since
         {!log_persists}, each once, newest first.  Invariant: byte [lid]
         of [logged] is set exactly when [lid] is in the log, so entering
         a line is one byte test; the bytes are allocated at the first
         mark and cleared entry by entry at the next.  What a crash
         leaves differs from the state at the mark only on these lines
         and the dirty ones, so {!crash_into} loads just those, each
         once. *)
}

let chunk_bits = 5
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* Stands in for "no open line" ([room = 0]): never handed out, so never
   mutated. *)
let no_line = { lid = -1; slot = clean; members = Nil }

let create ?(line_size = 1) ?policy ?(combine = false) () =
  let policy =
    match policy with
    | None -> if combine then Policy.Combine else Policy.Eager
    | Some p when combine && p <> Policy.Combine ->
        invalid_arg "Heap.create: ~combine:true with a different ~policy"
    | Some p -> p
  in
  if line_size < 1 then invalid_arg "Heap.create: line_size must be >= 1";
  {
    next_id = 0;
    line_size;
    open_line = no_line;
    room = 0;
    lines = [||];
    line_count = 0;
    dirty = [||];
    ndirty = 0;
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
    fifos = [||];
    policy;
    version = 0;
    logging = false;
    logged = Bytes.empty;
    persisted_log = [];
  }

let policy t = t.policy

let touch t = t.version <- t.version + 1

let line_size t = t.line_size

let line_of t lid = t.lines.(lid lsr chunk_bits).(lid land chunk_mask)

(* A fresh line, entered in the table: ids are dense and in order, so
   its id is [line_count]. *)
let new_line t =
  let lid = t.line_count in
  let l = { lid; slot = clean; members = Nil } in
  let c = lid lsr chunk_bits in
  if lid land chunk_mask = 0 then begin
    if c = Array.length t.lines then begin
      let a = Array.make (max 4 (2 * c)) [||] in
      Array.blit t.lines 0 a 0 c;
      t.lines <- a
    end;
    t.lines.(c) <- Array.make chunk_size l
  end
  else t.lines.(c).(lid land chunk_mask) <- l;
  t.line_count <- lid + 1;
  l

(* The line for the next cell.  [Packed] fills the open line, opening a
   new one when it is full; [Isolated] takes a private line and leaves
   no line open, so later packed cells cannot share it. *)
let place t (placement : Line.placement) =
  match placement with
  | Isolated ->
      t.room <- 0;
      new_line t
  | Packed ->
      if t.room > 0 then begin
        t.room <- t.room - 1;
        t.open_line
      end
      else begin
        let l = new_line t in
        t.open_line <- l;
        t.room <- t.line_size - 1;
        l
      end

(* A fresh cell on [line]: element [elem] of a block named [name], or a
   scalar cell when [elem] is -1. *)
let add_cell t ~name ~elem (line : Line.t) v =
  let cell =
    {
      Cell.id = t.next_id;
      name;
      elem;
      line;
      volatile = v;
      persisted = v;
      dirty = false;
    }
  in
  t.next_id <- t.next_id + 1;
  touch t;
  line.members <-
    (match line.members with Nil -> One cell | ms -> Cons (cell, ms));
  if PE.is_on () then
    PE.emit Alloc ~tid:t.cur_tid ~cell:cell.Cell.id ~name:(Cell.name cell)
      ~line:line.lid ~dirty:false;
  cell

let alloc t ?(name = Name.none) ?(placement = Line.Packed) v =
  add_cell t ~name ~elem:(-1) (place t placement) v

let rec alloc_elems t name i = function
  | [] -> []
  | v :: vs ->
      let c = add_cell t ~name ~elem:i (place t Packed) v in
      c :: alloc_elems t name (i + 1) vs

(** Co-located cells: the block starts at a fresh line boundary and the
    allocator is re-aligned afterwards, so distinct blocks never share a
    line.  With the default line size a node's fields land on one line
    and cost one write-back to persist together.  Every element keeps
    the block's [name] and its own index; {!Cell.name} composes the two
    only when forced. *)
let alloc_block t ?(name = Name.none) vs =
  t.room <- 0;
  let cells = alloc_elems t name 0 vs in
  t.room <- 0;
  cells

let rec packed = function
  | Nil -> []
  | One c -> [ Cell.Packed c ]
  | Cons (c, rest) -> Cell.Packed c :: packed rest

let members t (l : Line.t) =
  if l.lid < t.line_count then packed (line_of t l.lid).members else []

let line t lid =
  if lid < 0 || lid >= t.line_count then invalid_arg "Heap.line";
  line_of t lid

(* ------------------------------------------------------------------ *)
(* The dirty-line index (see [t.dirty]). *)

(* A store to [l]: enter it unless it is already dirty. *)
let mark_dirty t (l : Line.t) =
  if l.slot < 0 then begin
    let n = t.ndirty in
    if n = Array.length t.dirty then begin
      let a = Array.make (max 8 (2 * n)) 0 in
      Array.blit t.dirty 0 a 0 n;
      t.dirty <- a
    end;
    t.dirty.(n) <- l.lid;
    l.slot <- n;
    t.ndirty <- n + 1
  end

(* A write-back of [l]: take it out, returning whether it was dirty. *)
let take_dirty t (l : Line.t) =
  let s = l.slot in
  if s < 0 then false
  else begin
    let n = t.ndirty - 1 in
    if s < n then begin
      let last = t.dirty.(n) in
      t.dirty.(s) <- last;
      (line_of t last).slot <- s
    end;
    t.ndirty <- n;
    l.slot <- clean;
    true
  end

(* Ids of the indexed lines that satisfy [keep], ascending. *)
let dirty_ids t ~keep =
  let acc = ref [] in
  for i = 0 to t.ndirty - 1 do
    let lid = t.dirty.(i) in
    if keep lid then acc := lid :: !acc
  done;
  List.sort Int.compare !acc

(* A cell event, with the cell's dirtiness AFTER the event, so a trace
   shows exactly which lines a crash can lose.  Callers test
   [PE.is_on] first. *)
let emit t kind (c : 'a Cell.t) =
  PE.emit kind ~tid:t.cur_tid ~cell:c.Cell.id ~name:(Cell.name c)
    ~line:c.Cell.line.lid ~dirty:c.Cell.dirty

(* A line leaving a persist buffer, or written back by a crash's drain
   prefix, reported under the line's most recently allocated member:
   clean, as the line is after the write-back. *)
let emit_write_back t ~effective ~adversary (l : Line.t) =
  let emit_clean (c : _ Cell.t) =
    PE.emit
      (Write_back { effective; adversary })
      ~tid:t.cur_tid ~cell:c.id ~name:(Cell.name c) ~line:l.lid ~dirty:false
  in
  match l.members with
  | Nil -> ()
  | One c -> emit_clean c
  | Cons (c, _) -> emit_clean c

(* A cell-less event: a fence or the end of a crash. *)
let emit_system t kind =
  PE.emit kind ~tid:t.cur_tid ~cell:(-1) ~name:"" ~line:(-1) ~dirty:false

(* While logging, enter [lid] into the log, once. *)
let note_persisted t lid =
  if t.logging then begin
    let n = Bytes.length t.logged in
    if lid >= n then begin
      (* A line allocated after the mark. *)
      let b = Bytes.make (max (lid + 1) (2 * n)) '\000' in
      Bytes.blit t.logged 0 b 0 n;
      t.logged <- b
    end;
    if Bytes.get t.logged lid = '\000' then begin
      Bytes.set t.logged lid '\001';
      t.persisted_log <- lid :: t.persisted_log
    end
  end

let log_persist t lid =
  touch t;
  note_persisted t lid

(* Persist [m] if it is dirty, returning whether it was. *)
let persist_cell (m : _ Cell.t) =
  m.dirty && begin
    m.persisted <- m.volatile;
    m.dirty <- false;
    true
  end

(* Write the whole line back: every dirty member persists in the one
   write-back (CLWB acts on the full cache line). *)
let persist_line t (l : Line.t) =
  let rec go changed = function
    | Nil -> changed
    | One m -> persist_cell m || changed
    | Cons (m, rest) -> go (persist_cell m || changed) rest
  in
  if go false l.members then log_persist t l.lid

(* ------------------------------------------------------------------ *)
(* Per-thread persist buffers.  Defined before the plain operations
   because stores consult them: under [Coalesced] a store first drains
   the storing thread's buffer, under [Combine] it enqueues its own
   line.  Under [Eager] none is ever allocated. *)

let fifo t tid =
  let i = tid + 1 in
  let n = Array.length t.fifos in
  if i >= n then
    t.fifos <-
      Array.init (max 4 (i + 1)) (fun j ->
          if j < n then t.fifos.(j) else { entries = []; calls = 0 });
  t.fifos.(i)

(* Thread [tid]'s buffered lines, newest first. *)
let entries t tid =
  let i = tid + 1 in
  if i < Array.length t.fifos then t.fifos.(i).entries else []

let pending_for t ~tid = entries t tid <> []

let buffered (f : fifo) (line : Line.t) = List.memq line f.entries

(* Move a buffered line to the FIFO tail, or enqueue it there: under
   [Combine] the buffered entry persists the line's current contents, so
   its position must follow the line's last modification or a prefix
   drain could persist a value newer than entries behind it. *)
let to_tail t (f : fifo) (line : Line.t) =
  match f.entries with
  | l :: _ when l == line -> ()
  | entries ->
      f.entries <- line :: List.filter (fun l -> l != line) entries;
      touch t

(* A line leaving a persist buffer, reported under the line's most
   recently allocated member. *)
let write_back t ~on ~adversary (line : Line.t) =
  let effective = take_dirty t line in
  if effective then begin
    t.stats.flushes <- t.stats.flushes + 1;
    persist_line t line
  end
  else t.stats.elided_flushes <- t.stats.elided_flushes + 1;
  if on then emit_write_back t ~effective ~adversary line

(* Buffered flush: record the cell's line in the current thread's FIFO
   instead of writing it back now.  A line already buffered is
   deduplicated ([coalesced_flushes]); a clean line has nothing to write
   back and is elided outright, {e at any} line size — the size-1
   always-charge rule of the eager flush exists only to reproduce the
   legacy eager cost model.  Volatile and persisted state are untouched:
   the line stays dirty until the drain. *)
let flush_buffered t (c : 'a Cell.t) : PE.flush =
  let line = c.Cell.line in
  let f = fifo t t.cur_tid in
  if buffered f line then begin
    t.stats.coalesced_flushes <- t.stats.coalesced_flushes + 1;
    f.calls <- f.calls + 1;
    if Policy.enqueues_stores t.policy then to_tail t f line;
    Coalesced
  end
  else if Line.is_dirty line then begin
    f.entries <- line :: f.entries;
    f.calls <- f.calls + 1;
    touch t;
    Buffered
  end
  else begin
    t.stats.elided_flushes <- t.stats.elided_flushes + 1;
    Elided
  end

(** Drain the current thread's persist buffer: write every buffered line
    back in FIFO order and fence once.  Counts one effective flush per
    line that is still dirty (a concurrent drain may have beaten us to a
    shared line), one fence for the barrier, and [k-1] elided fences for
    the [k] flush calls the barrier absorbed. *)
let drain_fifo t ~on =
  if pending_for t ~tid:t.cur_tid then begin
    let f = t.fifos.(t.cur_tid + 1) in
    let fifo = List.rev f.entries and calls = f.calls in
    f.entries <- [];
    f.calls <- 0;
    touch t;
    List.iter (write_back t ~on ~adversary:false) fifo;
    t.stats.fences <- t.stats.fences + 1;
    t.stats.elided_fences <- t.stats.elided_fences + max 0 (calls - 1);
    if on then emit_system t (Fence calls)
  end

let drain t = drain_fifo t ~on:(PE.is_on ())

(* What a store does to the storing thread's buffer, before it applies.
   [Coalesced]: complete the pending flushes first — folding the drain
   into the same atomic step is sound, a drain changes no volatile state
   and the crash state "just after the drain" is already reachable by
   evicting every pending line at a crash before this step.  Every other
   policy leaves the buffer alone: under [Px86] and [Combine] the
   decoupling of persist order from store order is the model. *)
let before_store t ~on =
  if Policy.drains_before_store t.policy then drain_fifo t ~on

(* ... and after it applies.  [Combine] runs under buffered strict
   persistency (Pelley et al.'s strict model with asynchronous
   buffering): every store or CAS enqueues its line, so no line a
   simulated thread dirties is ever outside a buffer and the crash
   adversary's free-form per-line verdicts cannot persist a store ahead
   of the stores before it. *)
let after_store t (line : Line.t) =
  if Policy.enqueues_stores t.policy then to_tail t (fifo t t.cur_tid) line

(** Per-thread persist-buffer contents, oldest first: [(tid, lines)]
    sorted by thread id — the FIFOs the crash adversary draws drain
    prefixes over.  Empty unless the policy is {!Policy.relaxed}: under
    [Coalesced] every store drains first, so a buffered line is exactly
    a dirty line whose fate the per-line verdicts already decide. *)
let pending_fifos t =
  let rec from i acc =
    if i < 0 then acc
    else
      match t.fifos.(i).entries with
      | [] -> from (i - 1) acc
      | entries ->
          from (i - 1) ((i - 1, List.rev_map Line.id entries) :: acc)
  in
  if not (Policy.relaxed t.policy) then []
  else from (Array.length t.fifos - 1) []

let read t (c : 'a Cell.t) : 'a =
  t.stats.reads <- t.stats.reads + 1;
  if PE.is_on () then emit t Read c;
  c.volatile

let write t (c : 'a Cell.t) (v : 'a) =
  let on = PE.is_on () in
  before_store t ~on;
  t.stats.writes <- t.stats.writes + 1;
  t.stats.pwrites <- t.stats.pwrites + 1;
  c.volatile <- v;
  c.dirty <- true;
  touch t;
  mark_dirty t c.line;
  after_store t c.line;
  if on then emit t Write c

let cas t (c : 'a Cell.t) ~(expected : 'a) ~(desired : 'a) =
  let on = PE.is_on () in
  before_store t ~on;
  t.stats.cases <- t.stats.cases + 1;
  let hit =
    if Cell.value_equal c.volatile expected then begin
      t.stats.pwrites <- t.stats.pwrites + 1;
      c.volatile <- desired;
      c.dirty <- true;
      touch t;
      mark_dirty t c.line;
      after_store t c.line;
      true
    end
    else false
  in
  if on then emit t (Cas hit) c;
  hit

(* At line size 1 every flush writes back, clean or not: the seed's
   word-granular model charged each one. *)
let flush_eager t (c : 'a Cell.t) : PE.flush =
  let line = c.Cell.line in
  if take_dirty t line || t.line_size <= 1 then begin
    t.stats.flushes <- t.stats.flushes + 1;
    persist_line t c.Cell.line;
    Written_back
  end
  else begin
    t.stats.elided_flushes <- t.stats.elided_flushes + 1;
    Elided
  end

let flush t c =
  let outcome =
    if t.policy = Policy.Eager then flush_eager t c else flush_buffered t c
  in
  if PE.is_on () then emit t (Flush outcome) c

(** Whether flushing [c] now would write its line back, without changing
    any state — asked by cost models before the flush applies.  A
    buffered flush of a clean line is elided at any line size. *)
let flush_pending t (c : 'a Cell.t) =
  t.policy = Policy.Eager && t.line_size <= 1 || Line.is_dirty c.Cell.line

let fence t =
  if pending_for t ~tid:t.cur_tid then drain t
  else begin
    t.stats.fences <- t.stats.fences + 1;
    if PE.is_on () then emit_system t (Fence 0)
  end

let dirty_count t =
  let rec count n = function
    | Nil -> n
    | One c -> if c.Cell.dirty then n + 1 else n
    | Cons (c, rest) -> count (if c.Cell.dirty then n + 1 else n) rest
  in
  let n = ref 0 in
  for i = 0 to t.ndirty - 1 do
    n := count !n (line_of t t.dirty.(i)).members
  done;
  !n

(** Ids of every line holding at least one dirty cell, ascending.  This
    is exactly the set over which a crash draws eviction verdicts — the
    model checker enumerates its subsets. *)
let dirty_lines t = dirty_ids t ~keep:(fun _ -> true)

(** Lines eligible for a per-line eviction verdict at a crash.  Under
    [Eager] and [Coalesced] every dirty line qualifies.  Under [Px86] and
    [Combine] a line sitting in some thread's persist buffer reaches the persistence domain only through
    that buffer — in FIFO order, via an adversary prefix drain — so the
    free-form verdicts range over the dirty lines {e outside} every
    buffer (stores issued and never flushed). *)
let crash_candidate_lines t =
  let rec unbuffered l i =
    i < 0 || ((not (buffered t.fifos.(i) l)) && unbuffered l (i - 1))
  in
  if not (Policy.relaxed t.policy) then dirty_lines t
  else
    dirty_ids t ~keep:(fun lid ->
        unbuffered (line_of t lid) (Array.length t.fifos - 1))

(* ------------------------------------------------------------------ *)
(* A crash: its image, loaded into a fresh heap or into the crashed one. *)

exception Layout_mismatch of string

let mismatch fmt = Printf.ksprintf (fun m -> raise (Layout_mismatch m)) fmt

(* The one value transfer between two heaps.  [s] and [d] hold the same
   position in two set-ups of one case (or are one cell), so the same
   code allocated them with the same type; [crash_into] has checked the
   position, but OCaml cannot see that the two existential types are
   one. *)
let transfer : type a b. a Cell.t -> b Cell.t -> a -> unit =
 fun _s d v ->
  let v : b = Obj.magic v in
  if not (d.Cell.volatile == v && d.Cell.persisted == v) then begin
    d.Cell.volatile <- v;
    d.Cell.persisted <- v
  end;
  d.Cell.dirty <- false

(* The one write-back of the crash adversary's drain prefixes, the
   CLWBs that happened to complete before power failed: each
   [(tid, count)] takes the next [count] entries of [tid]'s buffer, in
   FIFO order (fewer when the buffer is shorter), and counts as
   [write_back] does: an effective flush when the line was dirty, an
   elided one otherwise. *)
let drained_lines t ~on drains =
  let taken = ref [] and drained = ref [] in
  List.iter
    (fun (tid, count) ->
      match entries t tid with
      | [] -> ()
      | entries ->
          let off = Option.value ~default:0 (List.assoc_opt tid !taken) in
          List.iteri
            (fun i (l : Line.t) ->
              if i >= off && i < off + count then begin
                let lid = l.lid in
                let effective =
                  Line.is_dirty l && not (List.mem lid !drained)
                in
                if effective then t.stats.flushes <- t.stats.flushes + 1
                else t.stats.elided_flushes <- t.stats.elided_flushes + 1;
                drained := lid :: !drained;
                if on then emit_write_back t ~effective ~adversary:true l
              end)
            (List.rev entries);
          taken := (tid, off + count) :: !taken)
    drains;
  !drained

(* Load one line's image: [s] are the crashed heap's members, [d] the
   target's; a dirty member survives when [persists]. *)
let load_cell t ~on ~lid ~persists ~drained (c : _ Cell.t) (c' : _ Cell.t) =
  if c.id <> c'.id then
    mismatch "line %d holds cell %d, the target heap's cell %d" lid c.id c'.id;
  if c.dirty then begin
    if on && not drained then
      PE.emit (Verdict persists) ~tid:t.cur_tid ~cell:c.id ~name:(Cell.name c)
        ~line:lid ~dirty:false;
    transfer c c' (if persists then c.volatile else c.persisted)
  end
  else transfer c c' c.persisted

let rec load_line t ~on ~lid ~persists ~drained s d =
  match (s, d) with
  | Nil, Nil -> ()
  | One c, One c' -> load_cell t ~on ~lid ~persists ~drained c c'
  | Cons (c, srest), Cons (c', drest) ->
      load_cell t ~on ~lid ~persists ~drained c c';
      load_line t ~on ~lid ~persists ~drained srest drest
  | _ -> mismatch "line %d holds a different number of cells" lid

let crash_into t ~into ~drains ~evict =
  let cold = into != t in
  if cold then begin
    if not t.logging then invalid_arg "Heap.crash_into: no log_persists mark";
    if t.next_id <> into.next_id || t.line_count <> into.line_count then
      mismatch "%d cells on %d lines, the target heap %d cells on %d lines"
        t.next_id t.line_count into.next_id into.line_count
  end;
  let on = PE.is_on () in
  (* Read before [into]'s index is cleared: in place, [into] is [t]. *)
  let dirty = List.rev (dirty_lines t) in
  let drained = if drains = [] then [] else drained_lines t ~on drains in
  let load ~on lid =
    let l = line_of t lid in
    let drained = drained <> [] && List.mem lid drained in
    let persists = Line.is_dirty l && (drained || evict lid) in
    load_line t ~on ~lid ~persists ~drained l.members (line_of into lid).members;
    note_persisted into lid
  in
  (* Only the lines [t] changed since its mark can differ from [into]:
     the dirty ones — most recently allocated first, one verdict each,
     in the order seeded crashes have always drawn them — and, cold,
     the logged ones.  A line dirty at the mark is dirty still, or was
     logged when it persisted. *)
  List.iter (load ~on) dirty;
  if cold then
    List.iter
      (fun lid -> if not (Line.is_dirty (line_of t lid)) then load ~on:false lid)
      t.persisted_log;
  for i = 0 to into.ndirty - 1 do
    (line_of into into.dirty.(i)).slot <- clean
  done;
  into.ndirty <- 0;
  (* Power loss wipes the persist buffers with the rest of volatile
     state: a buffered line that missed its drain prefix was still
     dirty, so its verdict above decided its fate. *)
  into.fifos <- [||];
  touch into;
  if on then emit_system t Crashed

let log_persists t =
  if t.logging && Bytes.length t.logged >= t.line_count then
    List.iter (fun lid -> Bytes.set t.logged lid '\000') t.persisted_log
  else t.logged <- Bytes.make t.line_count '\000';
  t.logging <- true;
  t.persisted_log <- []

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

let cell_count t = t.next_id
let line_count t = t.line_count
