(** A simulated persistent heap: the set of all allocated cells plus
    bookkeeping for crashes and statistics.

    The heap itself is single-domain: simulated "threads" are cooperative
    coroutines scheduled by [Dssq_sim], so plain mutation here is safe and
    deterministic.

    Persistence is line-granular: cells are placed into persist lines by
    a {!Line.Alloc} allocator at allocation time, [flush] writes back the
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
module Line = Dssq_memory.Memory_intf.Line
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

(* One thread's persist buffer: the lines it has flushed (and, under
   [Combine], stored) since its last drain, plus the flush calls the next
   drain's single barrier absorbs. *)
type fifo = {
  mutable entries : Line.t list;  (* newest first *)
  mutable calls : int;
}

(* A line's member cells, most recent first: a list over cells of any
   type, one block per member and no [Cell.Packed] box. *)
type members = Nil | Cons : 'a Cell.t * members -> members

type t = {
  mutable next_id : int;
  line_alloc : Line.Alloc.t;
  mutable line_members : members array;
      (* line id -> member cells, most recent first; flush persists all
         dirty members.  [Line.Alloc] hands ids out densely and in order,
         so slots [0, line_count) are exactly the lines in use (every
         line has a member, which also gives the line itself); the table
         grows by doubling.  A line's members are contiguous in
         allocation order ([Packed] fills only the open line; [Isolated]
         and blocks align), so walking line ids downwards and each line's
         members in order visits every cell most recently allocated
         first. *)
  mutable line_count : int;
  mutable dirty : int array;
  mutable ndirty : int;
      (* The dirty-line index.  Invariant: slots [0, ndirty) hold the
         ids of exactly the lines whose dirty flag is set, in no order,
         and each such line's flag is its slot here ({!Line.slot}).  A
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
  fifos : (int, fifo) Hashtbl.t;
      (* tid -> persist buffer.  Buffered lines stay dirty, so the crash
         adversary covers the whole flush-to-drain window. *)
  policy : Policy.t;
  mutable version : int;
      (* Bumped by every change to what a crash could leave behind: a
         store, an effective write-back, a buffer enqueue, reorder or
         drain, an allocation, a crash.  Reads, failed CASes without a
         drain, elided flushes and empty fences leave it alone, so an
         unchanged version means an unchanged crash state. *)
  mutable logging : bool;
  mutable persisted_log : int list;
      (* While [logging]: the lines whose persisted words changed since
         {!log_persists}, newest first, possibly repeated.  What a crash
         leaves differs from the state at the mark only on these lines
         and the dirty ones, so {!crash_into} loads just those. *)
}

let create ?(line_size = 1) ?policy ?(combine = false) () =
  let policy =
    match policy with
    | None -> if combine then Policy.Combine else Policy.Eager
    | Some p when combine && p <> Policy.Combine ->
        invalid_arg "Heap.create: ~combine:true with a different ~policy"
    | Some p -> p
  in
  {
    next_id = 0;
    line_alloc = Line.Alloc.create ~size:line_size ();
    line_members = [||];
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
    fifos = Hashtbl.create 8;
    policy;
    version = 0;
    logging = false;
    persisted_log = [];
  }

let policy t = t.policy

let touch t = t.version <- t.version + 1

let line_size t = Line.Alloc.line_size t.line_alloc

(* Enter a freshly placed line: ids arrive densely and in order, so a
   new line's id is always [line_count]. *)
let add_line t =
  let n = t.line_count in
  if n = Array.length t.line_members then begin
    let a = Array.make (max 64 (2 * n)) Nil in
    Array.blit t.line_members 0 a 0 n;
    t.line_members <- a
  end;
  t.line_count <- n + 1

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
  let lid = line.Line.id in
  if lid = t.line_count then add_line t;
  t.line_members.(lid) <- Cons (cell, t.line_members.(lid));
  if PE.is_on () then
    PE.emit Alloc ~tid:t.cur_tid ~cell:cell.Cell.id ~name:(Cell.name cell)
      ~line:lid ~dirty:false;
  cell

let alloc t ?(name = Name.none) ?placement v =
  add_cell t ~name ~elem:(-1) (Line.Alloc.place ?placement t.line_alloc) v

let rec alloc_elems t name i = function
  | [] -> []
  | v :: vs ->
      let c = add_cell t ~name ~elem:i (Line.Alloc.place t.line_alloc) v in
      c :: alloc_elems t name (i + 1) vs

(** Co-located cells: the block starts at a fresh line boundary and the
    allocator is re-aligned afterwards, so distinct blocks never share a
    line.  With the default line size a node's fields land on one line
    and cost one write-back to persist together.  Every element keeps
    the block's [name] and its own index; {!Cell.name} composes the two
    only when forced. *)
let alloc_block t ?(name = Name.none) vs =
  Line.Alloc.align t.line_alloc;
  let cells = alloc_elems t name 0 vs in
  Line.Alloc.align t.line_alloc;
  cells

let rec packed = function
  | Nil -> []
  | Cons (c, rest) -> Cell.Packed c :: packed rest

let members t (l : Line.t) =
  if l.Line.id < t.line_count then packed t.line_members.(l.Line.id) else []

(* A line is entered with its first member. *)
let line_of t lid =
  match t.line_members.(lid) with
  | Cons (c, _) -> c.Cell.line
  | Nil -> assert false

let line t lid =
  if lid < 0 || lid >= t.line_count then invalid_arg "Heap.line";
  line_of t lid

(* ------------------------------------------------------------------ *)
(* The dirty-line index (see [t.dirty]). *)

(* A store to [l]: enter it unless it is already dirty. *)
let mark_dirty t (l : Line.t) =
  if Line.slot l < 0 then begin
    let n = t.ndirty in
    if n = Array.length t.dirty then begin
      let a = Array.make (max 8 (2 * n)) 0 in
      Array.blit t.dirty 0 a 0 n;
      t.dirty <- a
    end;
    t.dirty.(n) <- l.Line.id;
    Line.set_slot l n;
    t.ndirty <- n + 1
  end

(* A write-back of [l]: take it out, returning whether it was dirty. *)
let take_dirty t (l : Line.t) =
  let s = Line.slot l in
  if s < 0 then false
  else begin
    let n = t.ndirty - 1 in
    if s < n then begin
      let last = t.dirty.(n) in
      t.dirty.(s) <- last;
      Line.set_slot (line_of t last) s
    end;
    t.ndirty <- n;
    Line.set_slot l Line.clean;
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
    ~line:c.Cell.line.Line.id ~dirty:c.Cell.dirty

(* A cell-less event: a fence or the end of a crash. *)
let emit_system t kind =
  PE.emit kind ~tid:t.cur_tid ~cell:(-1) ~name:"" ~line:(-1) ~dirty:false

let log_persist t lid =
  touch t;
  if t.logging then t.persisted_log <- lid :: t.persisted_log

(* Write the whole line back: every dirty member persists in the one
   write-back (CLWB acts on the full cache line). *)
let persist_line t (l : Line.t) =
  let rec go changed = function
    | Nil -> changed
    | Cons (m, rest) ->
        if m.Cell.dirty then begin
          m.Cell.persisted <- m.Cell.volatile;
          m.Cell.dirty <- false;
          go true rest
        end
        else go changed rest
  in
  if go false t.line_members.(l.Line.id) then log_persist t l.Line.id

(* ------------------------------------------------------------------ *)
(* Per-thread persist buffers.  Defined before the plain operations
   because stores consult them: under [Coalesced] a store first drains
   the storing thread's buffer, under [Combine] it enqueues its own
   line.  Under [Eager] the table stays empty. *)

let fifo t tid =
  match Hashtbl.find_opt t.fifos tid with
  | Some f -> f
  | None ->
      let f = { entries = []; calls = 0 } in
      Hashtbl.add t.fifos tid f;
      f

let pending_for t ~tid =
  match Hashtbl.find_opt t.fifos tid with
  | Some f -> f.entries <> []
  | None -> false

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
  if on then
    match t.line_members.(line.Line.id) with
    | Cons (m, _) -> emit t (Write_back { effective; adversary }) m
    | Nil -> ()

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
  match Hashtbl.find_opt t.fifos t.cur_tid with
  | None | Some { entries = []; _ } -> ()
  | Some f ->
      let fifo = List.rev f.entries and calls = f.calls in
      f.entries <- [];
      f.calls <- 0;
      touch t;
      List.iter (write_back t ~on ~adversary:false) fifo;
      t.stats.fences <- t.stats.fences + 1;
      t.stats.elided_fences <- t.stats.elided_fences + max 0 (calls - 1);
      if on then emit_system t (Fence calls)

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
  if not (Policy.relaxed t.policy) then []
  else
    Hashtbl.fold
      (fun tid f acc ->
        match f.entries with
        | [] -> acc
        | entries ->
            (tid, List.rev_map (fun (l : Line.t) -> l.Line.id) entries) :: acc)
      t.fifos []
    |> List.sort compare

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
   word-granular model charged each one ({!Line.flush_effective}). *)
let flush_eager t (c : 'a Cell.t) : PE.flush =
  let line = c.Cell.line in
  if take_dirty t line || line.Line.size <= 1 then begin
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
  if t.policy = Policy.Eager then Line.flush_pending c.Cell.line
  else Line.is_dirty c.Cell.line

let fence t =
  if pending_for t ~tid:t.cur_tid then drain t
  else begin
    t.stats.fences <- t.stats.fences + 1;
    if PE.is_on () then emit_system t (Fence 0)
  end

let dirty_count t =
  let rec count n = function
    | Nil -> n
    | Cons (c, rest) -> count (if c.Cell.dirty then n + 1 else n) rest
  in
  let n = ref 0 in
  for i = 0 to t.ndirty - 1 do
    n := count !n t.line_members.(t.dirty.(i))
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
  if not (Policy.relaxed t.policy) then dirty_lines t
  else
    dirty_ids t ~keep:(fun lid ->
        let l = line_of t lid in
        not (Hashtbl.fold (fun _ f acc -> acc || buffered f l) t.fifos false))

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
      match Hashtbl.find_opt t.fifos tid with
      | None -> ()
      | Some f ->
          let off = Option.value ~default:0 (List.assoc_opt tid !taken) in
          List.iteri
            (fun i (l : Line.t) ->
              if i >= off && i < off + count then begin
                let lid = l.Line.id in
                let effective =
                  Line.is_dirty l && not (List.mem lid !drained)
                in
                if effective then t.stats.flushes <- t.stats.flushes + 1
                else t.stats.elided_flushes <- t.stats.elided_flushes + 1;
                drained := lid :: !drained;
                if on then
                  match t.line_members.(lid) with
                  | Cons (m, _) ->
                      PE.emit
                        (Write_back { effective; adversary = true })
                        ~tid:t.cur_tid ~cell:m.Cell.id ~name:(Cell.name m)
                        ~line:lid ~dirty:false
                  | Nil -> ()
              end)
            (List.rev f.entries);
          taken := (tid, off + count) :: !taken)
    drains;
  !drained

(* Load one line's image: [s] are the crashed heap's members, [d] the
   target's; a dirty member survives when [persists]. *)
let rec load_line t ~on ~lid ~persists ~drained s d =
  match (s, d) with
  | Nil, Nil -> ()
  | Cons (c, srest), Cons (c', drest) ->
      if c.Cell.id <> c'.Cell.id then
        mismatch "line %d holds cell %d, the target heap's cell %d" lid c.Cell.id
          c'.Cell.id;
      if c.Cell.dirty then begin
        if on && not drained then
          PE.emit (Verdict persists) ~tid:t.cur_tid ~cell:c.Cell.id
            ~name:(Cell.name c) ~line:lid ~dirty:false;
        transfer c c' (if persists then c.Cell.volatile else c.Cell.persisted)
      end
      else transfer c c' c.Cell.persisted;
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
    let s = t.line_members.(lid) in
    let drained = drained <> [] && List.mem lid drained in
    let persists =
      match s with
      | Cons (c, _) when Line.is_dirty c.Cell.line -> drained || evict lid
      | _ -> false
    in
    load_line t ~on ~lid ~persists ~drained s into.line_members.(lid);
    if into.logging then into.persisted_log <- lid :: into.persisted_log
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
    Line.set_slot (line_of into into.dirty.(i)) Line.clean
  done;
  into.ndirty <- 0;
  (* Power loss wipes the persist buffers with the rest of volatile
     state: a buffered line that missed its drain prefix was still
     dirty, so its verdict above decided its fate. *)
  Hashtbl.reset into.fifos;
  touch into;
  if on then emit_system t Crashed

let log_persists t =
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
