(** A checksummed write-ahead log over persistent cells.

    The log is the durability backbone of whole-system recovery
    (ROADMAP item 2): allocation intents, frees, and root-directory
    registrations are appended {e before} the state change they
    describe becomes reachable (log-then-link), so replaying the log
    after a crash reconstructs every in-flight transition without
    scanning the heap blind.

    Layout.  Records are fixed-size — {!Codec.words_per_record} words:
    [kind], [a], [b], [checksum] — and each record's four cells are
    allocated as one co-located block, so at realistic line sizes a
    record persists with a single write-back.  The log is split into
    per-thread {e lanes} (as in per-thread logging designs such as
    Memento's), so concurrent appenders never interleave within a lane
    and each lane independently satisfies the prefix discipline:

    {v valid-record*  (torn-record)?  empty-slot* v}

    The checksum covers the record's absolute slot index (so a record
    copied to another slot does not validate), its kind, and both
    payload words, through a chain of bijective 63-bit mixing steps —
    any single-bit flip of any stored word changes the field being
    mixed and therefore the final sum (see {!Codec.checksum}), which
    [test/test_wal.ml] checks exhaustively by QCheck.

    Torn tails.  An append writes the payload words, then the
    checksum, then flushes and drains.  A crash in the middle leaves
    the lane's final record with a subset of its words persisted: the
    checksum cannot match (a matching sum would require every covered
    word, and itself, to have survived), so replay detects the record
    as torn and drops it — the logged transition simply never
    happened, which log-then-link makes safe by construction.  A
    non-final invalid record, by contrast, can never be produced by a
    crash (later records in the lane were appended — and persisted —
    after it), so replay reports it as corruption instead of guessing. *)

module Metrics = Dssq_obs.Metrics

exception Full of { lane : int }
(** A lane's slots are exhausted; the creator sized the log too small
    for the workload.  Carries the starved lane (= thread id). *)

exception Corrupted of { lane : int; slot : int }
(** Replay found an invalid record with valid records after it in the
    same lane — not a torn tail but genuine corruption (bit rot, or a
    torn record that later appends somehow skipped).  Recovery must not
    proceed past it silently; [dssq fsck] reports it and exits
    non-zero. *)

(** The pure record codec: checksum, encode, classify.  No memory
    backend involved, so the QCheck properties in [test/test_wal.ml]
    drive it directly. *)
module Codec = struct
  let words_per_record = 4

  (* Record kinds used by the recovery system.  0 is reserved: an
     all-zero slot is "never written".  Users may define further kinds
     (>= 16). *)
  let kind_alloc = 1 (* node allocation intent: a = node, b = pool/tid *)
  let kind_free = 2 (* node returned to a free list: a = node, b = pool/tid *)
  let kind_root = 3 (* root-directory registration: a = entry index *)

  (* One bijective mixing step mod 2^63: multiplication by an odd
     constant and xor-shift are both invertible, so distinct inputs
     stay distinct.  The constants are the (63-bit-truncated, odd)
     xorshift*/splitmix finalizer multipliers. *)
  let mix x =
    let x = x * 0x2545F4914F6CDD1D in
    let x = x lxor (x lsr 31) in
    let x = x * 0x27BB2EE687B0B0FD in
    x lxor (x lsr 27)

  (** Checksum of record [(kind, a, b)] stored at absolute slot
      [slot].  Each field enters through its own bijective step, so
      for any one field (the others fixed) the map field -> checksum
      is injective: flipping any single bit of [slot], [kind], [a] or
      [b] always changes the sum, and flipping a bit of the stored sum
      itself trivially mismatches.  This is a corruption {e detector}
      with deterministic single-bit coverage, not a cryptographic
      MAC. *)
  let checksum ~slot ~kind ~a ~b =
    mix (mix (mix (mix (slot + 0x9E3779B9) lxor kind) lxor a) lxor b)

  (** How a stored slot reads back.  Constant constructors: the caller
      already holds the words, so classifying allocates nothing. *)
  type classified =
    | Empty  (** all four words zero: never written *)
    | Valid
    | Invalid  (** nonzero but checksum (or kind) does not validate *)

  let classify ~slot ~kind ~a ~b ~sum =
    if kind = 0 && a = 0 && b = 0 && sum = 0 then Empty
    else if kind >= 1 && sum = checksum ~slot ~kind ~a ~b then Valid
    else Invalid
end

(** One decoded record, as handed to replay consumers. *)
type record = { r_lane : int; r_kind : int; r_a : int; r_b : int }

(** Verification verdict for one lane. *)
type lane_state =
  | Clean of int  (** [n] valid records, clean empty tail *)
  | Torn of { valid : int; at : int }
      (** [valid] good records, then one torn record at slot [at]
          (lane-relative), then empty — droppable, reportable *)
  | Corrupt of { at : int }
      (** invalid or empty slot at [at] with valid/nonzero slots after
          it: prefix discipline broken, not recoverable *)

let m_appends = Metrics.counter "wal_appends"
let m_replays = Metrics.counter "wal_replays"

(* The log's code, written once over any backend's cells: a log carries
   its backend's operations on its int cells ([ops]), so applying {!Make}
   allocates its [create] closure and its module block, not a closure
   per function.  The recovery system and every node pool apply [Make],
   so a model-checker world pays this once per application. *)
type 'c ops = {
  read : 'c -> int;
  write : 'c -> int -> unit;
  flush : 'c -> unit;
  drain : unit -> unit;
}

type 'c slot = { s_kind : 'c; s_a : 'c; s_b : 'c; s_sum : 'c }

type 'c t = {
  ops : 'c ops;
  name : string;
  lanes : int;
  lane_capacity : int;
  slots : 'c slot array;  (** [lanes * lane_capacity], lane-major *)
  cursors : int array;
      (** volatile per-lane append position; rebuilt by [replay] *)
  extents : int array;
      (** volatile per-lane bound: every slot at or past it is empty.
          Raised before any write can make a slot nonzero ([append],
          [corrupt_word]), lowered only by [replay]'s full-lane scan
          and by [truncate]; lets [truncate] skip the empty tail. *)
}

let lanes t = t.lanes
let lane_capacity t = t.lane_capacity
let abs_slot t ~lane i = (lane * t.lane_capacity) + i
let appended t = Array.fold_left ( + ) 0 t.cursors

(* Slot [i] of [lane] may hold a nonzero word from now on. *)
let extend t ~lane i =
  if t.extents.(lane) <= i then t.extents.(lane) <- i + 1

(** Append one record to [lane] and make it durable before
    returning: payload words, then the checksum, then a flush of the
    record's block and a drain.  This is the persistence point the
    log-then-link discipline relies on — when [append] returns, a
    crash at any later time replays the record (or, if the crash
    lands {e inside} [append], drops a detectably-torn tail). *)
let append t ~lane ~kind ~a ~b =
  if kind < 1 then invalid_arg "Wal.append: kind must be >= 1";
  if lane < 0 || lane >= t.lanes then invalid_arg "Wal.append: bad lane";
  let i = t.cursors.(lane) in
  if i >= t.lane_capacity then raise (Full { lane });
  let slot = abs_slot t ~lane i in
  let s = t.slots.(slot) in
  (* Before the first write, so a torn append is inside the extent. *)
  extend t ~lane i;
  t.ops.write s.s_kind kind;
  t.ops.write s.s_a a;
  t.ops.write s.s_b b;
  t.ops.write s.s_sum (Codec.checksum ~slot ~kind ~a ~b);
  (* One write-back at realistic line sizes (the block shares a
     line); at line size 1, four. *)
  t.ops.flush s.s_kind;
  t.ops.flush s.s_a;
  t.ops.flush s.s_b;
  t.ops.flush s.s_sum;
  t.ops.drain ();
  t.cursors.(lane) <- i + 1;
  Metrics.incr m_appends

(* Whether all four words of a slot are zero, without classifying it:
   no checksum, no allocation.  Reads in [walk]'s order (sum,
   b, a, kind) and stops at the first nonzero word. *)
let is_empty t ~lane i =
  let s = t.slots.(abs_slot t ~lane i) in
  t.ops.read s.s_sum = 0 && t.ops.read s.s_b = 0 && t.ops.read s.s_a = 0
  && t.ops.read s.s_kind = 0

(* Walk lanes [lane .. last] from slot [i] of the first: each lane's
   valid records, in append order (none unless [collect]), one list
   for all the lanes.  The first slot [j] of a lane that does not hold
   a valid record ends it with [on_lane lane status j] ([Empty] at
   [j] = the capacity).  Each slot is read once (sum, b, a, kind) and
   classified without allocating; tail-mod-cons builds the list front
   to back, so the only allocation is the records returned. *)
let[@tail_mod_cons] rec walk t ~collect ~on_lane ~last lane i =
  if lane > last then []
  else if i >= t.lane_capacity then begin
    on_lane lane Codec.Empty i;
    walk t ~collect ~on_lane ~last (lane + 1) 0
  end
  else
    let slot = abs_slot t ~lane i in
    let s = t.slots.(slot) in
    let sum = t.ops.read s.s_sum in
    let b = t.ops.read s.s_b in
    let a = t.ops.read s.s_a in
    let kind = t.ops.read s.s_kind in
    match Codec.classify ~slot ~kind ~a ~b ~sum with
    | Codec.Valid when collect ->
        { r_lane = lane; r_kind = kind; r_a = a; r_b = b }
        :: walk t ~collect ~on_lane ~last lane (i + 1)
    | Codec.Valid -> walk t ~collect ~on_lane ~last lane (i + 1)
    | (Codec.Empty | Codec.Invalid) as status ->
        on_lane lane status i;
        walk t ~collect ~on_lane ~last (lane + 1) 0

(* The verdict on [lane] whose valid prefix ends at slot [i] with
   [status], and the lane's extent (just past its last nonzero slot).
   Looks past the prefix to the lane's end, never bounded by the
   volatile extent: this is the check that refuses a nonzero word
   past the last record. *)
let lane_end t ~lane status i =
  let last = ref (-1) in
  for j = i + 1 to t.lane_capacity - 1 do
    if not (is_empty t ~lane j) then last := j
  done;
  match (status, !last) with
  | Codec.Invalid, -1 -> (Torn { valid = i; at = i }, i + 1)
  | _, -1 -> (Clean i, i)
  | _, last -> (Corrupt { at = i }, last + 1)

(* One lane's verdict; collects no records. *)
let scan_lane t lane =
  let verdict = ref (Clean 0) in
  let on_lane lane status i = verdict := fst (lane_end t ~lane status i) in
  ignore (walk t ~collect:false ~on_lane ~last:lane lane 0 : record list);
  !verdict

(** Classify every lane without mutating anything — the strict
    validation pass behind [dssq fsck]. *)
let states t = List.init t.lanes (scan_lane t)

(** Strict verification: [Ok n] with the total record count only if
    every lane is clean.  A torn tail — legal for {!replay} to drop —
    is still reported here, because [fsck] wants to surface it. *)
let verify t =
  let rec go lane acc =
    if lane >= t.lanes then Ok acc
    else
      match scan_lane t lane with
      | Clean n -> go (lane + 1) (acc + n)
      | Torn { valid; at } ->
          Error
            (Printf.sprintf
               "%s: lane %d has a torn record at slot %d (after %d valid)"
               t.name lane at valid)
      | Corrupt { at } ->
          Error
            (Printf.sprintf
               "%s: lane %d is corrupt at slot %d (nonzero data follows \
                an invalid or empty slot)"
               t.name lane at)
  in
  go 0 0

(** Replay the log after a crash: returns every valid record,
    lane-major and in append order within each lane, together with
    the number of torn tail records dropped.  Restores the volatile
    append cursors to the end of each lane's valid prefix, so the
    log is appendable again, and every lane's extent to just past its
    last nonzero slot — a refused log's lanes too, since a restart
    loses the extents and {!truncate} must still wipe what is there.
    Read-only on persistent state — replaying twice returns the same
    records and leaves the same heap (the idempotence property
    test_wal checks).
    @raise Corrupted on the first lane whose invalid record is not a
    tail. *)
let replay t =
  let torn = ref 0 and corrupt = ref None in
  let on_lane lane status i =
    let state, extent = lane_end t ~lane status i in
    t.extents.(lane) <- extent;
    match state with
    | Clean n -> t.cursors.(lane) <- n
    | Torn { valid; at = _ } ->
        incr torn;
        t.cursors.(lane) <- valid
    | Corrupt { at } -> if !corrupt = None then corrupt := Some (lane, at)
  in
  let records = walk t ~collect:true ~on_lane ~last:(t.lanes - 1) 0 0 in
  Option.iter (fun (lane, slot) -> raise (Corrupted { lane; slot })) !corrupt;
  Metrics.incr m_replays;
  (records, !torn)

(** Reset the log after a successful recovery checkpoint: zero every
    written slot, persistently, highest slot first within each lane
    and the checksum word first within each slot — so a crash in the
    middle of truncation still leaves each lane a valid prefix plus
    at most one torn record, never a corrupt interior.  Only slots
    below the lane's extent are looked at, and only the nonzero ones
    are written and flushed: the work is the records logged, not the
    lane's capacity. *)
let truncate t =
  for lane = 0 to t.lanes - 1 do
    (* The cursor may understate after a torn append; the extent
       covers it.  Wipe every nonzero slot from the top down. *)
    for i = t.extents.(lane) - 1 downto 0 do
      if not (is_empty t ~lane i) then begin
        let s = t.slots.(abs_slot t ~lane i) in
        t.ops.write s.s_sum 0;
        t.ops.write s.s_kind 0;
        t.ops.write s.s_a 0;
        t.ops.write s.s_b 0;
        t.ops.flush s.s_sum;
        t.ops.flush s.s_kind;
        t.ops.flush s.s_a;
        t.ops.flush s.s_b
      end
    done;
    t.cursors.(lane) <- 0;
    t.extents.(lane) <- 0
  done;
  t.ops.drain ()

(** Deliberately damage a stored record word — the corruption
    injection hook behind [dssq fsck --corrupt] and the checksum
    property tests.  [word] selects kind (0), a (1), b (2) or the
    checksum (3); the new value is [f old], written and persisted. *)
let corrupt_word t ~lane ~slot ~word ~f =
  if slot < 0 || slot >= t.lane_capacity then
    invalid_arg "Wal.corrupt_word: bad slot";
  let s = t.slots.(abs_slot t ~lane slot) in
  extend t ~lane slot;
  let tweak c =
    t.ops.write c (f (t.ops.read c));
    t.ops.flush c
  in
  (match word with
  | 0 -> tweak s.s_kind
  | 1 -> tweak s.s_a
  | 2 -> tweak s.s_b
  | 3 -> tweak s.s_sum
  | _ -> invalid_arg "Wal.corrupt_word: word must be 0..3");
  t.ops.drain ()

module Make (M : Dssq_memory.Memory_intf.S) = struct
  type nonrec t = int M.cell t

  let create ?(name = "wal") ~lanes ~lane_capacity () =
    if lanes < 1 then invalid_arg "Wal.create: lanes must be >= 1";
    if lane_capacity < 1 then
      invalid_arg "Wal.create: lane_capacity must be >= 1";
    let slots =
      Array.init (lanes * lane_capacity) (fun i ->
          match
            M.alloc_block
              ~name:(fun () -> name ^ "[" ^ string_of_int i ^ "]")
              [ 0; 0; 0; 0 ]
          with
          | [ k; a; b; s ] -> { s_kind = k; s_a = a; s_b = b; s_sum = s }
          | _ -> assert false)
    in
    {
      ops = { read = M.read; write = M.write; flush = M.flush; drain = M.drain };
      name;
      lanes;
      lane_capacity;
      slots;
      cursors = Array.make lanes 0;
      extents = Array.make lanes 0;
    }

  let lanes = lanes
  let lane_capacity = lane_capacity
  let appended = appended
  let append = append
  let states = states
  let verify = verify
  let replay = replay
  let truncate = truncate
  let corrupt_word = corrupt_word
end
