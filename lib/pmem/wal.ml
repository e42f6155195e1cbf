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

  (** How a stored slot reads back. *)
  type classified =
    | Empty  (** all four words zero: never written *)
    | Valid of { kind : int; a : int; b : int }
    | Invalid  (** nonzero but checksum (or kind) does not validate *)

  let classify ~slot ~kind ~a ~b ~sum =
    if kind = 0 && a = 0 && b = 0 && sum = 0 then Empty
    else if kind >= 1 && sum = checksum ~slot ~kind ~a ~b then
      Valid { kind; a; b }
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

module Make (M : Dssq_memory.Memory_intf.S) = struct
  type slot = {
    s_kind : int M.cell;
    s_a : int M.cell;
    s_b : int M.cell;
    s_sum : int M.cell;
  }

  type t = {
    name : string;
    lanes : int;
    lane_capacity : int;
    slots : slot array;  (** [lanes * lane_capacity], lane-major *)
    cursors : int array;
        (** volatile per-lane append position; rebuilt by [replay] *)
  }

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
    { name; lanes; lane_capacity; slots; cursors = Array.make lanes 0 }

  let lanes t = t.lanes
  let lane_capacity t = t.lane_capacity
  let abs_slot t ~lane i = (lane * t.lane_capacity) + i
  let appended t = Array.fold_left ( + ) 0 t.cursors

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
    M.write s.s_kind kind;
    M.write s.s_a a;
    M.write s.s_b b;
    M.write s.s_sum (Codec.checksum ~slot ~kind ~a ~b);
    (* One write-back at realistic line sizes (the block shares a
       line); at line size 1, four. *)
    M.flush s.s_kind;
    M.flush s.s_a;
    M.flush s.s_b;
    M.flush s.s_sum;
    M.drain ();
    t.cursors.(lane) <- i + 1;
    Metrics.incr m_appends

  let read_slot t ~lane i =
    let slot = abs_slot t ~lane i in
    let s = t.slots.(slot) in
    Codec.classify ~slot ~kind:(M.read s.s_kind) ~a:(M.read s.s_a)
      ~b:(M.read s.s_b) ~sum:(M.read s.s_sum)

  (* Scan one lane: the valid prefix, then what follows it. *)
  let scan_lane t lane =
    let records = ref [] in
    let i = ref 0 in
    let state = ref None in
    while !state = None && !i < t.lane_capacity do
      (match read_slot t ~lane !i with
      | Codec.Valid { kind; a; b } ->
          records := { r_lane = lane; r_kind = kind; r_a = a; r_b = b }
                     :: !records
      | Codec.Empty -> state := Some `Empty_at
      | Codec.Invalid -> state := Some `Invalid_at);
      if !state = None then incr i
    done;
    let valid = List.length !records in
    let rest_all_empty from =
      let ok = ref true in
      for j = from to t.lane_capacity - 1 do
        if !ok && read_slot t ~lane j <> Codec.Empty then ok := false
      done;
      !ok
    in
    let state =
      match !state with
      | None -> Clean valid
      | Some `Empty_at ->
          if rest_all_empty (!i + 1) then Clean valid
          else Corrupt { at = !i }
      | Some `Invalid_at ->
          if rest_all_empty (!i + 1) then Torn { valid; at = !i }
          else Corrupt { at = !i }
    in
    (state, List.rev !records)

  (** Classify every lane without mutating anything — the strict
      validation pass behind [dssq fsck]. *)
  let states t = List.init t.lanes (fun lane -> fst (scan_lane t lane))

  (** Strict verification: [Ok n] with the total record count only if
      every lane is clean.  A torn tail — legal for {!replay} to drop —
      is still reported here, because [fsck] wants to surface it. *)
  let verify t =
    let rec go lane acc =
      if lane >= t.lanes then Ok acc
      else
        match fst (scan_lane t lane) with
        | Clean n -> go (lane + 1) (acc + n)
        | Torn { valid; at } ->
            Error
              (Printf.sprintf
                 "%s: lane %d has a torn record at slot %d (after %d valid)"
                 t.name lane at valid)
        | Corrupt { at } ->
            Error
              (Printf.sprintf
                 "%s: lane %d is corrupt at slot %d (valid data follows an \
                  invalid record)"
                 t.name lane at)
    in
    go 0 0

  (** Replay the log after a crash: returns every valid record,
      lane-major and in append order within each lane, together with
      the number of torn tail records dropped.  Restores the volatile
      append cursors to the end of each lane's valid prefix, so the
      log is appendable again.  Read-only on persistent state —
      replaying twice returns the same records and leaves the same
      heap (the idempotence property test_wal checks).
      @raise Corrupted on a lane whose invalid record is not a tail. *)
  let replay t =
    let torn = ref 0 in
    let records =
      List.concat
        (List.init t.lanes (fun lane ->
             let state, records = scan_lane t lane in
             (match state with
             | Clean n -> t.cursors.(lane) <- n
             | Torn { valid; at = _ } ->
                 incr torn;
                 t.cursors.(lane) <- valid
             | Corrupt { at } -> raise (Corrupted { lane; slot = at }));
             records))
    in
    Metrics.incr m_replays;
    (records, !torn)

  (** Reset the log after a successful recovery checkpoint: zero every
      written slot, persistently, highest slot first within each lane
      and the checksum word first within each slot — so a crash in the
      middle of truncation still leaves each lane a valid prefix plus
      at most one torn record, never a corrupt interior. *)
  let truncate t =
    for lane = 0 to t.lanes - 1 do
      (* The cursor may understate after a torn append; wipe every
         nonzero slot from the top of the lane down. *)
      for i = t.lane_capacity - 1 downto 0 do
        if read_slot t ~lane i <> Codec.Empty then begin
          let s = t.slots.(abs_slot t ~lane i) in
          M.write s.s_sum 0;
          M.write s.s_kind 0;
          M.write s.s_a 0;
          M.write s.s_b 0;
          M.flush s.s_sum;
          M.flush s.s_kind;
          M.flush s.s_a;
          M.flush s.s_b
        end
      done;
      t.cursors.(lane) <- 0
    done;
    M.drain ()

  (** Deliberately damage a stored record word — the corruption
      injection hook behind [dssq fsck --corrupt] and the checksum
      property tests.  [word] selects kind (0), a (1), b (2) or the
      checksum (3); the new value is [f old], written and persisted. *)
  let corrupt_word t ~lane ~slot ~word ~f =
    let s = t.slots.(abs_slot t ~lane slot) in
    let tweak c =
      M.write c (f (M.read c));
      M.flush c
    in
    (match word with
    | 0 -> tweak s.s_kind
    | 1 -> tweak s.s_a
    | 2 -> tweak s.s_b
    | 3 -> tweak s.s_sum
    | _ -> invalid_arg "Wal.corrupt_word: word must be 0..3");
    M.drain ()
end
