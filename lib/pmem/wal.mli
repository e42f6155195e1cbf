(** Checksummed, fixed-record, per-thread-lane write-ahead log over
    persistent cells — the durability backbone of whole-system
    recovery.  See wal.ml for the format and the torn-tail argument. *)

exception Full of { lane : int }
(** The lane has no empty slots left. *)

exception Corrupted of { lane : int; slot : int }
(** Replay hit an invalid record that is not a torn tail. *)

module Codec : sig
  val words_per_record : int

  (** Record kinds used by the recovery system; user kinds >= 16. *)

  val kind_alloc : int
  val kind_free : int
  val kind_root : int

  val mix : int -> int
  (** One bijective 63-bit mixing step (exposed for tests). *)

  val checksum : slot:int -> kind:int -> a:int -> b:int -> int
  (** Slot-bound record checksum; any single-bit flip of any covered
      word (or of the stored sum) is detected deterministically. *)

  type classified = Empty | Valid | Invalid

  val classify :
    slot:int -> kind:int -> a:int -> b:int -> sum:int -> classified
  (** How a slot holding these four words reads back: all zero, a
      record that validates at [slot], or neither.  Allocates nothing;
      replay, [verify]/[states] and the tests all classify through it. *)
end

type record = { r_lane : int; r_kind : int; r_a : int; r_b : int }

type lane_state =
  | Clean of int
  | Torn of { valid : int; at : int }
  | Corrupt of { at : int }

module Make (M : Dssq_memory.Memory_intf.S) : sig
  type t

  val create : ?name:string -> lanes:int -> lane_capacity:int -> unit -> t
  val lanes : t -> int
  val lane_capacity : t -> int

  val appended : t -> int
  (** Total records in the log according to the volatile cursors. *)

  val append : t -> lane:int -> kind:int -> a:int -> b:int -> unit
  (** Durably append one record; when this returns the record survives
      any crash.  @raise Full when the lane is exhausted. *)

  val states : t -> lane_state list
  (** Per-lane classification, read-only. *)

  val verify : t -> (int, string) result
  (** Strict check: [Ok total_records] only if every lane is clean;
      torn tails and corruption both produce a descriptive [Error]. *)

  val replay : t -> record list * int
  (** Valid records (lane-major, append order within a lane) and the
      count of torn tail records dropped; restores append cursors.
      Idempotent. @raise Corrupted on a non-tail invalid record. *)

  val truncate : t -> unit
  (** Persistently zero the log (crash-safe: checksum word first,
      highest slot first) and reset the cursors.  Reads only the slots
      below each lane's volatile extent, and stores and flushes only
      the nonzero ones. *)

  val corrupt_word :
    t -> lane:int -> slot:int -> word:int -> f:(int -> int) -> unit
  (** Corruption-injection hook for tests and [dssq fsck --corrupt]:
      rewrite word [0..3] (kind, a, b, sum) of slot [slot] (which may
      be empty) and persist it.
      @raise Invalid_argument when [slot] is outside the lane. *)
end
