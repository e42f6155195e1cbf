(** The persist-event stream: every memory and persistence event of
    either backend, in one vocabulary, fanned out to subscribers.

    Backends (the sim heap, [Native.Make]) emit each event once;
    observers (the tracer, the attribution table) subscribe and fold
    the stream into their own views.  Emit sites are
    guarded by {!is_on}, so with no subscriber each costs one load and
    one branch and builds nothing. *)

(** Outcome of one flush call. *)
type flush =
  | Written_back  (** an eager flush wrote the line back *)
  | Elided  (** the line was clean: nothing to write back *)
  | Coalesced  (** the line was already in the thread's persist buffer *)
  | Buffered  (** the line entered the thread's persist buffer *)

type kind =
  | Read
  | Write
  | Cas of bool  (** [true] = the CAS hit and stored *)
  | Flush of flush  (** one flush call *)
  | Write_back of { effective : bool; adversary : bool }
      (** a buffered line leaving its persist buffer: [effective] when it
          was still dirty (otherwise elided); [adversary] when the crash
          adversary's asynchronous prefix drain wrote it, not a drain *)
  | Fence of int
      (** one persist barrier, with the number of flush calls it
          absorbed (0 for a fence with an empty buffer) *)
  | Verdict of bool
      (** crash verdict for one dirty cell's line: evicted to
          persistence ([true]) or dropped *)
  | Crashed  (** every verdict of one crash has been emitted *)
  | Alloc  (** a cell was allocated; [name] is its allocation label *)

type t = {
  kind : kind;
  tid : int;  (** acting thread; [-1] = system context *)
  cell : int;  (** cell id; [-1] when the backend has none (native) *)
  name : string;  (** cell name; [""] when the backend has none *)
  line : int;  (** persist line; [-1] for fences and crash markers *)
  dirty : bool;  (** the cell's (native: its line's) dirtiness after the event *)
}

type subscription

val subscribe : (t -> unit) -> subscription
(** Every event emitted until {!unsubscribe} reaches the subscriber, on
    the emitting domain. *)

val unsubscribe : subscription -> unit

val is_on : unit -> bool
(** Whether anyone is subscribed.  Emit sites test this first. *)

val emit :
  kind -> tid:int -> cell:int -> name:string -> line:int -> dirty:bool -> unit
(** Deliver one event to every subscriber. *)

val pin_tid : int -> unit
(** Name the thread native operations act for (default [-1], system
    context): native code has no scheduler, so drivers running workers
    one at a time pin each worker's id. *)

val pinned_tid : unit -> int
