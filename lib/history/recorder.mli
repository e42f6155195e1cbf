(** Records histories from executing (simulated) threads.  Appends are
    atomic within a scheduling slice, so the recorded order is a valid
    real-time order. *)

type ('op, 'r) t

val create : unit -> ('op, 'r) t

val invoke : ('op, 'r) t -> tid:int -> 'op -> int
(** Record an invocation; returns the uid to pass to {!response}. *)

val response : ('op, 'r) t -> uid:int -> 'r -> unit

val crash : ('op, 'r) t -> unit
(** Record a system-wide crash; operations invoked but not yet responded
    stay pending, which is what the checker expects. *)

val history : ('op, 'r) t -> ('op, 'r) History.t

val length : ('op, 'r) t -> int
(** Events recorded so far. *)

val adopt : ('op, 'r) t -> from:('op, 'r) t -> unit
(** Replace [t]'s history with [from]'s, uids included, so [t] records on
    where [from] stopped; [from] is left unchanged. *)

val record : ('op, 'r) t -> tid:int -> 'op -> (unit -> 'r) -> 'r
(** [record t ~tid op f] wraps [f] between an invocation and a response;
    if [f] is cut off by a crash the invocation stays pending. *)
