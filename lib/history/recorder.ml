(** Records histories from executing threads.

    In the cooperative simulator the recorder is mutated only from the
    single scheduling domain, so a plain reversed list is sufficient and
    the recorded order is a valid real-time order (each append happens
    within one atomic scheduling slice). *)

type ('op, 'r) t = {
  mutable events : ('op, 'r) History.event list; (* newest first *)
  mutable length : int;
  mutable hash : int; (* over [events], oldest first *)
  mutable next_uid : int;
}

let create () = { events = []; length = 0; hash = 0; next_uid = 0 }

let push t e =
  t.events <- e :: t.events;
  t.length <- t.length + 1;
  t.hash <- (t.hash * 31) + Hashtbl.hash e

(** Record an invocation; returns the uid to pass to [response]. *)
let invoke t ~tid op =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  push t (History.Inv { uid; tid; op });
  uid

let response t ~uid r = push t (History.Res { uid; r })
let crash t = push t History.Crash
let history t : ('op, 'r) History.t = List.rev t.events
let newest_first t = t.events
let length t = t.length
let hash t = t.hash

(* The events are an immutable list, newest first: [t] shares [from]'s
   and conses its own in front, leaving [from] as it was. *)
let adopt t ~from =
  t.events <- from.events;
  t.length <- from.length;
  t.hash <- from.hash;
  t.next_uid <- from.next_uid

(** Record a complete operation around [f].  If [f] is cut off by a crash
    the invocation stays pending, which is exactly what the checker
    needs. *)
let record t ~tid op f =
  let uid = invoke t ~tid op in
  let r = f () in
  response t ~uid r;
  r
