(** Low-level stepping machine for simulated threads.

    Threads are ordinary OCaml closures written against the simulated
    memory; each memory access performs an effect that suspends the thread
    and hands an explicit continuation to this machine.  [step] executes a
    thread's pending memory operation (one atomic step of the modelled
    machine) and runs the thread until its next memory access.

    Schedulers ({!Sim.run}) and the exhaustive explorer ({!Explore}) are
    thin loops over this module. *)

open Dssq_pmem

exception Killed
(** Raised inside a thread when the machine crashes underneath it. *)

(* The effect handler builds a thread's next state itself: a suspended
   thread is one [Waiting] block holding its pending event and
   continuation. *)
type thread_state =
  | Fresh of (unit -> unit)
  | Waiting :
      'a Sim_op.t * ('a, thread_state) Effect.Deep.continuation
      -> thread_state
  | Completed of (unit, exn) result

type t = {
  heap : Heap.t;
  threads : thread_state array;
  mutable steps : int;
  mutable cas_failed : bool;
  mutable flush_elided : bool;
}

type _ Effect.t += Mem : 'a Sim_op.t -> 'a Effect.t

let handler : (unit, thread_state) Effect.Deep.handler =
  {
    retc = (fun () -> Completed (Ok ()));
    exnc = (fun e -> Completed (Error e));
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Mem op ->
            Some
              (fun (k : (b, thread_state) Effect.Deep.continuation) ->
                Waiting (op, k))
        | _ -> None);
  }

let create heap bodies =
  {
    heap;
    threads = Array.of_list (List.map (fun f -> Fresh f) bodies);
    steps = 0;
    cas_failed = false;
    flush_elided = false;
  }

let nthreads t = Array.length t.threads

let is_runnable t tid =
  match t.threads.(tid) with Fresh _ | Waiting _ -> true | Completed _ -> false

let runnable t =
  let acc = ref [] in
  for i = Array.length t.threads - 1 downto 0 do
    if is_runnable t i then acc := i :: !acc
  done;
  !acc

let steps t = t.steps
let cas_failed t = t.cas_failed
let flush_elided t = t.flush_elided

(* Apply the pending event [op] on behalf of [tid], record the facts a
   cost model needs about it, and resume the thread to its next event. *)
let resume : type a.
    t -> int -> a Sim_op.t -> (a, thread_state) Effect.Deep.continuation ->
    thread_state =
 fun t tid op k ->
  (* Line dirtiness must be read before the flush clears it. *)
  t.flush_elided <-
    (match op with
    | Sim_op.Flush c -> not (Heap.flush_pending t.heap c)
    | _ -> false);
  (* The heap's coalescing buffers are per-thread: tell it whose behalf
     this operation applies on, and restore direct mode (-1) afterwards
     so non-scheduled code keeps its own buffer. *)
  t.heap.Heap.cur_tid <- tid;
  let result = Sim_op.apply t.heap op in
  t.heap.Heap.cur_tid <- -1;
  t.cas_failed <- (match op with Sim_op.Cas _ -> not result | _ -> false);
  Effect.Deep.continue k result

(** Execute one atomic step of thread [tid]: either start it (running it
    up to its first memory access) or apply its pending memory operation
    and run it to the next one. *)
let step t tid =
  match t.threads.(tid) with
  | Completed _ -> invalid_arg "Machine.step: thread already completed"
  | Fresh f ->
      t.steps <- t.steps + 1;
      t.cas_failed <- false;
      t.flush_elided <- false;
      t.threads.(tid) <- Effect.Deep.match_with f () handler
  | Waiting (op, k) ->
      t.steps <- t.steps + 1;
      t.threads.(tid) <- resume t tid op k

(** Cost class of the thread's next step, for the throughput model; a
    fresh thread's first step runs closure code only, like a [Yield]. *)
let next_kind t tid =
  match t.threads.(tid) with
  | Waiting (op, _) -> Sim_op.kind op
  | Fresh _ -> Sim_op.Yield
  | Completed _ -> invalid_arg "Machine.next_kind: thread already completed"

(** Persist line the thread's next step targets, or -1 — the throughput
    model serializes conflicting accesses per line. *)
let next_line t tid =
  match t.threads.(tid) with
  | Waiting (op, _) -> Sim_op.line op
  | Fresh _ | Completed _ -> -1

(** Identity of the thread's next step, for the explorer's independence
    relation.  [Start] is a [Fresh] thread's first step — it runs
    arbitrary closure code up to the first memory event, so the explorer
    must treat it as conflicting with everything.  [Pure] steps
    (fence/yield) touch no shared memory and commute with everything. *)
type access =
  | Start
  | Pure
  | Mem of { kind : Sim_op.kind; cell : int; line : int }

let pending_access t tid =
  match t.threads.(tid) with
  | Fresh _ -> Some Start
  | Waiting (Sim_op.Drain, _) ->
      (* A drain writes back the thread's whole pending-line set — a
         footprint the access summary cannot name, so treat it like
         [Start]: conflicting with everything (sound, conservative). *)
      Some Start
  | Waiting (Sim_op.Fence, _) when Heap.pending_for t.heap ~tid ->
      (* A fence by a thread with a nonempty persist buffer drains it
         (see [Heap.fence]) — same unnameable footprint as [Drain], so
         the same conservative verdict.  Under the eager policy the
         buffer is always empty and fences stay [Pure]. *)
      Some Start
  | Waiting (op, _) -> (
      match Sim_op.cell_id op with
      | Some cell ->
          Some (Mem { kind = Sim_op.kind op; cell; line = Sim_op.line op })
      | None -> Some Pure)
  | Completed _ -> None

(** Kill every unfinished thread, as a system-wide crash does.  Threads
    are discontinued with {!Killed} so their stacks unwind and any
    resources are released; the resulting exception is discarded. *)
let kill_all t =
  Array.iteri
    (fun i st ->
      match st with
      | Waiting (_, k) ->
          ignore (Effect.Deep.discontinue k Killed);
          t.threads.(i) <- Completed (Error Killed)
      | Fresh _ -> t.threads.(i) <- Completed (Error Killed)
      | Completed _ -> ())
    t.threads

let result t tid =
  match t.threads.(tid) with Completed r -> Some r | Fresh _ | Waiting _ -> None
