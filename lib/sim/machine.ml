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

type status =
  | Done of (unit, exn) result
  | Paused : 'a Sim_op.t * ('a, status) Effect.Deep.continuation -> status

type thread_state =
  | Fresh of (unit -> unit)
  | Waiting of status (* always [Paused] *)
  | Completed of (unit, exn) result

type t = {
  heap : Heap.t;
  threads : thread_state array;
  mutable steps : int;
}

type _ Effect.t += Mem : 'a Sim_op.t -> 'a Effect.t

let handler : (unit, status) Effect.Deep.handler =
  {
    retc = (fun () -> Done (Ok ()));
    exnc = (fun e -> Done (Error e));
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Mem op ->
            Some
              (fun (k : (b, status) Effect.Deep.continuation) ->
                Paused (op, k))
        | _ -> None);
  }

let create heap bodies =
  { heap; threads = Array.of_list (List.map (fun f -> Fresh f) bodies); steps = 0 }

let nthreads t = Array.length t.threads

let runnable t =
  let acc = ref [] in
  for i = Array.length t.threads - 1 downto 0 do
    match t.threads.(i) with
    | Fresh _ | Waiting _ -> acc := i :: !acc
    | Completed _ -> ()
  done;
  !acc

let finished t = runnable t = []
let steps t = t.steps

let set t tid status =
  match status with
  | Done r -> t.threads.(tid) <- Completed r
  | Paused _ -> t.threads.(tid) <- Waiting status

(** Outcome of a step, for cost models: which operation ran, for a CAS
    whether it succeeded, and for a flush whether it actually wrote back
    (an elided flush costs nothing). *)
type step_info = { cas_success : bool option; flush_effective : bool option }

(** Execute one atomic step of thread [tid]: either start it (running it
    up to its first memory access) or apply its pending memory operation
    and run it to the next one. *)
let step t tid =
  match t.threads.(tid) with
  | Completed _ -> invalid_arg "Machine.step: thread already completed"
  | Fresh f ->
      t.steps <- t.steps + 1;
      set t tid (Effect.Deep.match_with f () handler);
      { cas_success = None; flush_effective = None }
  | Waiting (Paused (op, k)) ->
      t.steps <- t.steps + 1;
      (* Line dirtiness must be read before the flush clears it. *)
      let flush_effective = Sim_op.flush_pending t.heap op in
      (* The heap's coalescing buffers are per-thread: tell it whose
         behalf this operation applies on, and restore direct mode (-1)
         afterwards so non-scheduled code keeps its own buffer. *)
      t.heap.Heap.cur_tid <- tid;
      let result = Sim_op.apply t.heap op in
      t.heap.Heap.cur_tid <- -1;
      let info =
        match op with
        | Sim_op.Cas _ -> { cas_success = Some result; flush_effective }
        | Sim_op.Read _ | Sim_op.Write _ | Sim_op.Flush _ | Sim_op.Drain
        | Sim_op.Fence | Sim_op.Yield ->
            { cas_success = None; flush_effective }
      in
      set t tid (Effect.Deep.continue k result);
      info
  | Waiting (Done _) -> assert false

(** Cost class of the thread's next step, for the throughput model. *)
let pending_kind t tid =
  match t.threads.(tid) with
  | Waiting (Paused (op, _)) -> Some (Sim_op.kind op)
  | Fresh _ -> Some Sim_op.Yield
  | _ -> None

(** Persist line the thread's next step targets, if any — the
    throughput model serializes conflicting accesses per line. *)
let pending_target t tid =
  match t.threads.(tid) with
  | Waiting (Paused (op, _)) -> Sim_op.target op
  | Fresh _ | Completed _ | Waiting (Done _) -> None

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
  | Waiting (Paused (Sim_op.Drain, _)) ->
      (* A drain writes back the thread's whole pending-line set — a
         footprint the access summary cannot name, so treat it like
         [Start]: conflicting with everything (sound, conservative). *)
      Some Start
  | Waiting (Paused (Sim_op.Fence, _)) when Heap.pending_for t.heap ~tid ->
      (* A fence by a thread with a nonempty persist buffer drains it
         (see [Heap.fence]) — same unnameable footprint as [Drain], so
         the same conservative verdict.  Under the eager policy the
         buffer is always empty and fences stay [Pure]. *)
      Some Start
  | Waiting (Paused (op, _)) -> (
      match (Sim_op.cell_id op, Sim_op.target op) with
      | Some cell, Some line -> Some (Mem { kind = Sim_op.kind op; cell; line })
      | _ -> Some Pure)
  | Completed _ | Waiting (Done _) -> None

(** Kill every unfinished thread, as a system-wide crash does.  Threads
    are discontinued with {!Killed} so their stacks unwind and any
    resources are released; the resulting exception is discarded. *)
let kill_all t =
  Array.iteri
    (fun i st ->
      match st with
      | Waiting (Paused (_, k)) ->
          ignore (Effect.Deep.discontinue k Killed);
          t.threads.(i) <- Completed (Error Killed)
      | Fresh _ -> t.threads.(i) <- Completed (Error Killed)
      | Completed _ | Waiting (Done _) -> ())
    t.threads

let result t tid =
  match t.threads.(tid) with Completed r -> Some r | Fresh _ | Waiting _ -> None
