(** An executable rendering of the paper's foil: nesting-safe recoverable
    linearizability (NRL), Attiya, Ben-Baruch & Hendler (PODC 2018) — so
    that the DSS-vs-NRL comparison in Sections 1-2 of the paper can be
    demonstrated and tested rather than merely narrated.

    The two frameworks differ in exactly the ways the paper lists:

    + In NRL, {e every} operation is recoverable; in DSS, detectability
      is requested per operation ([prep-op]).
    + NRL's recovery function {e completes} the interrupted operation and
      returns its response; DSS's [resolve] merely {e reports} whether it
      took effect, leaving redo/skip policy to the application.
    + NRL relies on the system to resurrect a crashed process "by
      invoking the recovery function of the inner-most recoverable
      operation that was pending" — auxiliary state and machinery the
      paper calls crucial and difficult to implement.  {!Make.System}
      {e implements} that machinery, so its cost is visible: a persistent
      per-process stack of operation frames, pushed and flushed around
      every recoverable call.

    The implementation is deliberately a thin layer over the DSS base
    objects of [Dssq_core]: an NRL operation is [prep] + [exec], and the
    NRL recovery function is [resolve] + (if the operation did not take
    effect) [exec] again + return the response.  That this layering works
    at all is the paper's point that the DSS interface is the more
    primitive of the two; that the layer {e must} add announcements and a
    frame stack is the paper's point about NRL's hidden system support. *)

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module Cell = Dssq_core.Dss_cell.Make (M)

  (** The per-process operation-frame stack: the "system support"
      NRL assumes.  Every recoverable call pushes a persistent frame
      (which object, which operation) before running and pops it after;
      after a crash, {!System.recover_process} finds the inner-most
      pending frame and invokes its object's recovery function. *)
  module System = struct
    type frame = {
      obj_id : int;  (** registered object the operation targets *)
      opcode : int;
      arg : int;
      arg2 : int;  (** operation-specific auxiliary value *)
    }

    type t = {
      (* frames.(tid * max_depth + level): None = popped *)
      frames : frame option M.cell array;
      depth : int M.cell array; (* persistent stack pointer per process *)
      max_depth : int;
      nthreads : int;
      (* volatile registry: re-registered by the application at restart,
         like any function table *)
      mutable recoverers : (int * (tid:int -> frame -> int)) list;
    }

    let create ~nthreads ~max_depth =
      {
        frames =
          Array.init (nthreads * max_depth) (fun i ->
              M.alloc ~name:(fun () -> Printf.sprintf "frame[%d]" i) None);
        depth =
          Array.init nthreads (fun i ->
              M.alloc ~name:(fun () -> Printf.sprintf "depth[%d]" i) 0);
        max_depth;
        nthreads;
        recoverers = [];
      }

    (** Register the recovery function for an object id (done at startup,
        and again after every restart — code is volatile). *)
    let register t ~obj_id ~recover =
      t.recoverers <- (obj_id, recover) :: List.remove_assoc obj_id t.recoverers

    let slot t ~tid level = t.frames.((tid * t.max_depth) + level)

    (** Bracket a recoverable operation: persist the frame, run, pop.
        This pair of flushed writes around {e every} operation is the
        announcement cost NRL's model abstracts away. *)
    let call t ~tid ~obj_id ~opcode ~arg ?(arg2 = 0) body =
      let level = M.read t.depth.(tid) in
      if level >= t.max_depth then invalid_arg "Nrl.System.call: too deep";
      M.write (slot t ~tid level) (Some { obj_id; opcode; arg; arg2 });
      M.flush (slot t ~tid level);
      M.write t.depth.(tid) (level + 1);
      M.flush t.depth.(tid);
      let r = body () in
      M.write t.depth.(tid) level;
      M.flush t.depth.(tid);
      M.write (slot t ~tid level) None;
      M.flush (slot t ~tid level);
      r

    (** The system's post-crash duty: for process [tid], find the
        inner-most pending operation and invoke its recovery function,
        which completes the operation; then unwind the outer frames the
        same way, outermost last.  Returns the responses, inner-most
        first ([None] if nothing was pending). *)
    let recover_process t ~tid =
      let level = M.read t.depth.(tid) in
      let rec unwind l acc =
        if l < 0 then acc
        else begin
          match M.read (slot t ~tid l) with
          | None -> unwind (l - 1) acc
          | Some frame ->
              let recoverer =
                match List.assoc_opt frame.obj_id t.recoverers with
                | Some f -> f
                | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Nrl.System.recover_process: no recoverer for object %d"
                         frame.obj_id)
              in
              let r = recoverer ~tid frame in
              M.write (slot t ~tid l) None;
              M.flush (slot t ~tid l);
              unwind (l - 1) ((frame, r) :: acc)
        end
      in
      let results = unwind (level - 1) [] in
      M.write t.depth.(tid) 0;
      M.flush t.depth.(tid);
      results
  end

  (** A recoverable register with NRL semantics, layered on the
      detectable cell: [write] always recoverable; after a crash the
      recovery function {e completes} an interrupted write (re-executing
      it if it had not taken effect) and returns OK. *)
  module Register = struct
    let opcode_write = 1

    type t = {
      cell : int Cell.t;
      sys : System.t;
      obj_id : int;
    }

    let create ~sys ~obj_id ?(init = 0) ~nthreads () =
      let t = { cell = Cell.create ~nthreads init; sys; obj_id } in
      System.register sys ~obj_id
        ~recover:(fun ~tid (frame : System.frame) ->
          assert (frame.System.opcode = opcode_write);
          (match Cell.resolve t.cell ~tid with
          | Cell.Write_done v when v = frame.System.arg ->
              () (* took effect before the crash *)
          | Cell.Write_pending v when v = frame.System.arg ->
              Cell.exec_write t.cell ~tid
          | _ ->
              (* The cell's detection state predates this operation (the
                 prep itself was lost): start over.  NB the repeated-
                 identical-value corner here is the ambiguity the paper's
                 auxiliary-argument remedy (end of Section 2.1) exists
                 for. *)
              Cell.prep_write t.cell ~tid frame.System.arg;
              Cell.exec_write t.cell ~tid);
          0 (* OK *));
      t

    (** NRL-style recoverable write: announced via the system's frame
        stack, detectable underneath — unconditionally, which is the
        cost profile NRL imposes on every operation. *)
    let write t ~tid v =
      ignore
        (System.call t.sys ~tid ~obj_id:t.obj_id ~opcode:opcode_write ~arg:v
           (fun () ->
             Cell.prep_write t.cell ~tid v;
             Cell.exec_write t.cell ~tid;
             0))

    let read t = Cell.read t.cell
  end

  (** A recoverable counter (add), NRL semantics.  Counters are
      "doubly-perturbing" in the sense of Ben-Baruch, Hendler &
      Rusanovsky: recovering an interrupted increment exactly once
      requires per-process auxiliary state.  Here that state is explicit
      and classic: each process accumulates into its own single-writer
      contribution cell, the frame records the target value, and
      recovery compares — unambiguous because nobody else writes the
      cell.  The counter's value is the sum of contributions. *)
  module Counter = struct
    let opcode_add = 2

    type t = {
      contrib : int Cell.t array; (* single-writer per process *)
      sys : System.t;
      obj_id : int;
    }

    let create ~sys ~obj_id ~nthreads () =
      let t =
        {
          contrib = Array.init nthreads (fun _ -> Cell.create ~nthreads 0);
          sys;
          obj_id;
        }
      in
      System.register sys ~obj_id
        ~recover:(fun ~tid (frame : System.frame) ->
          let target = frame.System.arg2 in
          if Cell.read t.contrib.(tid) <> target then begin
            Cell.prep_write t.contrib.(tid) ~tid target;
            Cell.exec_write t.contrib.(tid) ~tid
          end;
          0);
      t

    let add t ~tid delta =
      let target = Cell.read t.contrib.(tid) + delta in
      ignore
        (System.call t.sys ~tid ~obj_id:t.obj_id ~opcode:opcode_add ~arg:delta
           ~arg2:target (fun () ->
             Cell.prep_write t.contrib.(tid) ~tid target;
             Cell.exec_write t.contrib.(tid) ~tid;
             0))

    let get t = Array.fold_left (fun acc c -> acc + Cell.read c) 0 t.contrib
  end
end
