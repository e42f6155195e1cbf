(** A simulated asynchronous message-passing layer, built on the same
    memory substrate as everything else so that the one scheduler
    interleaves processes and injects crashes uniformly.

    Each process owns a mailbox: a single {e volatile} cell holding the
    list of undelivered messages.  [send] CAS-appends; [recv_all] swaps
    the list out.  Mailboxes are deliberately never flushed: a
    system-wide crash loses every message in flight, which is the
    message-passing analogue of losing the volatile cache — processes
    keep only what they explicitly persisted.

    Delivery is reliable and unordered while the system is up (the
    scheduler decides interleaving); there is no duplication. *)

module Make (M : Dssq_memory.Memory_intf.S) = struct
  type 'msg t = {
    mailboxes : 'msg list M.cell array;
    nprocs : int;
  }

  let create ~nprocs =
    {
      mailboxes =
        Array.init nprocs (fun i ->
            M.alloc ~name:(fun () -> Printf.sprintf "mbox[%d]" i) []);
      nprocs;
    }

  (** Send [msg] to process [dst] (never flushed: in-flight messages are
      volatile by design). *)
  let rec send t ~dst msg =
    let cur = M.read t.mailboxes.(dst) in
    if not (M.cas t.mailboxes.(dst) ~expected:cur ~desired:(msg :: cur)) then
      send t ~dst msg

  let broadcast t msg =
    for dst = 0 to t.nprocs - 1 do
      send t ~dst msg
    done

  (** Drain process [me]'s mailbox; [] if nothing arrived yet (poll in a
      loop — every poll is a scheduling point). *)
  let rec recv_all t ~me =
    let cur = M.read t.mailboxes.(me) in
    if cur = [] then []
    else if M.cas t.mailboxes.(me) ~expected:cur ~desired:[] then List.rev cur
    else recv_all t ~me
end
