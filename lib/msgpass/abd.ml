(** A detectable replicated register in the {e message-passing} model —
    the executable witness for the paper's portability claim (D2):
    "sequential specifications in general are compatible with message
    passing, shared memory, and m&m models" (Section 2).

    The base protocol is ABD-style multi-writer atomic storage:
    [nservers] server processes each hold a persistent (timestamp, value)
    pair; a write reads timestamps from a majority, picks a larger one,
    and writes to a majority; a read collects a majority, adopts the
    maximum, writes it back to a majority, and returns it.  Messages are
    volatile (lost at a crash); server state is flushed.

    The DSS layer lives entirely at the client: [prep_write] persists the
    intent locally (Axiom 1); [exec_write] runs the protocol, persisting
    the chosen timestamp {e before} the first write message leaves
    (so detection never has to reason about unknown timestamps) and the
    completion after the quorum acks.  [resolve] (Axiom 3) decides an
    interrupted write {e conclusively}:

    - intent only (no timestamp persisted): no write message was ever
      sent — report [(write v, ⊥)];
    - timestamp persisted, visible in a majority read: propagate it to a
      majority and report [(write v, OK)];
    - timestamp persisted, not visible: {e seal} it by writing the
      current maximum value under a timestamp that dominates the
      interrupted one everywhere (same n, same writer, higher attempt) to
      a majority — afterwards the half-written value can never become
      the maximum, so reporting [(write v, ⊥)] stays true forever.

    The sealed/completed dichotomy gives {e recoverable linearizability /
    persistent atomicity} (Guerraoui & Levy — the paper's reference
    condition for crash-recovery message passing): a completed-by-resolve
    write linearizes after the crash but before the client's next
    operation.  The tests check exactly that with the checker's
    [Recoverable] mode. *)

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module Net = Net.Make (M)

  type ts = { n : int; writer : int; attempt : int }

  let ts_compare a b =
    match compare a.n b.n with
    | 0 -> (
        match compare a.writer b.writer with
        | 0 -> compare a.attempt b.attempt
        | c -> c)
    | c -> c

  let ts_zero = { n = 0; writer = -1; attempt = 0 }

  type msg =
    | Read_req of { from : int; rid : int }
    | Read_rep of { rid : int; ts : ts; v : int }
    | Write_req of { from : int; rid : int; ts : ts; v : int }
    | Write_ack of { rid : int }

  (* Client-side persistent announcement: the A/R state of D<register>
     specialized to this protocol. *)
  type ann =
    | Idle
    | Prep of { v : int }
    | Phase2 of { ts : ts; v : int; seals : int }
    | Committed of { v : int }
    | Sealed of { v : int }  (* decided: did NOT take effect, forever *)

  type t = {
    net : msg Net.t;
    nservers : int;
    nclients : int;
    (* server persistent state: one line per server *)
    store : (ts * int) M.cell array;
    (* per-client persistent announcement *)
    ann : ann M.cell array;
    (* volatile: request ids and shutdown coordination *)
    rids : int array;
    clients_done : int M.cell;
  }

  let quorum t = (t.nservers / 2) + 1

  let create ~nservers ~nclients =
    {
      net = Net.create ~nprocs:(nservers + nclients);
      nservers;
      nclients;
      store =
        Array.init nservers (fun i ->
            M.alloc
              ~name:(fun () -> Printf.sprintf "store[%d]" i)
              (ts_zero, 0));
      ann =
        Array.init nclients (fun i ->
            M.alloc ~name:(fun () -> Printf.sprintf "ann[%d]" i) Idle);
      rids = Array.make nclients 0;
      clients_done = M.alloc ~name:(fun () -> "clients_done") 0;
    }

  (* ----------------------------- servers ----------------------------- *)

  (** Body of server [sid]; run it as a simulated thread.  Serves until
      [clients_done] reaches [until] (a volatile shutdown convention for
      failure-free runs; crashed runs are cut by the scheduler). *)
  let server t ~sid ~until () =
    let me = sid in
    let continue_serving = ref true in
    while !continue_serving do
      let msgs = Net.recv_all t.net ~me in
      List.iter
        (fun msg ->
          match msg with
          | Read_req { from; rid } ->
              let ts, v = M.read t.store.(sid) in
              Net.send t.net ~dst:from (Read_rep { rid; ts; v })
          | Write_req { from; rid; ts; v } ->
              let cur_ts, _ = M.read t.store.(sid) in
              if ts_compare ts cur_ts > 0 then begin
                M.write t.store.(sid) (ts, v);
                M.flush t.store.(sid)
              end;
              Net.send t.net ~dst:from (Write_ack { rid })
          | Read_rep _ | Write_ack _ -> ())
        msgs;
      if M.read t.clients_done >= until then continue_serving := false
    done

  (** Harness convention for restarting after a crash: clear the
      shutdown counter (it is coordination scaffolding, not protocol
      state, but a cache eviction at the crash may have persisted it). *)
  let reset_done t =
    M.write t.clients_done 0;
    M.flush t.clients_done

  (** Failure-free harness convention: each client bumps this when its
      program is finished, releasing the servers. *)
  let client_finished t =
    let rec bump () =
      let cur = M.read t.clients_done in
      if not (M.cas t.clients_done ~expected:cur ~desired:(cur + 1)) then bump ()
    in
    bump ()

  (* ------------------------- client protocol ------------------------- *)

  let client_pid t ci = t.nservers + ci

  let fresh_rid t ci =
    t.rids.(ci) <- t.rids.(ci) + 1;
    (ci * 1_000_000) + t.rids.(ci)

  (* Broadcast a read request and collect a quorum of replies. *)
  let quorum_read t ~ci =
    let me = client_pid t ci in
    let rid = fresh_rid t ci in
    for sid = 0 to t.nservers - 1 do
      Net.send t.net ~dst:sid (Read_req { from = me; rid })
    done;
    let best = ref (ts_zero, 0) in
    let count = ref 0 in
    while !count < quorum t do
      List.iter
        (fun msg ->
          match msg with
          | Read_rep { rid = r; ts; v } when r = rid ->
              incr count;
              if ts_compare ts (fst !best) > 0 then best := (ts, v)
          | _ -> ())
        (Net.recv_all t.net ~me)
    done;
    !best

  (* Broadcast a write and await a quorum of acks. *)
  let quorum_write t ~ci ts v =
    let me = client_pid t ci in
    let rid = fresh_rid t ci in
    for sid = 0 to t.nservers - 1 do
      Net.send t.net ~dst:sid (Write_req { from = me; rid; ts; v })
    done;
    let count = ref 0 in
    while !count < quorum t do
      List.iter
        (fun msg ->
          match msg with
          | Write_ack { rid = r } when r = rid -> incr count
          | _ -> ())
        (Net.recv_all t.net ~me)
    done

  (** Linearizable read (non-detectable): collect, adopt max, write back,
      return. *)
  let read t ~ci =
    let ts, v = quorum_read t ~ci in
    if ts.n > 0 then quorum_write t ~ci ts v;
    v

  (* --------------------------- DSS interface ------------------------- *)

  let prep_write t ~ci v =
    M.write t.ann.(ci) (Prep { v });
    M.flush t.ann.(ci)

  let exec_write t ~ci =
    match M.read t.ann.(ci) with
    | Prep { v } | Phase2 { v; _ } ->
        let max_ts, _ = quorum_read t ~ci in
        let ts = { n = max_ts.n + 1; writer = client_pid t ci; attempt = 0 } in
        (* Persist the chosen timestamp BEFORE any write message leaves:
           this is what makes post-crash detection conclusive. *)
        M.write t.ann.(ci) (Phase2 { ts; v; seals = 0 });
        M.flush t.ann.(ci);
        quorum_write t ~ci ts v;
        M.write t.ann.(ci) (Committed { v });
        M.flush t.ann.(ci)
    | Idle | Committed _ | Sealed _ ->
        invalid_arg "Abd.exec_write: no write prepared"

  type resolved =
    | Nothing
    | Write_pending of int
    | Write_done of int

  let pp_resolved fmt = function
    | Nothing -> Format.pp_print_string fmt "(_|_, _|_)"
    | Write_pending v -> Format.fprintf fmt "(write %d, _|_)" v
    | Write_done v -> Format.fprintf fmt "(write %d, OK)" v

  (** Detection (Axiom 3), run with the servers up.  Decides the fate of
      an interrupted write conclusively (complete or seal) and reports
      it; idempotent across repeated crashes during resolution. *)
  let resolve t ~ci =
    match M.read t.ann.(ci) with
    | Idle -> Nothing
    | Committed { v } -> Write_done v
    | Sealed { v } -> Write_pending v
    | Prep { v } ->
        (* The timestamp was never persisted, hence no write message was
           ever sent: the write certainly has no footprint. *)
        Write_pending v
    | Phase2 { ts; v; seals } ->
        let max_ts, max_v = quorum_read t ~ci in
        if max_ts = ts then begin
          (* Our write is the maximum: make it majority-stable, then
             report success. *)
          quorum_write t ~ci ts v;
          M.write t.ann.(ci) (Committed { v });
          M.flush t.ann.(ci);
          Write_done v
        end
        else if
          ts_compare max_ts ts > 0
          && max_ts.writer = ts.writer && max_ts.n = ts.n
        then begin
          (* The dominator is our OWN seal from an interrupted earlier
             resolution: the verdict was (or was about to be) "did not
             take effect" and must stay that way. *)
          M.write t.ann.(ci) (Sealed { v });
          M.flush t.ann.(ci);
          Write_pending v
        end
        else if ts_compare max_ts ts > 0 then begin
          (* A later foreign timestamp already dominates.  Whether our
             write reached a majority or a single server, "it linearized
             immediately before its dominator" is a valid history: any
             reader that saw the value is explained, and a reader that
             never sees it is explained by the overwrite.  Report success
             (persistent atomicity lets the effect fall after the crash,
             before this resolve). *)
          M.write t.ann.(ci) (Committed { v });
          M.flush t.ann.(ci);
          Write_done v
        end
        else begin
          (* Not visible in this quorum, so it reached at most a minority:
             seal it under a dominating timestamp carrying the current
             maximum value, so the orphan can never surface later.
             Persist the attempt first so repeated crashes during sealing
             use fresh timestamps. *)
          let attempt = seals + 1 in
          M.write t.ann.(ci) (Phase2 { ts; v; seals = attempt });
          M.flush t.ann.(ci);
          quorum_write t ~ci { ts with attempt } max_v;
          M.write t.ann.(ci) (Sealed { v });
          M.flush t.ann.(ci);
          Write_pending v
        end
end
