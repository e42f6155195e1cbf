(** A recoverable universal construction of [D<T>] for any sequential
    type [T] — the computability argument of Section 2.2: "a wait-free
    recoverable implementation of D<T> for any conventional type T can be
    obtained ... using Herlihy's universal construction", extended from
    the private-cache model to the volatile-cache model with explicit
    persistence instructions.

    Operations (including the auxiliary [prep-op], [exec-op] and
    [resolve] of [D<T>]) are agreed into a persistent log, one CAS
    consensus per slot; the abstract state — including the [A] and [R]
    detectability mappings — is a deterministic replay of the log.

    Persistence protocol: before attempting to append at slot [k], the
    appender flushes slot [k-1].  Hence the persisted log is always a
    {e prefix} of the volatile log (no holes), and recovery needs no
    repair at all: replaying the persisted prefix yields a strictly
    linearizable state in which every operation whose slot survived took
    effect and every other in-flight operation did not.  [resolve] after
    a crash is just another logged operation.

    This construction is lock-free (the paper's wait-free variant adds a
    helping/announce array; we keep the simple form and note that the
    transformation is standard).  It is linear-space in the number of
    operations, which also illustrates the linear space lower bound
    discussion of Section 2.2. *)

module Spec = Dssq_spec.Spec
module Dss_spec = Dssq_spec.Dss_spec

exception Log_full

module Make (M : Dssq_memory.Memory_intf.S) = struct
  type ('s, 'op, 'r) t = {
    dss : (('s, 'op, 'r) Dss_spec.state, 'op Dss_spec.op, ('op, 'r) Dss_spec.response) Spec.t;
    log : (int * 'op Dss_spec.op) option M.cell array; (* (tid, op) per slot *)
    capacity : int;
    hint : int array; (* volatile per-thread scan hint *)
  }

  let create ~nthreads ~capacity (spec : ('s, 'op, 'r) Spec.t) =
    {
      dss = Dss_spec.make ~nthreads spec;
      log =
        Array.init capacity (fun i ->
            M.alloc ~name:(fun () -> Printf.sprintf "log[%d]" i) None);
      capacity;
      hint = Array.make nthreads 0;
    }

  (* Replay the log up to (and including) slot [upto]; returns the state
     before slot [upto] and the entry there.  Entries that are not
     enabled in the replayed state are skipped: consensus decides order,
     the specification decides effect, and a skipped operation's response
     is the reserved [None]. *)
  let replay t ~upto =
    let state = ref t.dss.Spec.init in
    let response = ref None in
    for k = 0 to upto do
      match M.read t.log.(k) with
      | None -> ()
      | Some (tid, op) -> (
          match t.dss.Spec.apply !state ~tid op with
          | Some (s', r) ->
              state := s';
              if k = upto then response := Some r
          | None -> if k = upto then response := None)
    done;
    !response

  (** Agree operation [op] by process [tid] into the log and return its
      response ([None] if the operation was not enabled at its
      linearization point, e.g. an [exec-op] that was never prepared). *)
  let perform t ~tid (op : 'op Dss_spec.op) =
    let entry = Some (tid, op) in
    let rec find k =
      if k >= t.capacity then raise Log_full
      else if M.read t.log.(k) = None then k
      else find (k + 1)
    in
    let rec attempt k =
      let k = find k in
      (* Persist the predecessor so the persisted log stays a prefix. *)
      if k > 0 then M.flush t.log.(k - 1);
      if M.cas t.log.(k) ~expected:None ~desired:entry then begin
        M.flush t.log.(k);
        t.hint.(tid) <- k;
        replay t ~upto:k
      end
      else attempt k
    in
    attempt t.hint.(tid)

  (* Convenience wrappers over the D<T> operation alphabet. *)

  let prep t ~tid op =
    ignore (perform t ~tid (Dss_spec.Prep op))

  let exec t ~tid op =
    match perform t ~tid (Dss_spec.Exec op) with
    | Some (Dss_spec.Ret r) -> Some r
    | Some (Dss_spec.Ack | Dss_spec.Status _) | None -> None

  let apply t ~tid op =
    match perform t ~tid (Dss_spec.Base op) with
    | Some (Dss_spec.Ret r) -> Some r
    | Some (Dss_spec.Ack | Dss_spec.Status _) | None -> None

  let resolve t ~tid =
    match perform t ~tid Dss_spec.Resolve with
    | Some (Dss_spec.Status (a, r)) -> (a, r)
    | Some (Dss_spec.Ack | Dss_spec.Ret _) | None -> (None, None)

  (** Number of decided log slots (for tests and space accounting). *)
  let length t =
    let rec go k =
      if k >= t.capacity then k
      else match M.read t.log.(k) with None -> k | Some _ -> go (k + 1)
    in
    go 0

  (** Recovery is trivial by construction (see module doc): the volatile
      log after a crash {e is} the persisted prefix.  Provided for
      interface symmetry; it re-reads the log and returns its length. *)
  let recover t = length t
end
