(** A detectable persistent hash map, composed from detectable base
    objects — the "downstream" data structure story: once D<CAS> cells
    exist (Section 2.2), richer detectable structures are assembled from
    them plus one persistent announcement word per thread.

    Layout: open addressing with linear probing over {!Dss_cell} slots.
    A slot word packs a (key, value) pair; 0 is empty and a tombstone
    marks removals.  Every mutation is a detectable CAS on one slot.

    Detection: before preparing the slot CAS, the thread persists an
    {e announcement} — which slot it is operating on and the intended
    (op, key, value) — in its own announcement word.  [resolve] reads the
    announcement, asks the slot cell to resolve, and cross-checks that
    the cell's pending/complete operation is the announced one.  Thus the
    map inherits the cells' crash-safety and needs no recovery procedure
    of its own.

    Keys are in [1 .. 2^20-1], values in [0 .. 2^20-1].  Capacity is
    fixed; [Full] is raised when a probe sequence finds no slot. *)

exception Full

module type OPS = sig
  type t

  type resolved =
    | Nothing
    | Put_pending of int * int
    | Put_done of int * int
    | Remove_pending of int
    | Remove_done of int

  val find : t -> int -> int option
  val put : t -> tid:int -> int -> int -> unit
  val remove : t -> tid:int -> int -> unit
  val resolve : t -> tid:int -> resolved
end

module Make (M : Dssq_memory.Memory_intf.S) = struct
  module C = Dss_cell.Make (M)
  module Profile = Dssq_obs.Attrib

  let key_bits = 20
  let key_mask = (1 lsl key_bits) - 1
  let tombstone = 1 lsl 52
  let empty_slot = 0

  (* Announcement word: slot (bits 40-59 via lsl) | key | value | op tag. *)
  let ann_put = 1 lsl 61
  let ann_remove = 1 lsl 60

  let pack_kv ~key ~value = (key lsl key_bits) lor value
  let key_of w = (w lsr key_bits) land key_mask
  let value_of w = w land key_mask

  let pack_ann ~slot ~kv ~tag = (slot lsl 40) lor kv lor tag
  let ann_slot w = (w lsr 40) land key_mask
  let ann_kv w = w land ((1 lsl 40) - 1)

  type t = {
    slots : int C.t array;
    ann : int M.cell array; (* per-thread announcement *)
    nbuckets : int;
    nthreads : int;
  }

  type resolved =
    | Nothing
    | Put_pending of int * int
    | Put_done of int * int
    | Remove_pending of int
    | Remove_done of int

  let pp_resolved fmt = function
    | Nothing -> Format.pp_print_string fmt "(_|_, _|_)"
    | Put_pending (k, v) -> Format.fprintf fmt "(put %d %d, _|_)" k v
    | Put_done (k, v) -> Format.fprintf fmt "(put %d %d, OK)" k v
    | Remove_pending k -> Format.fprintf fmt "(remove %d, _|_)" k
    | Remove_done k -> Format.fprintf fmt "(remove %d, OK)" k

  let create ~nthreads ~nbuckets () =
    {
      slots =
        Array.init nbuckets (fun i ->
            C.create ~name:(fun () -> Printf.sprintf "slot[%d]" i) ~nthreads empty_slot);
      ann =
        Array.init nthreads (fun i ->
            M.alloc
              ~name:(fun () -> Printf.sprintf "ann[%d]" i)
              ~placement:Dssq_memory.Memory_intf.Line.Isolated 0);
      nbuckets;
      nthreads;
    }

  let hash t k = k * 2654435761 land max_int mod t.nbuckets

  let check_key k =
    if k < 1 || k > key_mask then invalid_arg "Dss_hashmap: key out of range"

  let check_value v =
    if v < 0 || v > key_mask then invalid_arg "Dss_hashmap: value out of range"

  (* Probe for [k]: the slot holding it, or the first reusable slot. *)
  let probe t k =
    let start = hash t k in
    let rec go i reuse =
      if i >= t.nbuckets then
        match reuse with Some s -> `Insert_at s | None -> raise Full
      else begin
        let idx = (start + i) mod t.nbuckets in
        let cur = C.read t.slots.(idx) in
        if cur = empty_slot then
          match reuse with Some s -> `Insert_at s | None -> `Insert_at idx
        else if cur <> tombstone && key_of cur = k then `Found (idx, cur)
        else
          let reuse =
            match reuse with
            | None when cur = tombstone -> Some idx
            | r -> r
          in
          go (i + 1) reuse
      end
    in
    go 0 None

  (* ---------------------- non-detectable reads ----------------------- *)

  let find t k =
    check_key k;
    match probe t k with
    | `Found (_, cur) -> Some (value_of cur)
    | `Insert_at _ -> None

  let mem t k = find t k <> None

  (* ---------------------------- mutations ---------------------------- *)

  (* One detectable CAS attempt on the announced slot; retries re-announce
     because a race can move the operation to a different slot or change
     the expected word. *)
  let rec attempt_put t ~tid k v =
    let slot, expected =
      match probe t k with
      | `Found (idx, cur) -> (idx, cur)
      | `Insert_at idx -> (idx, C.read t.slots.(idx))
    in
    (* If the insert target got taken meanwhile, re-probe. *)
    if expected <> empty_slot && expected <> tombstone && key_of expected <> k
    then attempt_put t ~tid k v
    else begin
      let kv = pack_kv ~key:k ~value:v in
      let sp = Profile.begin_span ~tid Profile.Announce in
      M.write t.ann.(tid) (pack_ann ~slot ~kv ~tag:ann_put);
      M.flush t.ann.(tid);
      Profile.end_span ~tid sp;
      C.prep_cas t.slots.(slot) ~tid ~expected ~desired:kv;
      if not (C.exec_cas t.slots.(slot) ~tid) then attempt_put t ~tid k v
    end

  (** Detectable insert-or-update; exactly-once via {!resolve}. *)
  let put t ~tid k v =
    check_key k;
    check_value v;
    let sp = Profile.begin_span ~tid Profile.Exec in
    attempt_put t ~tid k v;
    M.drain () (* persistence point *);
    Profile.end_span ~tid sp

  let rec attempt_remove t ~tid k =
    match probe t k with
    | `Insert_at _ -> () (* absent: nothing to remove *)
    | `Found (slot, expected) ->
        let sp = Profile.begin_span ~tid Profile.Announce in
        M.write t.ann.(tid)
          (pack_ann ~slot ~kv:(pack_kv ~key:k ~value:0) ~tag:ann_remove);
        M.flush t.ann.(tid);
        Profile.end_span ~tid sp;
        C.prep_cas t.slots.(slot) ~tid ~expected ~desired:tombstone;
        if not (C.exec_cas t.slots.(slot) ~tid) then attempt_remove t ~tid k

  (** Detectable remove (no-op if absent). *)
  let remove t ~tid k =
    check_key k;
    let sp = Profile.begin_span ~tid Profile.Exec in
    attempt_remove t ~tid k;
    M.drain () (* persistence point *);
    Profile.end_span ~tid sp

  (* ---------------------------- detection ---------------------------- *)

  let resolve_unprofiled t ~tid =
    let ann = M.read t.ann.(tid) in
    if ann = 0 then Nothing
    else begin
      let slot = ann_slot ann in
      let kv = ann_kv ann in
      let k = key_of kv and v = value_of kv in
      let is_put = ann land ann_put <> 0 in
      let pending () = if is_put then Put_pending (k, v) else Remove_pending k in
      let done_ () = if is_put then Put_done (k, v) else Remove_done k in
      match C.resolve t.slots.(slot) ~tid with
      | C.Cas_done (_, desired, true)
        when (is_put && desired = kv) || ((not is_put) && desired = tombstone)
        ->
          done_ ()
      | C.Cas_pending (_, desired)
        when (is_put && desired = kv) || ((not is_put) && desired = tombstone)
        ->
          pending ()
      | C.Cas_done (_, _, false) -> pending ()
      | _ ->
          (* The slot's detection state predates the announcement: the
             prepared CAS never reached the cell. *)
          pending ()
    end

  let resolve t ~tid =
    let sp = Profile.begin_span ~tid Profile.Resolve in
    let r = resolve_unprofiled t ~tid in
    Profile.end_span ~tid sp;
    r

  (** No recovery procedure: announcements and cells are self-describing.
      The empty recovery-scan span records exactly that in the phase
      attribution — recovery costs this map nothing. *)
  let recover (_ : t) =
    let sp = Profile.begin_span ~tid:(-1) Profile.Recovery_scan in
    Profile.end_span ~tid:(-1) sp

  (* -------------------------- introspection -------------------------- *)

  (* The composed footprint: every slot is a full detectable cell (one
     boxed state word plus one announce word per thread), and the map
     adds its own per-thread announcement on top.  Composition
     multiplies announce space by the number of base objects — exactly
     the regime the Ben-Baruch et al. lower bounds are about. *)
  let stats t : Detectable_intf.stats =
    {
      state_words = t.nbuckets;
      announce_words = t.nthreads * (t.nbuckets + 1);
    }

  let to_alist t =
    Array.to_list t.slots
    |> List.filter_map (fun c ->
           let cur = C.read c in
           if cur = empty_slot || cur = tombstone then None
           else Some (key_of cur, value_of cur))
    |> List.sort compare

  let length t = List.length (to_alist t)
end

let adapter (type h) (module H : OPS with type t = h) (h : h) :
    (Dssq_spec.Specs.Map.op, Dssq_spec.Specs.Map.response)
    Detectable_intf.adapter =
  let open Dssq_spec.Specs.Map in
  let call ~tid = function
    | Put (k, v) ->
        H.put h ~tid k v;
        Ok
    | Remove k ->
        H.remove h ~tid k;
        Ok
    | Find k -> ( match H.find h k with Some v -> Found v | None -> Absent)
  in
  {
    prep = (fun ~tid:_ _ -> ());
    exec = call;
    base = call;
    resolve =
      (fun ~tid : (op, response) Detectable_intf.resolved ->
        match H.resolve h ~tid with
        | H.Nothing -> Nothing
        | H.Put_pending (k, v) -> Pending (Put (k, v))
        | H.Put_done (k, v) -> Done (Put (k, v), Ok)
        | H.Remove_pending k -> Pending (Remove k)
        | H.Remove_done k -> Done (Remove k, Ok));
  }
