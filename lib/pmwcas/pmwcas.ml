(** Persistent Multi-word Compare-And-Swap, after Wang, Levandoski &
    Larson (ICDE 2018) — the substrate of the paper's General and Fast
    CASWithEffect queue baselines (Figure 5b).

    Structure of an operation on descriptor [d]:

    + {b Install}: for each shared target word, in canonical (ascending
      address) order, replace the expected value with a pointer to [d]
      using an RDCSS sub-protocol (a conditional CAS that refuses to
      install once [d]'s status is decided, so late installs cannot
      corrupt a finished operation).  Any thread that reads a descriptor
      pointer helps the operation to completion first — the whole scheme
      is lock-free.
    + {b Persist + decide}: flush the installed words, then CAS the
      status from Undecided to Succeeded (or to Failed on an expected-
      value mismatch), and flush the status.  The status word is the
      linearization/persistence point.
    + {b Finalize}: replace each descriptor pointer with the new value
      (on success) or the expected value (on failure), flushing each.
      {e Private} words — words only their owner ever writes, the Fast
      CASWithEffect optimization — skip the install phase entirely and
      are simply written during finalize, saving a CAS, a read and an
      install flush per word.

    Descriptors live in per-thread pools of persistent words so that
    {b recovery} can roll every {e active} descriptor forward or back
    after a crash: an [active] flag is set (and flushed) before install
    and cleared after finalize, bounding exactly which descriptors
    recovery may touch (in particular, a stale Succeeded descriptor can
    never re-clobber a private word that later operations moved on).

    Word addresses are small ints handed out by {!alloc}; user values
    must be non-negative and below 2^52 (descriptor and RDCSS pointers
    are distinguished by tag bits 53 and 52, see [Dssq_core.Tagged]). *)

open Dssq_core

let undecided = 0
let succeeded = 1
let failed = 2

exception Descriptor_pool_exhausted of int

module Make (M : Dssq_memory.Memory_intf.S) = struct
  type t = {
    words : int M.cell array;
    mutable next_word : int;
    max_width : int;
    ring : int;
    nthreads : int;
    (* Descriptor pool, indexed 1 .. nthreads*ring.  Per-descriptor
       persistent fields: *)
    status : int M.cell array;
    meta : int M.cell array; (* word count lor [active_bit] *)
    (* Per-slot persistent descriptor content, one line per slot,
       indexed (d-1)*max_width + k: (target, expected, desired, private) *)
    slots : (int * int * int * bool) M.cell array;
    free_descs : int list ref array; (* volatile, thread-local *)
    ebr : int Dssq_ebr.Ebr.t;
  }

  let create ?(ring = 64) ?(max_width = 4) ~nwords ~nthreads () =
    let ndescs = nthreads * ring in
    let mk name count init =
      Array.init count (fun i ->
          M.alloc ~name:(fun () -> name ^ "[" ^ string_of_int i ^ "]") init)
    in
    let free_descs = Array.init nthreads (fun _ -> ref []) in
    for d = ndescs downto 1 do
      let owner = (d - 1) mod nthreads in
      free_descs.(owner) := d :: !(free_descs.(owner))
    done;
    let t =
      {
        words = mk "w" nwords 0;
        next_word = 0;
        max_width;
        ring;
        nthreads;
        status = mk "status" (ndescs + 1) undecided;
        meta = mk "meta" (ndescs + 1) 0;
        slots = mk "slot" (ndescs * max_width) (0, 0, 0, false);
        free_descs;
        ebr = Dssq_ebr.Ebr.create ~nthreads ~free:(fun ~tid:_ _ -> ()) ();
      }
    in
    (* EBR's free callback needs [t]; rebuild it with the real one. *)
    let ebr =
      Dssq_ebr.Ebr.create ~nthreads
        ~free:(fun ~tid d -> t.free_descs.(tid) := d :: !(t.free_descs.(tid)))
        ()
    in
    { t with ebr }

  (* -------------------- word management ---------------------------- *)

  let alloc t ?name v =
    ignore name;
    if t.next_word >= Array.length t.words then
      invalid_arg "Pmwcas.alloc: out of words";
    let a = t.next_word in
    t.next_word <- t.next_word + 1;
    M.write t.words.(a) v;
    M.flush t.words.(a);
    a

  let cell t a = t.words.(a)

  (** Direct store, for initialization and owner-private words that are
      not currently targeted by any descriptor. *)
  let write_quiet t a v =
    M.write t.words.(a) v;
    M.flush t.words.(a)

  let flush_word t a = M.flush t.words.(a)

  (* -------------------- descriptor encoding ------------------------ *)

  let desc_ptr d = Tagged.with_tag d Tagged.pmwcas_desc
  let is_desc v = v >= 0 && Tagged.has v Tagged.pmwcas_desc
  let desc_of v = Tagged.idx v
  let rdcss_ptr t d k = Tagged.with_tag (((d - 1) * t.max_width) + k) Tagged.pmwcas_rdcss
  let is_rdcss v = v >= 0 && Tagged.has v Tagged.pmwcas_rdcss

  let rdcss_of t v =
    let payload = Tagged.idx v in
    ((payload / t.max_width) + 1, payload mod t.max_width)

  let slot t d k = t.slots.(((d - 1) * t.max_width) + k)

  let active_bit = 1 lsl 30
  let count_of meta = meta land (active_bit - 1)
  let is_active meta = meta land active_bit <> 0

  (* Descriptors are striped across per-thread pools at creation. *)
  let owner_of t d = (d - 1) mod t.nthreads

  (* -------------------- the protocol ------------------------------- *)

  (* Finish an RDCSS in flight on some word: if the owning descriptor is
     still undecided the conditional holds and the descriptor pointer
     goes in; otherwise the expected value is restored. *)
  let complete_rdcss t ptr =
    let d, k = rdcss_of t ptr in
    let target_addr, expected, _, _ = M.read (slot t d k) in
    let target = t.words.(target_addr) in
    let replacement =
      if M.read t.status.(d) = undecided then desc_ptr d else expected
    in
    ignore (M.cas target ~expected:ptr ~desired:replacement)

  (* Install descriptor [d] into shared word slot [k].  [`Installed] if
     the word now holds (or held) [d]'s pointer; [`Failed v] on an
     expected-value mismatch. *)
  let rec install t ~tid d k =
    let target_addr, expected, _, _ = M.read (slot t d k) in
    let target = t.words.(target_addr) in
    let ptr = rdcss_ptr t d k in
    if M.cas target ~expected ~desired:ptr then begin
      complete_rdcss t ptr;
      `Installed
    end
    else begin
      let cur = M.read target in
      if cur = desc_ptr d then `Installed
      else if is_rdcss cur then begin
        complete_rdcss t cur;
        install t ~tid d k
      end
      else if is_desc cur then begin
        ignore (help t ~tid (desc_of cur));
        install t ~tid d k
      end
      else if cur = expected then install t ~tid d k
      else `Failed
    end

  (* Drive descriptor [d] to completion (install -> decide -> finalize);
     returns whether it succeeded.  Callable by any thread. *)
  and help t ~tid d =
    let n = count_of (M.read t.meta.(d)) in
    if M.read t.status.(d) = undecided then begin
      let rec install_all k =
        if k >= n then true
        else begin
          let _, _, _, priv = M.read (slot t d k) in
          if priv then install_all (k + 1)
          else
            match install t ~tid d k with
            | `Installed -> install_all (k + 1)
            | `Failed -> false
        end
      in
      if install_all 0 then begin
        (* Persist installed words before declaring success. *)
        for k = 0 to n - 1 do
          let target_addr, _, _, priv = M.read (slot t d k) in
          if not priv then M.flush t.words.(target_addr)
        done;
        ignore (M.cas t.status.(d) ~expected:undecided ~desired:succeeded)
      end
      else ignore (M.cas t.status.(d) ~expected:undecided ~desired:failed)
    end;
    M.flush t.status.(d);
    let st = M.read t.status.(d) in
    for k = 0 to n - 1 do
      let target_addr, expected, desired, priv = M.read (slot t d k) in
      let target = t.words.(target_addr) in
      if priv then begin
        (* Private words are plain stores, not CASes, so a stale helper
           could clobber a value the owner wrote for a LATER operation.
           Only the owner writes them (it always drives its own
           descriptor to completion before returning) — and recovery,
           which only processes still-active descriptors. *)
        if st = succeeded && tid = owner_of t d then begin
          M.write target desired;
          M.flush target
        end
      end
      else begin
        let final = if st = succeeded then desired else expected in
        (* The word may still hold an unfinished RDCSS of [d]. *)
        let cur = M.read target in
        if is_rdcss cur && fst (rdcss_of t cur) = d then complete_rdcss t cur;
        ignore (M.cas target ~expected:(desc_ptr d) ~desired:final);
        M.flush target
      end
    done;
    st = succeeded

  (* -------------------- public operations -------------------------- *)

  (** PMwCAS-aware read: helps any operation in flight on the word, then
      returns a plain value. *)
  let read t ~tid a =
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec go () =
      let v = M.read t.words.(a) in
      if is_rdcss v then begin
        complete_rdcss t v;
        go ()
      end
      else if is_desc v then begin
        ignore (help t ~tid (desc_of v));
        go ()
      end
      else v
    in
    let v = go () in
    Dssq_ebr.Ebr.exit t.ebr ~tid;
    v

  let take_desc t ~tid =
    match !(t.free_descs.(tid)) with
    | [] -> None
    | d :: rest ->
        t.free_descs.(tid) := rest;
        Some d

  (* Called inside the caller's EBR region.  When the ring is dry, every
     descriptor is waiting out a grace period, typically one held open by
     a preempted in-region thread: leave our own region (so it stalls no
     one, us included), pace the epochs forward until a descriptor comes
     back, and re-enter — as [Node_pool.alloc_reclaiming] does for
     nodes. *)
  let alloc_desc t ~tid =
    match take_desc t ~tid with
    | Some d -> d
    | None ->
        Dssq_ebr.Ebr.exit t.ebr ~tid;
        let rec go attempts =
          Dssq_ebr.Ebr.enter t.ebr ~tid;
          Dssq_ebr.Ebr.exit t.ebr ~tid;
          M.fence ();
          match take_desc t ~tid with
          | Some d -> d
          | None when attempts < 3_000_000 && Dssq_ebr.Ebr.pending t.ebr > 0 ->
              go (attempts + 1)
          | None -> raise (Descriptor_pool_exhausted tid)
        in
        let d = go 0 in
        Dssq_ebr.Ebr.enter t.ebr ~tid;
        d

  (** [pmwcas t ~tid entries] atomically, and persistently, applies every
      [(addr, expected, desired, kind)] update, or none of them.  Entries
      are sorted by address internally.  Private entries must target
      words only [tid] ever writes; their expected value is not
      validated. *)
  let pmwcas t ~tid entries =
    let entries =
      List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) entries
    in
    let n = List.length entries in
    if n > t.max_width then invalid_arg "Pmwcas.pmwcas: too many words";
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let d = alloc_desc t ~tid in
    (* Publish the descriptor's content persistently before going live:
       one line per word slot, the status word, then the meta word whose
       active bit tells recovery this descriptor is in flight. *)
    List.iteri
      (fun k (addr, old_v, new_v, kind) ->
        let cell = slot t d k in
        M.write cell (addr, old_v, new_v, kind = `Private);
        M.flush cell)
      entries;
    M.write t.status.(d) undecided;
    M.flush t.status.(d);
    M.write t.meta.(d) (n lor active_bit);
    M.flush t.meta.(d);
    let ok = help t ~tid d in
    M.write t.meta.(d) n;
    M.flush t.meta.(d);
    Dssq_ebr.Ebr.retire t.ebr ~tid d;
    Dssq_ebr.Ebr.exit t.ebr ~tid;
    ok

  (** Single-word CAS on a PMwCAS-managed word (helps in-flight
      operations as needed).  Does not flush on its own. *)
  let cas1 t ~tid a ~expected ~desired =
    Dssq_ebr.Ebr.enter t.ebr ~tid;
    let rec go () =
      if M.cas t.words.(a) ~expected ~desired then true
      else begin
        let cur = M.read t.words.(a) in
        if is_rdcss cur then begin
          complete_rdcss t cur;
          go ()
        end
        else if is_desc cur then begin
          ignore (help t ~tid (desc_of cur));
          go ()
        end
        else false
      end
    in
    let ok = go () in
    Dssq_ebr.Ebr.exit t.ebr ~tid;
    ok

  (* -------------------- recovery ----------------------------------- *)

  (** Post-crash recovery: roll every active descriptor forward
      (Succeeded) or back (Undecided/Failed).  Single-threaded, run
      before application threads resume. *)
  let recover t =
    let ndescs = t.nthreads * t.ring in
    for d = 1 to ndescs do
      let meta = M.read t.meta.(d) in
      if is_active meta then begin
        let st = M.read t.status.(d) in
        for k = 0 to count_of meta - 1 do
          let target_addr, expected, desired, priv = M.read (slot t d k) in
          let target = t.words.(target_addr) in
          let final = if st = succeeded then desired else expected in
          if priv then begin
            if st = succeeded then begin
              M.write target final;
              M.flush target
            end
          end
          else begin
            let cur = M.read target in
            if
              cur = desc_ptr d
              || (is_rdcss cur && fst (rdcss_of t cur) = d)
            then begin
              M.write target final;
              M.flush target
            end
          end
        done;
        M.write t.meta.(d) (count_of meta);
        M.flush t.meta.(d)
      end
    done;
    (* Reset volatile descriptor free lists. *)
    Array.iter (fun l -> l := []) t.free_descs;
    for d = ndescs downto 1 do
      let owner = (d - 1) mod t.nthreads in
      t.free_descs.(owner) := d :: !(t.free_descs.(owner))
    done
end
