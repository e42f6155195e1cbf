(** The register before the {!Dssq_core.Detectable} engine, packing each
    operation into single failure-atomic 64-bit words: value, writer id
    and an 8-bit sequence number in the register word; value, sequence
    number and PREP/COMPL/READ tags in the per-thread X word.  The oracle
    of [test_detectable.ml]'s equivalence property for
    [Dss_register.Make]. *)

module Make (M : Dssq_memory.Memory_intf.S) : Dssq_core.Dss_register.S = struct
  (* Register word: value (bits 0-39) | writer+1 (12 bits, 40-51) |
     seq (8 bits, 52-59).  writer+1 so that 0 encodes "initial value, no
     writer"; everything stays below bit 62 (OCaml ints are 63-bit). *)
  let value_bits = 40
  let value_mask = (1 lsl value_bits) - 1
  let writer_shift = value_bits
  let writer_mask = 0xFFF
  let seq_shift = value_bits + 12
  let seq_mask = 0xFF

  let pack ~value ~writer ~seq =
    value
    lor (((writer + 1) land writer_mask) lsl writer_shift)
    lor ((seq land seq_mask) lsl seq_shift)

  let value_of w = w land value_mask
  let writer_of w = ((w lsr writer_shift) land writer_mask) - 1
  let seq_of w = (w lsr seq_shift) land seq_mask

  (* X word: value (bits 0-39) | seq (8 bits, 48-55) | tags (56-58). *)
  let x_seq_shift = 48
  let x_prep = 1 lsl 58
  let x_compl = 1 lsl 57
  let x_read = 1 lsl 56

  let x_pack ~value ~seq ~tags =
    value lor ((seq land seq_mask) lsl x_seq_shift) lor tags

  let x_value w = w land value_mask
  let x_seq w = (w lsr x_seq_shift) land seq_mask
  let x_has w tag = w land tag <> 0

  type t = {
    reg : int M.cell;
    x : int M.cell array;
    seqs : int array; (* volatile per-thread operation counters *)
    nthreads : int;
  }

  type resolved =
    | Nothing
    | Write_pending of int
    | Write_done of int
    | Read_pending
    | Read_done of int

  let pp_resolved fmt = function
    | Nothing -> Format.pp_print_string fmt "(_|_, _|_)"
    | Write_pending v -> Format.fprintf fmt "(write %d, _|_)" v
    | Write_done v -> Format.fprintf fmt "(write %d, OK)" v
    | Read_pending -> Format.pp_print_string fmt "(read, _|_)"
    | Read_done v -> Format.fprintf fmt "(read, %d)" v

  let create ?(init = 0) ~nthreads () =
    if init < 0 || init > value_mask then invalid_arg "Dss_register.create";
    let reg =
      M.alloc
        ~name:(fun () -> "register")
        ~placement:Dssq_memory.Memory_intf.Line.Isolated
        (pack ~value:init ~writer:(-1) ~seq:0)
    in
    M.flush reg;
    M.drain ();
    {
      reg;
      x =
        Array.init nthreads (fun i ->
            M.alloc
              ~name:(fun () -> Printf.sprintf "Xr[%d]" i)
              ~placement:Dssq_memory.Memory_intf.Line.Isolated 0);
      seqs = Array.make nthreads 0;
      nthreads;
    }

  (* Mark the write currently stored in [word] complete in its writer's
     X — persistently — so that overwriting it cannot erase the evidence
     of its success.  CAS keeps helpers of different generations from
     clobbering each other. *)
  let help_complete t word =
    let w = writer_of word in
    if w >= 0 && w < t.nthreads then begin
      let x = M.read t.x.(w) in
      if
        x_has x x_prep
        && (not (x_has x x_compl))
        && (not (x_has x x_read))
        && x_seq x = seq_of word
        && x_value x = value_of word
      then begin
        if M.cas t.x.(w) ~expected:x ~desired:(x lor x_compl) then
          M.flush t.x.(w)
      end
    end

  (* ------------------------- non-detectable ------------------------- *)

  (* Persist what we are about to expose.  Without the flush, a reader
     can return a value installed by a not-yet-persisted CAS; a crash
     then drops the register line, the writer resolves as pending and
     re-executes — and no linearization can place the completed read
     (model-checker counterexample: explore
     --case register/write-read/crash/ls1).  Flushing the observed line
     before returning is durable linearizability's flush-on-read. *)
  let read t ~tid:_ =
    let w = M.read t.reg in
    M.flush t.reg;
    M.drain () (* the flush-on-read must complete before we return *);
    value_of w

  (* Even a non-detectable write must help the previous writer before
     destroying its evidence. *)
  let rec write t ~tid v =
    if v < 0 || v > value_mask then invalid_arg "Dss_register.write";
    let cur = M.read t.reg in
    help_complete t cur;
    (* Non-detectable writes carry no provenance. *)
    if M.cas t.reg ~expected:cur ~desired:(pack ~value:v ~writer:(-1) ~seq:0)
    then begin
      M.flush t.reg;
      M.drain ()
    end
    else write t ~tid v

  (* --------------------------- detectable --------------------------- *)

  let prep_write t ~tid v =
    if v < 0 || v > value_mask then invalid_arg "Dss_register.prep_write";
    t.seqs.(tid) <- (t.seqs.(tid) + 1) land seq_mask;
    M.write t.x.(tid) (x_pack ~value:v ~seq:t.seqs.(tid) ~tags:x_prep);
    M.flush t.x.(tid);
    M.drain () (* persistence point: prep durable on return *)

  let exec_write t ~tid =
    let x = M.read t.x.(tid) in
    let v = x_value x and seq = x_seq x in
    let desired = pack ~value:v ~writer:tid ~seq in
    let rec loop () =
      let cur = M.read t.reg in
      help_complete t cur;
      if M.cas t.reg ~expected:cur ~desired then begin
        M.flush t.reg;
        (* Record our own completion; a helper may have done it already. *)
        let x' = M.read t.x.(tid) in
        if x_has x' x_prep && not (x_has x' x_compl) then
          if M.cas t.x.(tid) ~expected:x' ~desired:(x' lor x_compl) then
            M.flush t.x.(tid)
      end
      else loop ()
    in
    loop ();
    M.drain () (* persistence point *)

  let prep_read t ~tid =
    t.seqs.(tid) <- (t.seqs.(tid) + 1) land seq_mask;
    M.write t.x.(tid) (x_pack ~value:0 ~seq:t.seqs.(tid) ~tags:x_read);
    M.flush t.x.(tid);
    M.drain ()

  let exec_read t ~tid =
    let v = value_of (M.read t.reg) in
    M.flush t.reg (* flush-on-read: see [read] *);
    let x = M.read t.x.(tid) in
    M.write t.x.(tid)
      (x_pack ~value:v ~seq:(x_seq x) ~tags:(x_read lor x_compl));
    M.flush t.x.(tid);
    M.drain ();
    v

  (* ---------------------------- detection --------------------------- *)

  let resolve t ~tid =
    let x = M.read t.x.(tid) in
    if x = 0 then Nothing
    else if x_has x x_read then
      if x_has x x_compl then Read_done (x_value x) else Read_pending
    else if x_has x x_compl then Write_done (x_value x)
    else begin
      (* No completion recorded: the write took effect iff the register
         still carries our provenance (anyone overwriting it would have
         persisted our completion first). *)
      let cur = M.read t.reg in
      if writer_of cur = tid && seq_of cur = x_seq x && value_of cur = x_value x
      then Write_done (x_value x)
      else Write_pending (x_value x)
    end

  (** No recovery procedure is needed: detection state is maintained
      inline by the helping protocol.  Provided for interface symmetry. *)
  let recover (_ : t) = ()

  let stats t : Dssq_core.Detectable_intf.stats =
    { state_words = 1; announce_words = t.nthreads }
end
