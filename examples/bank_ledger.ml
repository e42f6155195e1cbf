(* Bank ledger: exactly-once transaction processing over the DSS queue.

   The scenario the paper's introduction motivates: an application that
   "is directly responsible for deciding the correct redo and undo
   actions" because it has no transactions.  A producer submits transfer
   orders into a persistent queue; a consumer applies them to account
   balances.  The machine crashes repeatedly at random points.  Thanks to
   detectability, after each crash both threads resolve their in-flight
   operation and redo it only if it did not take effect — so no transfer
   is ever applied twice or lost, across any number of crashes.

   Run:  dune exec examples/bank_ledger.exe *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
open Dssq_core.Queue_intf

let n_transfers = 40
let accounts = 4

(* A transfer order packed into one queue value: a unique serial number
   plus (from, to, amount).  The serial number is exactly the auxiliary
   disambiguating argument of Section 2.1 of the paper: it makes repeated
   otherwise-identical transfers distinguishable under resolve. *)
let encode ~serial ~src ~dst ~amount =
  (serial * 1_000_000) + (((src * accounts) + dst) * 1000) + amount

let decode v =
  let v = v mod 1_000_000 in
  ((v / 1000 / accounts, v / 1000 mod accounts), v mod 1000)

let () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module Q = Dssq_core.Dss_queue.Make (M) in
  let q = Q.create ~nthreads:2 ~capacity:256 () in

  (* Balances live in persistent cells too (flushed on every update, so a
     crash cannot tear them — a real system would make the balance update
     and the dequeue one recoverable transaction; here the queue IS the
     ledger and balances are a materialized view we rebuild checks on). *)
  let balances =
    Array.init accounts (fun i ->
        M.alloc ~name:(fun () -> Printf.sprintf "balance%d" i) 1000)
  in
  let apply_transfer v =
    let (src, dst), amount = decode v in
    M.write balances.(src) (M.read balances.(src) - amount);
    M.flush balances.(src);
    M.write balances.(dst) (M.read balances.(dst) + amount);
    M.flush balances.(dst)
  in

  let rng = Random.State.make [| 2026 |] in
  let transfers =
    List.init n_transfers (fun i ->
        let src = Random.State.int rng accounts in
        let dst = (src + 1 + Random.State.int rng (accounts - 1)) mod accounts in
        let amount = 1 + Random.State.int rng 50 in
        encode ~serial:i ~src ~dst ~amount)
  in

  (* Volatile progress trackers: lost at every crash, rebuilt from
     resolve — that is the whole point of the exercise. *)
  let submitted = ref [] (* producer's log of definitely-submitted orders *)
  and applied = ref [] (* consumer's log of definitely-applied orders *) in

  let producer_queue = ref transfers in
  let produce_one ~tid =
    match !producer_queue with
    | [] -> false
    | v :: rest ->
        Q.prep_enqueue q ~tid v;
        Q.exec_enqueue q ~tid;
        submitted := v :: !submitted;
        producer_queue := rest;
        true
  in
  let consume_one ~tid =
    Q.prep_dequeue q ~tid;
    let v = Q.exec_dequeue q ~tid in
    if v <> empty_value then begin
      apply_transfer v;
      applied := v :: !applied
    end;
    v <> empty_value
  in

  (* Recovery logic per thread: decide redo/skip from resolve. *)
  let recover_producer () =
    match Q.resolve q ~tid:0 with
    | Enq_done v ->
        (* Took effect before the crash but we may not have logged it. *)
        if not (List.mem v !submitted) then begin
          submitted := v :: !submitted;
          producer_queue := List.filter (( <> ) v) !producer_queue
        end
    | Enq_pending _ | Nothing ->
        (* Did not take effect; the order is still in producer_queue and
           will be re-submitted by the normal loop. *)
        ()
    | _ -> ()
  in
  let recover_consumer () =
    match Q.resolve q ~tid:1 with
    | Deq_done v ->
        if not (List.mem v !applied) then begin
          (* Dequeued before the crash, application not logged: redo the
             balance update exactly once. *)
          apply_transfer v;
          applied := v :: !applied
        end
    | Deq_pending | Deq_empty | Nothing -> ()
    | _ -> ()
  in

  (* Main loop: run both threads; crash with some probability per step;
     recover; repeat until all transfers are submitted and applied. *)
  let crashes = ref 0 in
  let epoch = ref 0 in
  while List.length !applied < n_transfers do
    incr epoch;
    let producer () = while produce_one ~tid:0 do () done in
    let consumer () =
      let continue_consuming = ref true in
      while !continue_consuming do
        if not (consume_one ~tid:1) then
          (* Queue empty: stop if the producer is done. *)
          continue_consuming := List.length !submitted < n_transfers
      done
    in
    let outcome =
      Sim.run heap
        ~policy:(Sim.Random_seed !epoch)
        ~crash:(Sim.Crash_prob (0.004, !epoch))
        ~threads:[ producer; consumer ]
    in
    if outcome.Sim.crashed then begin
      incr crashes;
      (* NB: volatile logs survive in this process, but the in-flight
         operation's fate is genuinely unknown — exactly the ambiguity
         resolve removes. *)
      Sim.apply_crash heap ~evict_p:0.3 ~seed:!epoch;
      Q.recover q;
      recover_producer ();
      recover_consumer ()
    end
  done;

  Printf.printf "processed %d transfers across %d crashes\n" n_transfers !crashes;

  (* Verification: every transfer applied exactly once, money conserved. *)
  let sorted l = List.sort compare l in
  assert (sorted !applied = sorted transfers);
  let total = Array.fold_left (fun acc b -> acc + M.read b) 0 balances in
  Printf.printf "final balances: [%s] (total %d)\n"
    (String.concat "; "
       (Array.to_list (Array.map (fun b -> string_of_int (M.read b)) balances)))
    total;
  assert (total = accounts * 1000);
  print_endline "every transfer applied exactly once; money conserved"
