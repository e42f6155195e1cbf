(* A tiny persistent key-value store with exactly-once read-modify-write,
   built directly on detectable base objects (Dss_cell = D<register>+D<CAS>).

   Each key is one detectable cell.  An update is a detectable CAS
   (read-modify-write): prep-cas records the intent persistently, exec-cas
   applies it, and after a crash resolve says whether it landed — so a
   client that retries "increment k by d" across any number of crashes
   applies it exactly once.  No queue, no log, no transaction layer: the
   detectable object alone carries the recovery protocol.

   Run:  dune exec examples/persistent_kv.exe *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim

let nkeys = 4
let updates_per_client = 12
let nclients = 2

(* One world: a heap and the store's detectable cells, set up the same
   way every time.  A crash restarts cold, into a fresh world loaded
   with the image the crash left in persistent memory. *)
type world = {
  heap : Heap.t;
  read : int -> int;
  prep_cas : int -> tid:int -> expected:int -> desired:int -> unit;
  exec_cas : int -> tid:int -> bool;
  landed : int -> tid:int -> bool;
      (** whether [tid]'s last prepared CAS on the key took effect *)
}

let world () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module C = Dssq_core.Dss_cell.Make (M) in
  let store =
    Array.init nkeys (fun k ->
        C.create
          ~name:(fun () -> Printf.sprintf "key%d" k)
          ~nthreads:nclients 0)
  in
  Heap.log_persists heap;
  {
    heap;
    read = (fun k -> C.read store.(k));
    prep_cas = (fun k -> C.prep_cas store.(k));
    exec_cas = (fun k -> C.exec_cas store.(k));
    landed =
      (fun k ~tid ->
        match C.resolve store.(k) ~tid with
        | C.Cas_done (_, _, ok) -> ok
        | _ -> false);
  }

let () =
  let w = ref (world ()) in

  (* Deterministic workload: client i applies deltas to keys round-robin. *)
  let plan tid =
    List.init updates_per_client (fun i ->
        ((i + tid) mod nkeys, 1 + ((i * 7) + tid) mod 9))
  in

  (* Volatile progress; after a crash the in-flight update's fate is
     recovered from resolve, everything else from this counter. *)
  let applied = Array.make nclients 0 in
  let in_flight : (int * int) option array = Array.make nclients None in

  let apply_one ~tid (key, delta) =
    (* Detectable read-modify-write: CAS from the current value. *)
    let rec attempt () =
      let cur = !w.read key in
      !w.prep_cas key ~tid ~expected:cur ~desired:(cur + delta);
      in_flight.(tid) <- Some (key, delta);
      if !w.exec_cas key ~tid then begin
        in_flight.(tid) <- None;
        applied.(tid) <- applied.(tid) + 1
      end
      else attempt () (* value moved under us: retry with a fresh read *)
    in
    attempt ()
  in

  let resolve_in_flight ~tid =
    match in_flight.(tid) with
    | None -> ()
    | Some (key, _) ->
        if !w.landed key ~tid then begin
          (* Landed before the crash: count it, do not redo. *)
          in_flight.(tid) <- None;
          applied.(tid) <- applied.(tid) + 1
        end
    (* Otherwise it did not land: the main loop will redo it. *)
  in

  let crashes = ref 0 in
  let epoch = ref 0 in
  let all_done () =
    Array.for_all (fun a -> a >= updates_per_client) applied
  in
  while not (all_done ()) do
    incr epoch;
    let client ~tid () =
      while applied.(tid) < updates_per_client do
        (match in_flight.(tid) with
        | Some upd -> (
            (* Redo the interrupted update (exec again after re-prep via
               attempt's fresh read). *)
            match upd with key, delta -> apply_one ~tid (key, delta))
        | None -> apply_one ~tid (List.nth (plan tid) applied.(tid)));
        Sim.yield !w.heap
      done
    in
    let outcome =
      Sim.run !w.heap
        ~policy:(Sim.Random_seed !epoch)
        ~crash:(Sim.Crash_prob (0.01, !epoch))
        ~threads:(List.init nclients (fun tid -> client ~tid))
    in
    if outcome.Sim.crashed then begin
      incr crashes;
      let fresh = world () in
      Sim.restart !w.heap ~into:fresh.heap ~evict_p:0.4 ~seed:!epoch;
      w := fresh;
      for tid = 0 to nclients - 1 do
        resolve_in_flight ~tid
      done
    end
  done;

  (* Verify: the store sums to exactly the sum of all planned deltas. *)
  let expected =
    List.init nclients (fun tid -> List.map snd (plan tid))
    |> List.concat |> List.fold_left ( + ) 0
  in
  let total =
    List.fold_left (fun acc k -> acc + !w.read k) 0 (List.init nkeys Fun.id)
  in
  Printf.printf
    "applied %d updates across %d clients and %d crashes; store total = %d \
     (expected %d)\n"
    (nclients * updates_per_client)
    nclients !crashes total expected;
  assert (total = expected);
  print_endline "every read-modify-write applied exactly once"
