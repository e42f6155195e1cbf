(** Unit tests for the simulated persistent heap: volatile/persisted
    split, flush semantics, crash with and without eviction, statistics. *)

open Helpers
module Cell = Dssq_pmem.Cell

let test_alloc_initial_persisted () =
  let h = Heap.create () in
  let c = Heap.alloc h ~name:(fun () -> "c") 7 in
  Alcotest.(check int) "volatile" 7 (Heap.read h c);
  Alcotest.(check int) "persisted" 7 c.Cell.persisted;
  Alcotest.(check bool) "clean" false (Cell.is_dirty c)

let test_write_is_volatile () =
  let h = Heap.create () in
  let c = Heap.alloc h 0 in
  Heap.write h c 42;
  Alcotest.(check int) "volatile sees write" 42 (Heap.read h c);
  Alcotest.(check int) "persisted unchanged" 0 c.Cell.persisted;
  Alcotest.(check bool) "dirty" true (Cell.is_dirty c)

let test_flush_persists () =
  let h = Heap.create () in
  let c = Heap.alloc h 0 in
  Heap.write h c 42;
  Heap.flush h c;
  Alcotest.(check int) "persisted" 42 c.Cell.persisted;
  Alcotest.(check bool) "clean after flush" false (Cell.is_dirty c)

let test_crash_drops_unflushed () =
  let h = Heap.create () in
  let c1 = Heap.alloc h 1 in
  let c2 = Heap.alloc h 2 in
  Heap.write h c1 10;
  Heap.write h c2 20;
  Heap.flush h c1;
  Heap.crash h ~evict:(fun () -> false);
  Alcotest.(check int) "flushed survives" 10 (Heap.read h c1);
  Alcotest.(check int) "unflushed reverts" 2 (Heap.read h c2)

let test_crash_eviction_persists () =
  let h = Heap.create () in
  let c = Heap.alloc h 0 in
  Heap.write h c 5;
  Heap.crash h ~evict:(fun () -> true);
  Alcotest.(check int) "evicted line persisted" 5 (Heap.read h c);
  Alcotest.(check int) "persisted too" 5 c.Cell.persisted

let test_crash_clears_dirty () =
  let h = Heap.create () in
  let c = Heap.alloc h 0 in
  Heap.write h c 5;
  Heap.crash h ~evict:(fun () -> false);
  Alcotest.(check bool) "clean after crash" false (Cell.is_dirty c);
  Alcotest.(check int) "no dirty cells" 0 (Heap.dirty_count h)

let test_cas_success_and_failure () =
  let h = Heap.create () in
  let c = Heap.alloc h 3 in
  Alcotest.(check bool) "cas hits" true (Heap.cas h c ~expected:3 ~desired:4);
  Alcotest.(check int) "value updated" 4 (Heap.read h c);
  Alcotest.(check bool) "cas misses" false (Heap.cas h c ~expected:3 ~desired:5);
  Alcotest.(check int) "value intact" 4 (Heap.read h c)

let test_cas_marks_dirty () =
  let h = Heap.create () in
  let c = Heap.alloc h 3 in
  ignore (Heap.cas h c ~expected:3 ~desired:4);
  Alcotest.(check bool) "dirty after cas" true (Cell.is_dirty c);
  Heap.crash h ~evict:(fun () -> false);
  Alcotest.(check int) "cas result dropped" 3 (Heap.read h c)

let test_polymorphic_cells () =
  let h = Heap.create () in
  let c = Heap.alloc h None in
  Heap.write h c (Some "x");
  Heap.crash h ~evict:(fun () -> false);
  Alcotest.(check bool) "boxed value reverts" true (Heap.read h c = None);
  Heap.write h c (Some "y");
  Heap.flush h c;
  Heap.crash h ~evict:(fun () -> false);
  Alcotest.(check bool) "boxed value persisted" true (Heap.read h c = Some "y")

let test_stats_counting () =
  let h = Heap.create () in
  let c = Heap.alloc h 0 in
  ignore (Heap.read h c);
  Heap.write h c 1;
  ignore (Heap.cas h c ~expected:1 ~desired:2);
  Heap.flush h c;
  Heap.fence h;
  let s = Heap.stats h in
  Alcotest.(check int) "reads" 1 s.Heap.reads;
  Alcotest.(check int) "writes" 1 s.Heap.writes;
  Alcotest.(check int) "cases" 1 s.Heap.cases;
  Alcotest.(check int) "flushes" 1 s.Heap.flushes;
  Alcotest.(check int) "fences" 1 s.Heap.fences;
  Heap.reset_stats h;
  Alcotest.(check int) "reset" 0 (Heap.stats h).Heap.reads

let test_crash_random_extremes () =
  let h = Heap.create () in
  let cells = List.init 10 (fun i -> Heap.alloc h i) in
  List.iter (fun c -> Heap.write h c 99) cells;
  let rng = Random.State.make [| 1 |] in
  Heap.crash_random h ~evict_p:1.0 ~rng;
  List.iter
    (fun c -> Alcotest.(check int) "all evicted" 99 (Heap.read h c))
    cells;
  List.iter (fun c -> Heap.write h c 77) cells;
  Heap.crash_random h ~evict_p:0.0 ~rng;
  List.iter
    (fun c -> Alcotest.(check int) "none evicted" 99 (Heap.read h c))
    cells

(* A fixed RNG seed must give the same evicted/lost verdict per cell on
   every run — crash injection is reproducible from a reported seed. *)
let test_crash_random_deterministic () =
  let run () =
    let h = Heap.create () in
    let cells =
      List.init 32 (fun i ->
          Heap.alloc h ~name:(fun () -> Printf.sprintf "c%d" i) i)
    in
    List.iter (fun c -> Heap.write h c 1_000) cells;
    let rng = Random.State.make [| 42 |] in
    Heap.crash_random h ~evict_p:0.5 ~rng;
    Alcotest.(check int) "heap clean after crash" 0 (Heap.dirty_count h);
    List.map (Heap.read h) cells
  in
  let a = run () in
  Alcotest.(check (list int)) "fixed seed, same eviction set" a (run ());
  Alcotest.(check bool) "some lines evicted" true (List.mem 1_000 a);
  Alcotest.(check bool) "some lines lost" true
    (List.exists (fun v -> v <> 1_000) a)

(* ------------------- line-granular persistence ----------------------- *)

module Line = Dssq_memory.Memory_intf.Line

let test_clean_flush_elided () =
  let h = Heap.create ~line_size:4 () in
  let c = Heap.alloc h 0 in
  Heap.flush h c;
  let s = Heap.stats h in
  Alcotest.(check int) "clean flush not charged" 0 s.Heap.flushes;
  Alcotest.(check int) "clean flush elided" 1 s.Heap.elided_flushes;
  Heap.write h c 1;
  Heap.flush h c;
  Alcotest.(check int) "dirty flush charged" 1 s.Heap.flushes;
  Heap.flush h c;
  Alcotest.(check int) "second flush elided" 2 s.Heap.elided_flushes;
  Alcotest.(check int) "still one write-back" 1 s.Heap.flushes

let test_size1_never_elides () =
  (* Line size 1 is the legacy word-granular model: every flush call is
     charged, even on a clean cell (the DSS helping paths flush cells
     they did not dirty, and the original counters charged those). *)
  let h = Heap.create () in
  let c = Heap.alloc h 0 in
  Heap.flush h c;
  Heap.flush h c;
  let s = Heap.stats h in
  Alcotest.(check int) "every flush charged at size 1" 2 s.Heap.flushes;
  Alcotest.(check int) "nothing elided at size 1" 0 s.Heap.elided_flushes

let test_flush_persists_whole_line () =
  let h = Heap.create ~line_size:4 () in
  match Heap.alloc_block h ~name:(fun () -> "blk") [ 0; 0; 0; 0 ] with
  | [ a; b; c; d ] as cells ->
      Alcotest.(check bool) "block shares one line" true
        (List.for_all (fun x -> Cell.line_id x = Cell.line_id a) cells);
      List.iteri (fun i x -> Heap.write h x (i + 1)) cells;
      Heap.flush h b;
      List.iteri
        (fun i x ->
          Alcotest.(check int)
            (Printf.sprintf "member %d persisted by one flush" i)
            (i + 1) x.Cell.persisted)
        cells;
      Alcotest.(check int) "one charged flush" 1 (Heap.stats h).Heap.flushes;
      Alcotest.(check bool) "line clean" false (Cell.is_dirty c);
      Alcotest.(check bool) "line clean (d)" false (Cell.is_dirty d)
  | _ -> Alcotest.fail "alloc_block arity"

let test_blocks_never_share_lines () =
  let h = Heap.create ~line_size:4 () in
  let blk1 = Heap.alloc_block h [ 1; 2; 3 ] in
  let blk2 = Heap.alloc_block h [ 4; 5 ] in
  let lone = Heap.alloc h 6 in
  let ids cs = List.map Cell.line_id cs in
  List.iter
    (fun id1 ->
      Alcotest.(check bool) "blocks on distinct lines" false
        (List.mem id1 (ids blk2)))
    (ids blk1);
  Alcotest.(check bool) "trailing alloc off the block line" false
    (List.mem (Cell.line_id lone) (ids blk2))

let test_isolated_placement () =
  let h = Heap.create ~line_size:4 () in
  let a = Heap.alloc h 1 in
  let hot = Heap.alloc h ~placement:Line.Isolated 2 in
  let b = Heap.alloc h 3 in
  Alcotest.(check bool) "isolated cell alone on its line" true
    (Cell.line_id hot <> Cell.line_id a && Cell.line_id hot <> Cell.line_id b);
  Alcotest.(check int) "isolated line has one member" 1
    (List.length (Heap.members h (Cell.line hot)))

let test_crash_evicts_line_as_unit () =
  let h = Heap.create ~line_size:4 () in
  let blk_old = Heap.alloc_block h [ 0; 0; 0; 0 ] in
  let blk_new = Heap.alloc_block h [ 0; 0; 0; 0 ] in
  List.iter (fun c -> Heap.write h c 7) blk_old;
  List.iter (fun c -> Heap.write h c 9) blk_new;
  (* One verdict per dirty line, drawn in most-recent-first cell order:
     the newer block's line gets the first draw. *)
  let draws = ref 0 in
  Heap.crash h ~evict:(fun () ->
      incr draws;
      !draws = 1);
  Alcotest.(check int) "one draw per dirty line, not per cell" 2 !draws;
  List.iter
    (fun c -> Alcotest.(check int) "evicted line kept whole" 9 (Heap.read h c))
    blk_new;
  List.iter
    (fun c -> Alcotest.(check int) "lost line dropped whole" 0 (Heap.read h c))
    blk_old

(* Random heap programs for the QCheck properties: a line size, a cell
   count, and a script of writes and flushes. *)
let arb_heap_program =
  QCheck.make
    ~print:(fun (ls, n, ops) ->
      Printf.sprintf "line_size=%d cells=%d ops=[%s]" ls n
        (String.concat "; "
           (List.map
              (function
                | `Write (i, v) -> Printf.sprintf "w %d %d" i v
                | `Flush i -> Printf.sprintf "f %d" i)
              ops)))
    QCheck.Gen.(
      int_range 1 8 >>= fun ls ->
      int_range 1 24 >>= fun n ->
      list_size (int_range 0 60)
        (oneof
           [
             map2 (fun i v -> `Write (i, v)) (int_range 0 (n - 1)) (int_range 0 1000);
             map (fun i -> `Flush i) (int_range 0 (n - 1));
           ])
      >>= fun ops -> return (ls, n, ops))

let build_and_run (ls, n, ops) =
  let h = Heap.create ~line_size:ls () in
  let cells =
    Array.init n (fun i ->
        Heap.alloc h ~name:(fun () -> Printf.sprintf "q%d" i) i)
  in
  List.iter
    (function
      | `Write (i, v) -> Heap.write h cells.(i) v
      | `Flush i -> Heap.flush h cells.(i))
    ops;
  (h, cells)

(* With evict_p = 1 every dirty line is written back by eviction, so the
   post-crash persisted state must equal the pre-crash volatile state —
   cell by cell, whatever the line geometry. *)
let prop_full_eviction_preserves_volatile =
  QCheck.Test.make ~count:300 ~name:"evict_p=1: persisted = pre-crash volatile"
    arb_heap_program (fun prog ->
      let h, cells = build_and_run prog in
      let before = Array.map (Heap.read h) cells in
      let rng = Random.State.make [| 7 |] in
      Heap.crash_random h ~evict_p:1.0 ~rng;
      Array.for_all2
        (fun v c -> Heap.read h c = v && c.Cell.persisted = v)
        before cells
      && Heap.dirty_count h = 0)

(* Flushing a clean line (size >= 2) moves exactly one counter:
   elided_flushes.  Values, dirtiness, and every other counter are
   untouched. *)
let prop_clean_flush_only_bumps_elision =
  QCheck.Test.make ~count:300
    ~name:"clean-line flush changes only elided_flushes" arb_heap_program
    (fun (ls, n, ops) ->
      let ls = max 2 ls in
      let h, cells = build_and_run (ls, n, ops) in
      let target = cells.(0) in
      Heap.flush h target (* line now clean, whatever the script did *);
      let values = Array.map (Heap.read h) cells in
      let persisted = Array.map (fun c -> c.Cell.persisted) cells in
      let s = Heap.stats h in
      let snap =
        (s.Heap.reads, s.Heap.writes, s.Heap.cases, s.Heap.flushes, s.Heap.fences)
      in
      let elided = s.Heap.elided_flushes in
      Heap.flush h target;
      s.Heap.elided_flushes = elided + 1
      && (s.Heap.reads, s.Heap.writes, s.Heap.cases, s.Heap.flushes, s.Heap.fences)
         = snap
      && Array.for_all2 (fun v c -> Heap.read h c = v) values cells
      && Array.for_all2 (fun v c -> c.Cell.persisted = v) persisted cells)

(* The heap's dense line table against a reference built from the cells
   alone: random mixes of packed, isolated and block allocations, at the
   legacy word-granular size and at cache-line size, then random stores
   and a per-line crash. *)
let arb_alloc_program =
  QCheck.make
    ~print:(fun (ls, allocs, writes, seed) ->
      Printf.sprintf "line size %d, %d allocs, %d writes, seed %d" ls
        (List.length allocs) (List.length writes) seed)
    QCheck.Gen.(
      oneofl [ 1; 8 ] >>= fun ls ->
      list_size (int_range 1 40)
        (oneof
           [
             return `Packed;
             return `Isolated;
             map (fun n -> `Block n) (int_range 1 10);
           ])
      >>= fun allocs ->
      list_size (int_range 0 30) (int_range 0 1000) >>= fun writes ->
      int >>= fun seed -> return (ls, allocs, writes, seed))

let prop_dense_line_table =
  QCheck.Test.make ~count:300
    ~name:"dense line table = cells grouped by line id" arb_alloc_program
    (fun (ls, allocs, writes, seed) ->
      let h = Heap.create ~line_size:ls () in
      let cells =
        List.concat_map
          (function
            | `Packed -> [ Heap.alloc h 0 ]
            | `Isolated -> [ Heap.alloc h ~placement:Line.Isolated 0 ]
            | `Block n -> Heap.alloc_block h (List.init n (fun _ -> 0)))
          allocs
        |> Array.of_list
      in
      let ids = List.map (fun (Cell.Packed c) -> c.Cell.id) in
      (* Reference: all cells on a line, most recently allocated first. *)
      let reference lid =
        List.filter (fun (Cell.Packed c) -> Cell.line_id c = lid) h.Heap.cells
        |> ids
      in
      let lines =
        Array.to_list cells |> List.map Cell.line
        |> List.sort_uniq (fun (a : Line.t) b -> compare a.Line.id b.Line.id)
      in
      let members_match =
        List.for_all
          (fun (l : Line.t) -> ids (Heap.members h l) = reference l.Line.id)
          lines
      in
      let n = Array.length cells in
      List.iter (fun i -> Heap.write h cells.(i mod n) i) writes;
      let rng = Random.State.make [| seed |] in
      let verdicts = Hashtbl.create 16 in
      Heap.crash_lines h ~evict:(fun lid ->
          match Hashtbl.find_opt verdicts lid with
          | Some v -> v
          | None ->
              let v = Random.State.bool rng in
              Hashtbl.add verdicts lid v;
              v);
      members_match
      && Heap.line_count h = List.length lines
      && List.for_all (fun l -> not (Line.is_dirty l)) lines
      && Heap.dirty_lines h = [])

let suite =
  [
    Alcotest.test_case "alloc: initial value persisted" `Quick
      test_alloc_initial_persisted;
    Alcotest.test_case "write is volatile until flush" `Quick
      test_write_is_volatile;
    Alcotest.test_case "flush persists" `Quick test_flush_persists;
    Alcotest.test_case "crash drops unflushed writes" `Quick
      test_crash_drops_unflushed;
    Alcotest.test_case "crash eviction persists dirty lines" `Quick
      test_crash_eviction_persists;
    Alcotest.test_case "crash leaves heap clean" `Quick test_crash_clears_dirty;
    Alcotest.test_case "cas success and failure" `Quick
      test_cas_success_and_failure;
    Alcotest.test_case "cas marks dirty" `Quick test_cas_marks_dirty;
    Alcotest.test_case "polymorphic (boxed) cells" `Quick
      test_polymorphic_cells;
    Alcotest.test_case "statistics counters" `Quick test_stats_counting;
    Alcotest.test_case "crash_random evict_p extremes" `Quick
      test_crash_random_extremes;
    Alcotest.test_case "crash_random is deterministic per seed" `Quick
      test_crash_random_deterministic;
    Alcotest.test_case "clean-line flush is elided" `Quick
      test_clean_flush_elided;
    Alcotest.test_case "line size 1 never elides (legacy anchor)" `Quick
      test_size1_never_elides;
    Alcotest.test_case "flush persists the whole line" `Quick
      test_flush_persists_whole_line;
    Alcotest.test_case "alloc_block lines are private" `Quick
      test_blocks_never_share_lines;
    Alcotest.test_case "isolated placement gets a private line" `Quick
      test_isolated_placement;
    Alcotest.test_case "crash evicts or drops a line as a unit" `Quick
      test_crash_evicts_line_as_unit;
    QCheck_alcotest.to_alcotest prop_full_eviction_preserves_volatile;
    QCheck_alcotest.to_alcotest prop_clean_flush_only_bumps_elision;
    QCheck_alcotest.to_alcotest prop_dense_line_table;
  ]
