(** Unit tests for the simulated persistent heap: volatile/persisted
    split, flush semantics, crash with and without eviction, statistics. *)

open Helpers
module Cell = Dssq_pmem.Cell

(* The crash in place: after the drain prefixes [drains], each dirty line
   survives when [evict lid]. *)
let crash ?(drains = []) h ~evict = Heap.crash_into h ~into:h ~drains ~evict

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
  crash h ~evict:(fun _ -> false);
  Alcotest.(check int) "flushed survives" 10 (Heap.read h c1);
  Alcotest.(check int) "unflushed reverts" 2 (Heap.read h c2)

let test_crash_eviction_persists () =
  let h = Heap.create () in
  let c = Heap.alloc h 0 in
  Heap.write h c 5;
  crash h ~evict:(fun _ -> true);
  Alcotest.(check int) "evicted line persisted" 5 (Heap.read h c);
  Alcotest.(check int) "persisted too" 5 c.Cell.persisted

let test_crash_clears_dirty () =
  let h = Heap.create () in
  let c = Heap.alloc h 0 in
  Heap.write h c 5;
  crash h ~evict:(fun _ -> false);
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
  crash h ~evict:(fun _ -> false);
  Alcotest.(check int) "cas result dropped" 3 (Heap.read h c)

let test_polymorphic_cells () =
  let h = Heap.create () in
  let c = Heap.alloc h None in
  Heap.write h c (Some "x");
  crash h ~evict:(fun _ -> false);
  Alcotest.(check bool) "boxed value reverts" true (Heap.read h c = None);
  Heap.write h c (Some "y");
  Heap.flush h c;
  crash h ~evict:(fun _ -> false);
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

(* A seeded crash in place ([Sim.restart heap ~into:heap]) at the two
   extreme eviction probabilities. *)
let test_crash_random_extremes () =
  let h = Heap.create () in
  let cells = List.init 10 (fun i -> Heap.alloc h i) in
  List.iter (fun c -> Heap.write h c 99) cells;
  Sim.restart h ~into:h ~evict_p:1.0 ~seed:1;
  List.iter
    (fun c -> Alcotest.(check int) "all evicted" 99 (Heap.read h c))
    cells;
  List.iter (fun c -> Heap.write h c 77) cells;
  Sim.restart h ~into:h ~evict_p:0.0 ~seed:1;
  List.iter
    (fun c -> Alcotest.(check int) "none evicted" 99 (Heap.read h c))
    cells

(* A fixed seed must give [Sim.restart] the same evicted/lost verdict per
   cell on every run — crash injection is reproducible from a reported
   seed. *)
let test_crash_random_deterministic () =
  let run () =
    let h = Heap.create () in
    let cells =
      List.init 32 (fun i ->
          Heap.alloc h ~name:(fun () -> Printf.sprintf "c%d" i) i)
    in
    List.iter (fun c -> Heap.write h c 1_000) cells;
    Sim.restart h ~into:h ~evict_p:0.5 ~seed:42;
    Alcotest.(check int) "heap clean after crash" 0 (Heap.dirty_count h);
    List.map (Heap.read h) cells
  in
  let a = run () in
  Alcotest.(check (list int)) "fixed seed, same eviction set" a (run ());
  Alcotest.(check bool) "some lines evicted" true (List.mem 1_000 a);
  Alcotest.(check bool) "some lines lost" true
    (List.exists (fun v -> v <> 1_000) a)

(* ------------------- line-granular persistence ----------------------- *)

module Line = Heap.Line

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
  crash h ~evict:(fun _ ->
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
      Sim.restart h ~into:h ~evict_p:1.0 ~seed:7;
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

(* The heap's dense line table against a reference built from the test's
   own allocation list: random mixes of packed, isolated and block
   allocations, at the legacy word-granular size and at cache-line size,
   then random stores and a per-line crash.  The crash must ask for its
   verdicts once per line, in most-recent-first dirty-cell order — the order seeded
   crashes draw in — so the walk over the line table is pinned here. *)
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
      (* Reference: the allocation list, most recently allocated first. *)
      let recent_first = List.rev (Array.to_list cells) in
      let reference lid =
        List.filter (fun c -> Cell.line_id c = lid) recent_first
        |> List.map (fun c -> c.Cell.id)
      in
      let lines =
        Array.to_list cells |> List.map Cell.line
        |> List.sort_uniq (fun (a : Line.t) b -> compare (Line.id a) (Line.id b))
      in
      let members_match =
        List.for_all
          (fun (l : Line.t) ->
            List.map (fun (Cell.Packed c) -> c.Cell.id) (Heap.members h l)
            = reference (Line.id l))
          lines
      in
      let n = Array.length cells in
      List.iter (fun i -> Heap.write h cells.(i mod n) i) writes;
      let dirty_recent_first =
        List.filter_map
          (fun c -> if Cell.is_dirty c then Some (Cell.line_id c) else None)
          recent_first
      in
      let dirty_lines_match =
        Heap.dirty_lines h = List.sort_uniq compare dirty_recent_first
      in
      let rng = Random.State.make [| seed |] in
      let verdicts = Hashtbl.create 16 in
      let asked = ref [] in
      crash h ~evict:(fun lid ->
          asked := lid :: !asked;
          match Hashtbl.find_opt verdicts lid with
          | Some v -> v
          | None ->
              let v = Random.State.bool rng in
              Hashtbl.add verdicts lid v;
              v);
      (* Asked once per dirty line, in first-dirty-cell order. *)
      let first_seen =
        List.fold_left
          (fun acc lid -> if List.mem lid acc then acc else lid :: acc)
          [] dirty_recent_first
        |> List.rev
      in
      members_match && dirty_lines_match
      && List.rev !asked = first_seen
      && Heap.line_count h = List.length lines
      && List.for_all (fun l -> not (Line.is_dirty l)) lines
      && Heap.dirty_lines h = [])

(* The dirty-line index against a full walk of the line table, after
   every step of random store/CAS/flush/drain/crash programs from three
   threads, at both line sizes and under every policy: [dirty_lines],
   [crash_candidate_lines] and [dirty_count] must equal the walk, and
   each line's dirty flag must be set exactly when a member is dirty.
   A crash step writes back drain prefixes of the pending buffers first,
   as the explorer draws them, and each drained entry must count exactly
   one flush, effective or elided.  The program ends in a seeded crash,
   whose draws must land on the dirty lines in the walk's order: line
   ids descending. *)
type heap_step =
  | Store of int * int * int  (** tid, cell, value *)
  | Cas_step of int * int * bool  (** tid, cell, whether it should hit *)
  | Flush_step of int * int  (** tid, cell *)
  | Drain_step of int
  | Crash_step of int  (** verdict and drain-prefix seed *)

(* One step on [n] cells; [crashes] adds crash steps. *)
let step_gen ?(crashes = false) n =
  QCheck.Gen.(
    let tid = int_range 0 2 and cell = int_range 0 (n - 1) in
    frequency
      ([
         (4, map3 (fun t c v -> Store (t, c, v)) tid cell (int_range 1 99));
         (2, map3 (fun t c hit -> Cas_step (t, c, hit)) tid cell bool);
         (4, map2 (fun t c -> Flush_step (t, c)) tid cell);
         (1, map (fun t -> Drain_step t) tid);
       ]
      @ if crashes then [ (1, map (fun s -> Crash_step s) int) ] else []))

let arb_heap_program =
  let step = step_gen ~crashes:true in
  QCheck.make
    ~print:(fun (ls, policy, n, steps, _) ->
      Printf.sprintf "line size %d, %s, %d cells, %d steps" ls
        (Heap.Policy.to_string policy) n (List.length steps))
    QCheck.Gen.(
      oneofl [ 1; 8 ] >>= fun ls ->
      oneofl Heap.Policy.all >>= fun policy ->
      int_range 1 24 >>= fun n ->
      list_size (int_range 0 60) (step n) >>= fun steps ->
      int >>= fun seed -> return (ls, policy, n, steps, seed))

let prop_dirty_index =
  QCheck.Test.make ~count:500 ~name:"dirty-line index = full walk"
    arb_heap_program (fun (ls, policy, n, steps, seed) ->
      let h = Heap.create ~line_size:ls ~policy () in
      (* A mix of placements, so lines hold one or several cells. *)
      let cells =
        Array.init n (fun i ->
            if i mod 5 = 4 then Heap.alloc h ~placement:Line.Isolated 0
            else Heap.alloc h 0)
      in
      let lines () = List.init (Heap.line_count h) (Heap.line h) in
      let dirty_members l =
        List.filter (fun (Cell.Packed c) -> c.Cell.dirty) (Heap.members h l)
      in
      let walk_dirty () =
        List.filter_map
          (fun (l : Line.t) ->
            if dirty_members l <> [] then Some (Line.id l) else None)
          (lines ())
      in
      let agrees () =
        let dirty = walk_dirty () in
        let buffered = List.concat_map snd (Heap.pending_fifos h) in
        Heap.dirty_lines h = dirty
        && Heap.crash_candidate_lines h
           = List.filter (fun lid -> not (List.mem lid buffered)) dirty
        && Heap.dirty_count h
           = List.fold_left
               (fun n l -> n + List.length (dirty_members l))
               0 (lines ())
        && List.for_all
             (fun l -> Line.is_dirty l = (dirty_members l <> []))
             (lines ())
      in
      let flushes () = (Heap.stats h).flushes + (Heap.stats h).elided_flushes in
      (* Whether the step's drained entries, if any, each counted one
         flush. *)
      let apply = function
        | Store (tid, i, v) ->
            h.Heap.cur_tid <- tid;
            Heap.write h cells.(i) v;
            true
        | Cas_step (tid, i, hit) ->
            h.Heap.cur_tid <- tid;
            let cur = Heap.read h cells.(i) in
            ignore
              (Heap.cas h cells.(i)
                 ~expected:(if hit then cur else cur + 1)
                 ~desired:(cur + 7));
            true
        | Flush_step (tid, i) ->
            h.Heap.cur_tid <- tid;
            Heap.flush h cells.(i);
            true
        | Drain_step tid ->
            h.Heap.cur_tid <- tid;
            Heap.drain h;
            true
        | Crash_step s ->
            (* A prefix of each buffer the adversary sees, as the
               explorer draws them. *)
            let drains =
              List.map
                (fun (tid, f) ->
                  (tid, Hashtbl.hash (s, tid) mod (List.length f + 1)))
                (Heap.pending_fifos h)
            in
            let before = flushes () in
            crash h ~drains ~evict:(fun lid ->
                Hashtbl.hash (s, lid) land 1 = 0);
            flushes () - before
            = List.fold_left (fun n (_, c) -> n + c) 0 drains
      in
      let steps_agree =
        List.for_all (fun step -> apply step && agrees ()) steps
      in
      (* The closing seeded crash: draw k goes to the k-th dirty line in
         descending id order, and decides all of that line's cells. *)
      let order = List.rev (walk_dirty ()) in
      let before =
        Array.map (fun c -> (c.Cell.volatile, c.Cell.persisted)) cells
      in
      let rng = Random.State.make [| seed |] in
      let draws = ref [] in
      crash h ~evict:(fun _ ->
          let v = Random.State.bool rng in
          draws := v :: !draws;
          v);
      let draws = List.rev !draws in
      steps_agree
      && List.length draws = List.length order
      && (let fate = List.combine order draws in
          Array.for_all2
            (fun c (volatile, persisted) ->
              let expect =
                match List.assoc_opt (Cell.line_id c) fate with
                | Some true -> volatile
                | Some false | None -> persisted
              in
              c.Cell.persisted = expect && c.Cell.volatile = expect)
            cells before)
      && agrees ()
      && Heap.dirty_lines h = [])

(* The persisted log is a set, and a cold restart loads exactly the
   image.  Three set-ups of one layout run the same steps up to a mark,
   then the same steps to a second mark, so the logged flags of the
   first round must be cleared for the second.  [a] runs on and crashes
   into [b], a marked restart target that logs what it loads; [b] runs
   on and crashes into [c].  After each run the log names every line at
   most once and every line whose persisted words changed since the
   mark, and each target holds the image a reference computes by walking
   every cell: a cell persists its volatile value when its line is
   dirty and either drained by the crash's buffer prefixes or evicted. *)
let arb_log_program =
  let steps n = QCheck.Gen.list_size (QCheck.Gen.int_range 0 25) (step_gen n) in
  QCheck.make
    ~print:(fun (ls, policy, n, _, _, _, _, _) ->
      Printf.sprintf "line size %d, %s, %d cells" ls
        (Heap.Policy.to_string policy) n)
    QCheck.Gen.(
      oneofl [ 1; 8 ] >>= fun ls ->
      oneofl Heap.Policy.all >>= fun policy ->
      int_range 1 24 >>= fun n ->
      steps n >>= fun pre ->
      steps n >>= fun mid ->
      steps n >>= fun post ->
      steps n >>= fun post2 ->
      int >>= fun seed -> return (ls, policy, n, pre, mid, post, post2, seed))

let prop_log_is_a_set =
  QCheck.Test.make ~count:400 ~name:"the persisted log is a set" arb_log_program
    (fun (ls, policy, n, pre, mid, post, post2, seed) ->
      let world () =
        let h = Heap.create ~line_size:ls ~policy () in
        let cells =
          Array.init n (fun i ->
              if i mod 5 = 4 then Heap.alloc h ~placement:Line.Isolated 0
              else Heap.alloc h 0)
        in
        (h, cells)
      in
      let apply (h, cells) = function
        | Store (tid, i, v) ->
            h.Heap.cur_tid <- tid;
            Heap.write h cells.(i) v
        | Cas_step (tid, i, hit) ->
            h.Heap.cur_tid <- tid;
            let cur = Heap.read h cells.(i) in
            ignore
              (Heap.cas h cells.(i)
                 ~expected:(if hit then cur else cur + 1)
                 ~desired:(cur + 7))
        | Flush_step (tid, i) ->
            h.Heap.cur_tid <- tid;
            Heap.flush h cells.(i)
        | Drain_step tid ->
            h.Heap.cur_tid <- tid;
            Heap.drain h
        | Crash_step _ -> ()
      in
      (* Up to the second mark: the state every restart target holds. *)
      let marked () =
        let w = world () in
        List.iter (apply w) pre;
        Heap.log_persists (fst w);
        List.iter (apply w) mid;
        Heap.log_persists (fst w);
        w
      in
      let persisted (_, cells) = Array.map (fun c -> c.Cell.persisted) cells in
      (* No line twice, and every line whose persisted words moved since
         the mark ([at_mark]). *)
      let log_is_set (h, cells) at_mark =
        let log = h.Heap.persisted_log in
        List.length (List.sort_uniq compare log) = List.length log
        && Array.for_all2
             (fun c p -> c.Cell.persisted = p || List.mem (Cell.line_id c) log)
             cells at_mark
      in
      (* Crash [src] into [dst] and compare [dst] with the reference. *)
      let restart_matches ((h, cells) as _src) (dst, dst_cells) salt =
        let fifos = Heap.pending_fifos h in
        let drains =
          List.map
            (fun (tid, f) ->
              (tid, Hashtbl.hash (seed, salt, tid) mod (List.length f + 1)))
            fifos
        in
        let drained =
          List.concat_map
            (fun (tid, f) -> List.filteri (fun i _ -> i < List.assoc tid drains) f)
            fifos
        in
        let evict lid = Hashtbl.hash (seed, salt, lid) land 1 = 0 in
        let expect =
          Array.map
            (fun c ->
              let lid = Cell.line_id c in
              if
                Line.is_dirty (Cell.line c)
                && (List.mem lid drained || evict lid)
              then c.Cell.volatile
              else c.Cell.persisted)
            cells
        in
        Heap.crash_into h ~into:dst ~drains ~evict;
        Array.for_all2
          (fun c v -> c.Cell.volatile = v && c.Cell.persisted = v)
          dst_cells expect
        && Heap.dirty_lines dst = []
      in
      let a = marked () and b = marked () and c = marked () in
      let at_mark = persisted a in
      List.iter (apply a) post;
      let a_ok = log_is_set a at_mark in
      let b_at_mark = persisted b in
      let b_ok = restart_matches a b 1 in
      let b_logged = log_is_set b b_at_mark in
      List.iter (apply b) post2;
      a_ok && b_ok && b_logged
      && log_is_set b b_at_mark
      && restart_matches b c 2)

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
    QCheck_alcotest.to_alcotest prop_dirty_index;
    QCheck_alcotest.to_alcotest prop_log_is_a_set;
  ]
