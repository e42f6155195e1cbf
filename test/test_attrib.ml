(** Attribution-grade profiling: the attribution table's aggregation
    invariants (QCheck), the Prometheus exporter's escaping round-trip,
    and the end-to-end accounting identities the `dssq profile` tables
    rest on — per-phase and per-line event sums equal to the backend
    counter deltas across the whole zoo, and event streams bit-identical
    with profiling on or off. *)

module Attrib = Dssq_obs.Attrib
module Prom = Dssq_obs.Prom
module Zoo = Dssq_workload.Zoo
module MI = Dssq_memory.Memory_intf
module PE = Dssq_memory.Persist_event

(* ---------------------------- table invariants ------------------------- *)

let emit ?(name = "") ?(tid = 0) kind ~line =
  PE.emit kind ~tid ~cell:(-1) ~name ~line ~dirty:false

(* Index-coded events so QCheck can print counterexamples, and the
   column each one counts in. *)
let events =
  PE.[| Write; Flush Written_back; Flush Elided; Flush Coalesced;
        Verdict true; Verdict false; Fence 3 |]

let columns (k : Attrib.counts) =
  Attrib.[| k.writes; k.flushes; k.elides; k.coalesces; k.evicts; k.drops;
            k.fences |]

let fence = 6

let prop_heatmap_sums =
  QCheck.Test.make ~count:200
    ~name:"heatmap: per-line sums equal the fed counts, per-phase sums too"
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (quad (int_range 0 2)
           (int_range 0 (List.length Attrib.phases - 1))
           (int_range (-1) 8)
           (int_range 0 (Array.length events - 1))))
    (fun evs ->
      Attrib.start ();
      (* each event in its own span of a random phase on a random thread;
         fences carry no line, as on the stream; every verdict closes its
         own crash: within one crash a line's verdict counts once *)
      List.iter
        (fun (tid, p, line, i) ->
          let sp = Attrib.begin_span ~tid (List.nth Attrib.phases p) in
          emit events.(i) ~tid ~line:(if i = fence then -1 else line);
          if i = 4 || i = 5 then emit Crashed ~tid ~line:(-1);
          Attrib.end_span ~tid sp)
        evs;
      Attrib.stop ();
      let t = Attrib.snapshot () in
      let count keep = List.length (List.filter keep evs) in
      let line_sum i =
        List.fold_left (fun acc r -> acc + (columns r.Attrib.h_counts).(i))
          0 t.Attrib.lines
      in
      List.for_all
        (fun i ->
          line_sum i
          = count (fun (_, _, line, j) -> j = i && i <> fence && line >= 0))
        (List.init (Array.length events) Fun.id)
      && List.for_all
           (fun (p, (r : Attrib.phase_row)) ->
             let k = r.Attrib.ph_counts in
             r.Attrib.ph_ops = count (fun (_, q, _, _) -> q = p)
             && k.Attrib.elided_fences = 2 * k.Attrib.fences
             && List.for_all
                  (fun i ->
                    (columns k).(i) = count (fun (_, q, _, j) -> q = p && j = i))
                  (List.init (Array.length events) Fun.id))
           (List.mapi (fun p r -> (p, r)) t.Attrib.phases))

let test_heatmap_labels () =
  Attrib.start ();
  emit Alloc ~line:3 ~name:"";
  emit Alloc ~line:3 ~name:"queue.head";
  emit Alloc ~line:3 ~name:"later-loser";
  emit Write ~line:3;
  (* a fence is not a flush, and line -1 (fences, crash markers) has no
     row of its own *)
  emit (Fence 0) ~line:3;
  emit (Flush Written_back) ~line:(-1);
  (* one crash dropping two cells of line 3 is one dropped line *)
  emit (Verdict false) ~line:3;
  emit (Verdict false) ~line:3;
  emit Crashed ~line:(-1);
  (match (Attrib.snapshot ()).Attrib.lines with
  | [ r ] ->
      Alcotest.(check string)
        "first non-empty name wins" "queue.head" r.Attrib.h_label;
      Alcotest.(check string) "bucketed by owner" "queue" r.Attrib.h_object;
      Alcotest.(check int) "one write" 1 r.Attrib.h_counts.writes;
      Alcotest.(check int) "fence not aggregated" 0 r.Attrib.h_counts.flushes;
      Alcotest.(check int) "one verdict per line per crash" 1
        r.Attrib.h_counts.drops
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  Alcotest.(check string) "bucket strips index" "ann" (Attrib.bucket "ann[0]");
  Alcotest.(check string) "bucket of empty label" "?" (Attrib.bucket "");
  (* reset keeps the allocation-site labels (the post-construction
     measurement-window reset) *)
  Attrib.reset ();
  emit (Flush Written_back) ~line:3;
  Attrib.stop ();
  match
    List.filter (fun r -> r.Attrib.h_line = 3) (Attrib.snapshot ()).Attrib.lines
  with
  | [ r ] ->
      Alcotest.(check string) "label survives" "queue.head" r.Attrib.h_label;
      Alcotest.(check int) "counts were zeroed" 0 r.Attrib.h_counts.writes;
      Alcotest.(check int) "new window counts" 1 r.Attrib.h_counts.flushes
  | rows -> Alcotest.failf "expected line 3, got %d rows" (List.length rows)

(* A crash that stops before its [Crashed] marker (a set-up that raises
   mid-load) leaves its verdict marks behind; a reset must forget them,
   or they swallow the next crash's first verdicts. *)
let test_reset_forgets_verdicts () =
  Attrib.start ();
  emit (Verdict true) ~line:5;
  Attrib.reset ();
  emit (Verdict true) ~line:5;
  emit Crashed ~line:(-1);
  Attrib.stop ();
  match (Attrib.snapshot ()).Attrib.lines with
  | [ r ] -> Alcotest.(check int) "one verdict" 1 r.Attrib.h_counts.evicts
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let test_heatmap_off_is_noop () =
  Attrib.start ();
  Attrib.stop ();
  emit Write ~line:1;
  emit Alloc ~line:1 ~name:"ghost";
  Alcotest.(check int) "nothing aggregated while off" 0
    (List.length (Attrib.snapshot ()).Attrib.lines)

let test_heatmap_top_ranking () =
  let mk line flushes writes =
    {
      Attrib.h_line = line;
      h_label = "";
      h_object = "?";
      h_counts =
        {
          Attrib.writes;
          flushes;
          elides = 0;
          coalesces = 0;
          fences = 0;
          elided_fences = 0;
          evicts = 0;
          drops = 0;
        };
    }
  in
  let rows = [ mk 1 2 9; mk 2 5 0; mk 3 2 1; mk 4 0 50 ] in
  Alcotest.(check (list int))
    "flushes desc, writes break ties" [ 2; 1; 3 ]
    (List.map (fun r -> r.Attrib.h_line) (Attrib.top ~n:3 rows))

(* ------------------------ Prometheus exporter ------------------------- *)

let prop_prom_escape_roundtrip =
  QCheck.Test.make ~count:500 ~name:"prom: label escaping round-trips"
    QCheck.string (fun s -> Prom.unescape_label (Prom.escape_label s) = s)

let test_prom_rendering () =
  Alcotest.(check string)
    "dotted names flatten" "dssq_heap_flushes"
    (Prom.sanitize_name "dssq.heap.flushes");
  Alcotest.(check string)
    "sample line" "flushes{site=\"q.head \\\"hot\\\"\"} 128"
    (Prom.sample_to_string
       {
         Prom.s_name = "flushes";
         s_labels = [ ("site", "q.head \"hot\"") ];
         s_value = 128.;
       });
  Alcotest.(check string)
    "integers render without exponent" "1234567890"
    (Prom.sample_to_string
       { Prom.s_name = "x"; s_labels = []; s_value = 1234567890. }
       |> String.split_on_char ' ' |> List.tl |> List.hd);
  (* unknown escapes keep their backslash, per Prometheus parsers *)
  Alcotest.(check string) "unknown escape kept" "\\q" (Prom.unescape_label "\\q")

(* -------------------- end-to-end accounting identities ----------------- *)

(* The identity the whole attribution rests on, as `dssq profile`
   checks it: for every zoo object, per-phase and per-line event counts
   each sum exactly to the backend's counter deltas — nothing
   double-counted, nothing unattributed. *)
let check_attribution_sums ~ctx (p : Zoo.profile) =
  List.iter
    (fun (what, sum, total) ->
      Alcotest.(check int) (Printf.sprintf "%s: %s" ctx what) total sum)
    (Attrib.sums p.Zoo.p_attrib p.Zoo.p_row.Zoo.z_events)

let test_zoo_attribution_sums () =
  List.iter
    (fun name ->
      check_attribution_sums ~ctx:name (Zoo.profile_one ~pairs:40 name))
    Zoo.objects

(* Under every policy: a buffered policy's crash adversary drains
   persist buffers, and each drained line is a flush. *)
let test_zoo_attribution_sums_crash () =
  List.iter
    (fun policy ->
      List.iter
        (fun name ->
          let ctx = Printf.sprintf "%s+crash/%s" name (MI.Policy.to_string policy) in
          let p = Zoo.profile_one ~pairs:40 ~policy ~crash:true name in
          check_attribution_sums ~ctx p;
          (* the crash arm must put work into the recovery phases *)
          let recovery_spans =
            List.fold_left
              (fun acc (r : Attrib.phase_row) ->
                if r.Attrib.ph_phase = "recovery-scan" then acc + r.Attrib.ph_ops
                else acc)
              0 p.Zoo.p_attrib.Attrib.phases
          in
          Alcotest.(check bool)
            (ctx ^ ": recovery-scan spans recorded")
            true (recovery_spans > 0))
        Zoo.objects)
    MI.Policy.all

let test_zoo_attribution_sums_coalesce () =
  List.iter
    (fun name ->
      check_attribution_sums ~ctx:(name ^ "+co")
        (Zoo.profile_one ~pairs:40 ~line_size:8 ~policy:Coalesced name))
    Zoo.objects

let test_native_attribution_sums () =
  List.iter
    (fun name ->
      check_attribution_sums ~ctx:(name ^ "@native")
        (Zoo.profile_one_native ~pairs:40 name))
    Zoo.objects;
  check_attribution_sums ~ctx:"dss-queue@native+co"
    (Zoo.profile_one_native ~pairs:40 ~policy:Coalesced "dss-queue")

(* Profiling must not perturb what it measures: with the aggregators
   detached, the same deterministic workload produces bit-identical
   counter deltas (this is the profiling-off anchor guarantee — the
   fig5a flushes/op constant cannot move when profiling is off). *)
let test_profiling_transparent () =
  List.iter
    (fun name ->
      let plain = Zoo.run_one ~pairs:40 name in
      let profiled = Zoo.profile_one ~pairs:40 name in
      Alcotest.(check bool)
        (name ^ ": counters identical with profiling on")
        true
        (plain.Zoo.z_events = profiled.Zoo.p_row.Zoo.z_events);
      Alcotest.(check int)
        (name ^ ": same ops")
        plain.Zoo.z_ops profiled.Zoo.p_row.Zoo.z_ops)
    Zoo.objects;
  (* and the aggregators are really off again afterwards *)
  Alcotest.(check bool) "attribution off" false (Attrib.is_on ())

(* Both zoo entry points build the heap from the same policy, so they
   count the same events under each — a policy dropped on one path shows
   as eager counts there. *)
let test_policy_reaches_both_paths () =
  List.iter
    (fun policy ->
      List.iter
        (fun name ->
          let ctx =
            Printf.sprintf "%s/%s" name
              (MI.Policy.to_string policy)
          in
          let plain = Zoo.run_one ~pairs:40 ~policy name in
          let profiled = Zoo.profile_one ~pairs:40 ~policy name in
          Alcotest.(check bool)
            (ctx ^ ": run_one = profile_one")
            true
            (plain.Zoo.z_events = profiled.Zoo.p_row.Zoo.z_events))
        [ "dss-queue"; "dss-stack"; "dss-swap" ])
    MI.Policy.all

let test_profile_heat_labeled () =
  (* Attribution is only useful if the hot lines carry names: the
     queue's heatmap must label its announce and head lines. *)
  let p = Zoo.profile_one ~pairs:40 "dss-queue" in
  let labels =
    List.filter_map
      (fun r -> if r.Attrib.h_label = "" then None else Some r.Attrib.h_label)
      p.Zoo.p_attrib.Attrib.lines
  in
  Alcotest.(check bool) "some lines are labeled" true (labels <> []);
  Alcotest.(check bool)
    "head is labeled" true
    (List.exists (fun l -> l = "head") labels)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_heatmap_sums; prop_prom_escape_roundtrip ]
  @ [
      Alcotest.test_case "heatmap labels and buckets" `Quick
        test_heatmap_labels;
      Alcotest.test_case "reset forgets an unfinished crash's verdicts"
        `Quick test_reset_forgets_verdicts;
      Alcotest.test_case "heatmap off is a no-op" `Quick
        test_heatmap_off_is_noop;
      Alcotest.test_case "heatmap top ranking" `Quick test_heatmap_top_ranking;
      Alcotest.test_case "prometheus rendering" `Quick test_prom_rendering;
      Alcotest.test_case "zoo: per-phase/per-line sums = backend totals"
        `Quick test_zoo_attribution_sums;
      Alcotest.test_case "zoo: sums hold across crash + recovery" `Quick
        test_zoo_attribution_sums_crash;
      Alcotest.test_case "zoo: sums hold under coalescing" `Quick
        test_zoo_attribution_sums_coalesce;
      Alcotest.test_case "zoo: sums hold on the native backend" `Quick
        test_native_attribution_sums;
      Alcotest.test_case "profiling is transparent" `Quick
        test_profiling_transparent;
      Alcotest.test_case "zoo: run_one and profile_one agree per policy"
        `Quick test_policy_reaches_both_paths;
      Alcotest.test_case "heatmap lines carry allocation-site labels" `Quick
        test_profile_heat_labeled;
    ]
