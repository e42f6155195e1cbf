(** The write-ahead log's format guarantees, unit and property tested:
    append/replay round-trips, the checksum rejects every single-bit
    flip of every stored word, replay is idempotent, a torn final
    record is detected and dropped (never misread), interior damage is
    refused as corruption, and truncate leaves a clean empty log. *)

module Heap = Dssq_pmem.Heap
module Sim = Dssq_sim.Sim
module Wal = Dssq_pmem.Wal

(* A record for the generators: lane is assigned at append time. *)
type rcd = { kind : int; a : int; b : int }

let gen_rcd =
  QCheck.Gen.(
    map3
      (fun kind a b -> { kind; a; b })
      (int_range 1 15)
      (int_range 0 100_000)
      (int_range 0 100_000))

let arb_rcds lanes cap =
  QCheck.make
    ~print:(fun rss ->
      String.concat "; "
        (List.mapi
           (fun lane rs ->
             Printf.sprintf "lane%d:[%s]" lane
               (String.concat ","
                  (List.map
                     (fun r -> Printf.sprintf "%d/%d/%d" r.kind r.a r.b)
                     rs)))
           rss))
    QCheck.Gen.(
      flatten_l (List.init lanes (fun _ -> list_size (int_range 0 cap) gen_rcd)))

(* ------------------------------ unit ---------------------------------- *)

let test_roundtrip_basic () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module W = Wal.Make (M) in
  let t = W.create ~lanes:2 ~lane_capacity:4 () in
  W.append t ~lane:0 ~kind:Wal.Codec.kind_alloc ~a:7 ~b:0;
  W.append t ~lane:1 ~kind:Wal.Codec.kind_free ~a:9 ~b:1;
  W.append t ~lane:0 ~kind:Wal.Codec.kind_root ~a:0 ~b:0;
  Alcotest.(check int) "appended" 3 (W.appended t);
  let records, torn = W.replay t in
  Alcotest.(check int) "no torn tail" 0 torn;
  Alcotest.(check (list (pair int (pair int int))))
    "records, lane-major append order"
    [
      (0, (Wal.Codec.kind_alloc, 7));
      (0, (Wal.Codec.kind_root, 0));
      (1, (Wal.Codec.kind_free, 9));
    ]
    (List.map (fun r -> (r.Wal.r_lane, (r.Wal.r_kind, r.Wal.r_a))) records)

let test_full () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module W = Wal.Make (M) in
  let t = W.create ~lanes:1 ~lane_capacity:2 () in
  W.append t ~lane:0 ~kind:1 ~a:1 ~b:0;
  W.append t ~lane:0 ~kind:1 ~a:2 ~b:0;
  Alcotest.check_raises "third append overflows" (Wal.Full { lane = 0 })
    (fun () -> W.append t ~lane:0 ~kind:1 ~a:3 ~b:0)

let test_torn_tail_dropped () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module W = Wal.Make (M) in
  let t = W.create ~lanes:1 ~lane_capacity:8 () in
  for i = 1 to 3 do
    W.append t ~lane:0 ~kind:1 ~a:i ~b:0
  done;
  (* the final record's checksum never hit memory: a torn append *)
  W.corrupt_word t ~lane:0 ~slot:2 ~word:3 ~f:(fun _ -> 0);
  (match W.states t with
  | [ Wal.Torn { valid = 2; at = 2 } ] -> ()
  | s ->
      Alcotest.failf "expected Torn{valid=2;at=2}, got %s"
        (String.concat ";"
           (List.map
              (function
                | Wal.Clean n -> Printf.sprintf "Clean %d" n
                | Wal.Torn { valid; at } ->
                    Printf.sprintf "Torn{%d;%d}" valid at
                | Wal.Corrupt { at } -> Printf.sprintf "Corrupt{%d}" at)
              s)));
  (match W.verify t with
  | Error _ -> ()
  | Ok n -> Alcotest.failf "strict verify accepted a torn log (Ok %d)" n);
  let records, torn = W.replay t in
  Alcotest.(check int) "torn tail dropped" 1 torn;
  Alcotest.(check (list int))
    "valid prefix survives" [ 1; 2 ]
    (List.map (fun r -> r.Wal.r_a) records);
  (* the lane cursor now points at the dropped slot: appending reuses it *)
  W.append t ~lane:0 ~kind:1 ~a:99 ~b:0;
  let records, torn = W.replay t in
  Alcotest.(check int) "clean after overwrite" 0 torn;
  Alcotest.(check (list int))
    "overwritten tail replays" [ 1; 2; 99 ]
    (List.map (fun r -> r.Wal.r_a) records)

let test_interior_corruption_refused () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module W = Wal.Make (M) in
  let t = W.create ~lanes:1 ~lane_capacity:8 () in
  for i = 1 to 3 do
    W.append t ~lane:0 ~kind:1 ~a:i ~b:0
  done;
  W.corrupt_word t ~lane:0 ~slot:0 ~word:2 ~f:(fun b -> b + 1);
  Alcotest.check_raises "replay refuses interior damage"
    (Wal.Corrupted { lane = 0; slot = 0 })
    (fun () -> ignore (W.replay t))

(* A nonzero word in an empty slot past the last record: the full-lane
   scan refuses it at the first empty slot, and truncate (whose wipe
   stops at the extent) still clears it. *)
let test_stray_word_refused () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module W = Wal.Make (M) in
  let t = W.create ~lanes:1 ~lane_capacity:8 () in
  for i = 1 to 3 do
    W.append t ~lane:0 ~kind:1 ~a:i ~b:0
  done;
  W.corrupt_word t ~lane:0 ~slot:6 ~word:0 ~f:(fun _ -> 1);
  Alcotest.check_raises "replay refuses the stray word"
    (Wal.Corrupted { lane = 0; slot = 3 })
    (fun () -> ignore (W.replay t));
  W.truncate t;
  Alcotest.(check bool)
    "truncate clears it" true
    (W.states t = [ Wal.Clean 0 ])

let test_truncate () =
  let heap = Heap.create () in
  let (module M) = Sim.memory heap in
  let module W = Wal.Make (M) in
  let t = W.create ~lanes:2 ~lane_capacity:4 () in
  for i = 1 to 4 do
    W.append t ~lane:(i mod 2) ~kind:1 ~a:i ~b:0
  done;
  W.truncate t;
  (match W.verify t with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "truncated log verifies to %d records" n
  | Error e -> Alcotest.failf "truncated log fails verify: %s" e);
  (match W.replay t with
  | [], 0 -> ()
  | records, torn ->
      Alcotest.failf "truncated log replays %d record(s), %d torn"
        (List.length records) torn);
  (* and the log is usable again *)
  W.append t ~lane:0 ~kind:2 ~a:5 ~b:0;
  Alcotest.(check int) "appended after truncate" 1 (W.appended t)

let test_checksum_slot_bound () =
  (* a record valid at slot s must not classify as valid at slot s' *)
  let sum = Wal.Codec.checksum ~slot:3 ~kind:1 ~a:10 ~b:20 in
  (match Wal.Codec.classify ~slot:3 ~kind:1 ~a:10 ~b:20 ~sum with
  | Wal.Codec.Valid -> ()
  | _ -> Alcotest.fail "record invalid at its own slot");
  match Wal.Codec.classify ~slot:4 ~kind:1 ~a:10 ~b:20 ~sum with
  | Wal.Codec.Valid -> Alcotest.fail "record validated at the wrong slot"
  | _ -> ()

(* ---------------------------- properties ------------------------------ *)

let lanes = 3
let cap = 12

(* Append per-lane programs (round-robin across lanes so appends
   interleave), then replay and compare lane by lane. *)
let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"wal: append/replay round-trip"
    (arb_rcds lanes cap) (fun rss ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module W = Wal.Make (M) in
      let t = W.create ~lanes ~lane_capacity:cap () in
      let rec interleave queues =
        let progressed = ref false in
        let queues' =
          List.mapi
            (fun lane q ->
              match q with
              | [] -> []
              | r :: rest ->
                  W.append t ~lane ~kind:r.kind ~a:r.a ~b:r.b;
                  progressed := true;
                  rest)
            queues
        in
        if !progressed then interleave queues'
      in
      interleave rss;
      let records, torn = W.replay t in
      let by_lane lane =
        List.filter_map
          (fun r ->
            if r.Wal.r_lane = lane then Some (r.Wal.r_kind, r.r_a, r.r_b)
            else None)
          records
      in
      torn = 0
      && List.for_all
           (fun lane ->
             by_lane lane
             = List.map
                 (fun r -> (r.kind, r.a, r.b))
                 (List.nth rss lane))
           (List.init lanes Fun.id))

let prop_replay_idempotent =
  QCheck.Test.make ~count:100 ~name:"wal: replay is idempotent"
    (arb_rcds lanes cap) (fun rss ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module W = Wal.Make (M) in
      let t = W.create ~lanes ~lane_capacity:cap () in
      List.iteri
        (fun lane rs ->
          List.iter (fun r -> W.append t ~lane ~kind:r.kind ~a:r.a ~b:r.b) rs)
        rss;
      let r1 = W.replay t in
      let r2 = W.replay t in
      r1 = r2)

(* The deterministic single-bit-flip guarantee: flip any one bit of any
   stored word of any record and the log never silently replays the
   damaged record as valid — verify fails, and replay either drops it
   (tail) or refuses the lane (interior). *)
let prop_single_bit_flip_detected =
  QCheck.Test.make ~count:400 ~name:"wal: any single-bit flip is detected"
    QCheck.(
      quad
        (make
           ~print:(fun rs ->
             String.concat ","
               (List.map (fun r -> Printf.sprintf "%d/%d/%d" r.kind r.a r.b) rs))
           Gen.(list_size (int_range 1 8) gen_rcd))
        (int_range 0 1_000_000) (int_range 0 3) (int_range 0 62))
    (fun (rs, slot_pick, word, bit) ->
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module W = Wal.Make (M) in
      let t = W.create ~lanes:1 ~lane_capacity:8 () in
      List.iter (fun r -> W.append t ~lane:0 ~kind:r.kind ~a:r.a ~b:r.b) rs;
      let n = List.length rs in
      let slot = slot_pick mod n in
      W.corrupt_word t ~lane:0 ~slot ~word ~f:(fun w -> w lxor (1 lsl bit));
      let verify_failed = Result.is_error (W.verify t) in
      let replay_safe =
        match W.replay t with
        | records, torn ->
            (* damaged slot must be gone, and only as a dropped tail *)
            torn >= 1
            && slot = n - 1
            && List.map (fun r -> r.Wal.r_a) records
               = List.map (fun r -> r.a)
                   (List.filteri (fun i _ -> i < n - 1) rs)
        | exception Wal.Corrupted { lane = 0; slot = s } -> s = slot
        | exception Wal.Corrupted _ -> false
      in
      verify_failed && replay_safe)

(* Truncate after a crash: appends across lanes, then optionally a
   torn append (a crash inside [append], at any of its steps, with a
   random eviction draw) and optionally one damaged word somewhere in
   the written slots.  Whatever replay makes of it, truncate leaves
   every lane clean and empty, durably, with the cursors at 0 — and it
   reads at most the four words of each slot the lane ever held:
   [valid + torn] per lane when replay accepts the log. *)
let prop_truncate_after_crash =
  QCheck.Test.make ~count:300
    ~name:"wal: truncate after a torn append or damage is bounded and clean"
    QCheck.(
      quad (arb_rcds lanes (cap - 1))
        (option (triple (int_range 0 (lanes - 1)) (int_range 0 9) small_nat))
        (option
           (quad (int_range 0 (lanes - 1)) small_nat (int_range 0 3)
              (int_range 0 62)))
        bool)
    (fun (rss, torn, damage, wide) ->
      (* One log world; a crash restarts cold, into a fresh one. *)
      let world () =
        let heap = Heap.create ~line_size:(if wide then 8 else 1) () in
        let (module M) = Sim.memory heap in
        let module W = Wal.Make (M) in
        let t = W.create ~lanes ~lane_capacity:cap () in
        Heap.log_persists heap;
        ( heap,
          W.append t,
          W.corrupt_word t,
          (fun () -> W.states t),
          (fun () -> W.replay t),
          (fun () -> W.truncate t),
          fun () -> W.appended t )
      in
      let ((live, append, _, _, _, _, _) as w) = world () in
      List.iteri
        (fun lane rs ->
          List.iter (fun r -> append ~lane ~kind:r.kind ~a:r.a ~b:r.b) rs)
        rss;
      (* slots each lane has written, a torn append's included *)
      let written = Array.of_list (List.map List.length rss) in
      let w =
        match torn with
        | None -> w
        | Some (lane, step, seed) ->
            ignore
              (Sim.run live ~crash:(Sim.Crash_at_step step)
                 ~threads:[ (fun () -> append ~lane ~kind:1 ~a:seed ~b:0) ]
                : Sim.outcome);
            let ((heap, _, _, _, _, _, _) as fresh) = world () in
            Sim.restart live ~into:heap ~evict_p:0.5 ~seed;
            written.(lane) <- written.(lane) + 1;
            fresh
      in
      let heap, _, corrupt_word, states, replay, truncate, appended = w in
      Option.iter
        (fun (lane, pick, word, bit) ->
          if written.(lane) > 0 then
            corrupt_word ~lane ~slot:(pick mod written.(lane)) ~word
              ~f:(fun w -> w lxor (1 lsl bit)))
        damage;
      let states' = states () in
      let corrupt =
        List.exists (function Wal.Corrupt _ -> true | _ -> false) states'
      in
      let refused =
        match replay () with _ -> false | exception Wal.Corrupted _ -> true
      in
      let bound =
        if corrupt then Array.fold_left ( + ) 0 written
        else
          List.fold_left
            (fun acc -> function
              | Wal.Clean n -> acc + n
              | Wal.Torn { valid; _ } -> acc + valid + 1
              | Wal.Corrupt _ -> assert false)
            0 states'
      in
      let before = (Heap.counters heap).reads in
      truncate ();
      let reads = (Heap.counters heap).reads - before in
      let clean states = states () = List.init lanes (fun _ -> Wal.Clean 0) in
      let clean_now = clean states in
      (* the wipe is durable: nothing unflushed survives this crash *)
      let heap', _, _, after, _, _, _ = world () in
      Sim.restart heap ~into:heap' ~evict_p:0. ~seed:0;
      refused = corrupt && clean_now && clean after && appended () = 0
      && reads <= 4 * bound)

(* Replay against a reference scan built on [Codec.classify] alone.
   Each slot of each lane is generated as one of: a valid record, a
   torn record (a valid one with some words zeroed), a zeroed slot, a
   stray word in an otherwise empty slot, or a valid record with one bit
   flipped.  The words are planted directly, then replay's records, torn
   count and [Corrupted] verdict (and [states]) must equal the
   reference's. *)
type planted = Record | Torn of int | Zero | Stray of int * int | Flip of int * int

let gen_planted =
  QCheck.Gen.(
    frequency
      [
        (6, return Record);
        (1, map (fun m -> Torn m) (int_range 1 15));
        (3, return Zero);
        (1, map2 (fun w v -> Stray (w, v)) (int_range 0 3) (int_range 1 1000));
        (1, map2 (fun w bit -> Flip (w, bit)) (int_range 0 3) (int_range 0 62));
      ])

let print_planted = function
  | Record -> "R"
  | Torn m -> Printf.sprintf "T%d" m
  | Zero -> "0"
  | Stray (w, v) -> Printf.sprintf "S%d=%d" w v
  | Flip (w, bit) -> Printf.sprintf "F%d.%d" w bit

let prop_replay_matches_reference =
  let cap = 6 in
  QCheck.Test.make ~count:500 ~name:"wal: replay = a reference scan on classify"
    QCheck.(
      make
        ~print:(fun lanes ->
          String.concat " | "
            (List.map (fun l -> String.concat "," (List.map print_planted l)) lanes))
        Gen.(list_size (int_range 1 3) (list_size (int_range 0 cap) gen_planted)))
    (fun planted ->
      let lanes = List.length planted in
      let heap = Heap.create () in
      let (module M) = Sim.memory heap in
      let module W = Wal.Make (M) in
      let t = W.create ~lanes ~lane_capacity:cap () in
      (* The four words of each slot, as planted; unplanted slots are 0. *)
      let words =
        Array.init lanes (fun lane ->
            Array.init cap (fun i ->
                let slot = (lane * cap) + i in
                let kind = 1 + ((slot * 7) mod 15) and a = slot * 31 and b = lane in
                let valid = [| kind; a; b; Wal.Codec.checksum ~slot ~kind ~a ~b |] in
                match List.nth_opt (List.nth planted lane) i with
                | None | Some Zero -> [| 0; 0; 0; 0 |]
                | Some Record -> valid
                | Some (Torn mask) ->
                    Array.mapi (fun w v -> if mask land (1 lsl w) <> 0 then 0 else v) valid
                | Some (Stray (w, v)) -> Array.init 4 (fun w' -> if w' = w then v else 0)
                | Some (Flip (w, bit)) ->
                    Array.mapi (fun w' v -> if w' = w then v lxor (1 lsl bit) else v) valid))
      in
      Array.iteri
        (fun lane slots ->
          Array.iteri
            (fun slot ws ->
              Array.iteri
                (fun word v ->
                  if v <> 0 then W.corrupt_word t ~lane ~slot ~word ~f:(fun _ -> v))
                ws)
            slots)
        words;
      (* The reference: classify each slot, take the valid prefix, then
         look at what follows it. *)
      let classify lane i =
        let w = words.(lane).(i) in
        Wal.Codec.classify ~slot:((lane * cap) + i) ~kind:w.(0) ~a:w.(1) ~b:w.(2) ~sum:w.(3)
      in
      let reference lane =
        let rec prefix i =
          if i < cap && classify lane i = Wal.Codec.Valid then prefix (i + 1) else i
        in
        let n = prefix 0 in
        let nonzero_after =
          List.exists
            (fun j -> Array.exists (( <> ) 0) words.(lane).(j))
            (List.init (max 0 (cap - n - 1)) (fun k -> n + 1 + k))
        in
        let records =
          List.init n (fun i ->
              let w = words.(lane).(i) in
              { Wal.r_lane = lane; r_kind = w.(0); r_a = w.(1); r_b = w.(2) })
        in
        if nonzero_after then (Wal.Corrupt { at = n }, records)
        else if n < cap && classify lane n = Wal.Codec.Invalid then
          (Wal.Torn { valid = n; at = n }, records)
        else (Wal.Clean n, records)
      in
      let expected = List.init lanes reference in
      let want_replay =
        match
          List.find_map
            (fun (lane, (st, _)) ->
              match st with Wal.Corrupt { at } -> Some (lane, at) | _ -> None)
            (List.mapi (fun lane r -> (lane, r)) expected)
        with
        | Some (lane, slot) -> Error (lane, slot)
        | None ->
            Ok
              ( List.concat_map snd expected,
                List.length
                  (List.filter (function Wal.Torn _, _ -> true | _ -> false) expected) )
      in
      let got_replay =
        match W.replay t with
        | r -> Ok r
        | exception Wal.Corrupted { lane; slot } -> Error (lane, slot)
      in
      W.states t = List.map fst expected && got_replay = want_replay)

(* Replay allocates only the records it returns: a record (5 words) and
   its list cell (3), never a per-slot classification or a second copy
   of the list.  Measured on the Native backend, whose reads allocate
   nothing, over 4,096 records in four lanes. *)
let test_replay_allocation () =
  let module W = Wal.Make (Dssq_memory.Native) in
  let lanes = 4 and per_lane = 1024 in
  let t = W.create ~lanes ~lane_capacity:(per_lane + 16) () in
  for lane = 0 to lanes - 1 do
    for i = 1 to per_lane do
      W.append t ~lane ~kind:1 ~a:i ~b:lane
    done
  done;
  ignore (W.replay t : Wal.record list * int);
  let before = Gc.minor_words () in
  let records, _ = W.replay t in
  let words = Gc.minor_words () -. before in
  let n = List.length records in
  Alcotest.(check int) "every record replayed" (lanes * per_lane) n;
  let per_record = words /. float_of_int n in
  if per_record > 8.1 then
    Alcotest.failf "replay allocates %.2f minor words per record, limit 8.1"
      per_record

let suite =
  [
    Alcotest.test_case "round-trip basics" `Quick test_roundtrip_basic;
    Alcotest.test_case "lane overflow raises Full" `Quick test_full;
    Alcotest.test_case "torn tail detected and dropped" `Quick
      test_torn_tail_dropped;
    Alcotest.test_case "interior corruption refused" `Quick
      test_interior_corruption_refused;
    Alcotest.test_case "stray word past the tail refused" `Quick
      test_stray_word_refused;
    Alcotest.test_case "truncate leaves a clean empty log" `Quick
      test_truncate;
    Alcotest.test_case "checksum is slot-bound" `Quick
      test_checksum_slot_bound;
    Alcotest.test_case "replay allocates only its records" `Quick
      test_replay_allocation;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_roundtrip;
        prop_replay_idempotent;
        prop_single_bit_flip_detected;
        prop_truncate_after_crash;
        prop_replay_matches_reference;
      ]
