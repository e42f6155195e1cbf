(* Wall clock, reference kernel and raw-sample percentiles.

   On the benchmark host (a 2-vCPU VM) the same code runs up to 2x slower
   for seconds at a time, when other tenants load the physical core.
   Every wall-clock end-to-end number is therefore normalised by a
   reference kernel timed next to the measured segment, and reported as
   "reference ns": the time the segment would take where the kernel runs
   at 1.0 ns per iteration.  The raw times and the kernel's own speed are
   printed beside them.

   The kernel is an integer spin loop: registers only, so what the
   workload did to the heap and caches cannot change its speed (a
   compare-and-swap loop read 4.1 ns per iteration beside native-queue
   and 7.2 beside explore-queue).  In the host's slow periods it slows
   1.7-2x, as native-queue and the sims do, and restart less; runs made
   of many like units therefore also set aside the units measured in a
   slow period (see [quiet]). *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Reference kernel.                                                   *)

let ref_iters = 100_000

let ref_samples = ref []
let last_ref = ref nan

(* Time one pass of the kernel, 40-150 us: ns per iteration now. *)
let tick () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to ref_iters do
    acc := !acc + Sys.opaque_identity i
  done;
  ignore (Sys.opaque_identity !acc);
  let r = float_of_int (now () - t0) /. float_of_int ref_iters in
  ref_samples := r :: !ref_samples;
  last_ref := r;
  r

(* Start a measured phase from the same heap state in every run: what
   earlier phases left behind would otherwise set how much major GC work
   lands inside the measurement. *)
let settle_heap () = Gc.compact ()

(* The latest sample, taking one if none exists yet. *)
let current () = if Float.is_nan !last_ref then tick () else !last_ref

let reset_refs () =
  ref_samples := [];
  last_ref := nan

(* [timed f] runs [f] between two kernel samples and returns its result,
   its raw duration in ns and the kernel's ns per iteration beside it. *)
let timed f =
  let r0 = tick () in
  let t0 = now () in
  let x = f () in
  let raw = float_of_int (now () - t0) in
  (x, raw, (r0 +. tick ()) /. 2.)

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                   *)

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))) - 1)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the exclusive method), so the spreads printed here match the ones
   run.py and the acceptance check compute. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q k =
      let m = float_of_int (n + 1) *. float_of_int k /. 4. in
      let j = int_of_float (Float.floor m) in
      let j = max 1 (min (n - 1) j) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  (q3 -. q1) /. m

(* Measured units as (normalised value, kernel ns per iteration beside
   it).  A run reports the units measured while the kernel ran within
   25 % of its fast end in that run (its 5th percentile): a workload
   that slows less than the kernel in the host's slow periods would
   otherwise read faster in them.  Every unit when fewer than 20 pass. *)
let quiet units =
  let fast = percentile (List.map snd units) 5. in
  match List.filter (fun (_, r) -> r <= 1.25 *. fast) units with
  | kept when List.length kept >= 20 -> List.map fst kept
  | _ -> List.map fst units

(* Normalised set-up time in s: the median of [reps] timed calls, and the
   last call's result. *)
let setup_time reps f =
  let runs = List.init reps (fun _ -> timed f) in
  let x, _, _ = List.hd (List.rev runs) in
  (x, median (List.map (fun (_, raw, rf) -> raw /. rf /. 1e9) runs))

(* Raw samples in a growable float array; percentiles are exact
   (nearest rank over the sorted samples). *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int; mutable sorted : bool }

  let create () = { a = Float.Array.create 4096; n = 0; sorted = true }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.set t.a t.n x;
    t.n <- t.n + 1;
    t.sorted <- false

  (* [p] in (0, 100]; sorts the samples in place on first use. *)
  let percentile t p =
    if t.n = 0 then nan
    else begin
      if not t.sorted then begin
        let s = Float.Array.sub t.a 0 t.n in
        Float.Array.sort Float.compare s;
        Float.Array.blit s 0 t.a 0 t.n;
        t.sorted <- true
      end;
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
      Float.Array.get t.a (max 1 (min t.n rank) - 1)
    end
end

(* Peak resident set (VmHWM), in MB. *)
let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* The reported peak: VmHWM once set-up and the first measured unit of
   work are done.  Later units repeat the same work to sample the wall
   clock; letting them count would make the peak depend on how many fit
   into the run. *)
let peak_rss_mb = ref nan
let mark_first_unit () = if Float.is_nan !peak_rss_mb then peak_rss_mb := vm_hwm_mb ()
