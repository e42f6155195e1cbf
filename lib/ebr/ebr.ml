(** Epoch-based memory reclamation (Fraser), as used by the paper's
    evaluation for returning dequeued nodes to per-thread free pools
    (Section 4).

    Reclamation metadata is deliberately {e volatile}: it protects readers
    from use-after-free during failure-free execution, and after a crash
    the recovery procedure rebuilds the free pools from the persistent
    structure instead (DESIGN.md Section 5), so nothing here needs to be
    flushed.  State is [Atomic]-based so the same code is safe on real
    domains and trivially correct under the cooperative simulator.

    Classic 3-epoch scheme: a thread entering a critical region announces
    the global epoch; retired items go to the announcing thread's limbo
    bucket for the current epoch; the global epoch advances only when all
    in-region threads have announced it, at which point items two epochs
    old cannot be reachable by any in-region thread and are freed. *)

type 'a t = {
  global_epoch : int Atomic.t;
  announcements : int Atomic.t array; (* -1 = quiescent *)
  limbo : 'a list array array; (* [tid].[epoch mod 3] *)
  limbo_epoch : int array array; (* epoch each bucket belongs to *)
  free : tid:int -> 'a -> unit;
  enter_count : int array; (* per-thread, to pace advance attempts *)
  advance_period : int;
}

let create ?(advance_period = 8) ~nthreads ~free () =
  {
    global_epoch = Atomic.make 0;
    announcements = Array.init nthreads (fun _ -> Atomic.make (-1));
    limbo = Array.init nthreads (fun _ -> Array.make 3 []);
    limbo_epoch = Array.init nthreads (fun _ -> Array.make 3 0);
    free;
    enter_count = Array.make nthreads 0;
    advance_period;
  }

let rec free_all t ~tid = function
  | [] -> ()
  | x :: rest ->
      t.free ~tid x;
      free_all t ~tid rest

let free_bucket t ~tid bucket =
  free_all t ~tid t.limbo.(tid).(bucket);
  t.limbo.(tid).(bucket) <- []

(* Free the buckets of [tid] whose epoch is at least two behind [epoch]. *)
let collect t ~tid ~epoch =
  for b = 0 to 2 do
    if
      t.limbo.(tid).(b) != []
      && t.limbo_epoch.(tid).(b) <= epoch - 2
    then free_bucket t ~tid b
  done

let try_advance t =
  let e = Atomic.get t.global_epoch in
  let behind = ref false in
  for i = 0 to Array.length t.announcements - 1 do
    let v = Atomic.get t.announcements.(i) in
    if v <> -1 && v <> e then behind := true
  done;
  if not !behind then ignore (Atomic.compare_and_set t.global_epoch e (e + 1))

(** Enter a reclamation-protected region.  Pointers read inside the region
    stay valid until [exit]. *)
let enter t ~tid =
  t.enter_count.(tid) <- t.enter_count.(tid) + 1;
  if t.enter_count.(tid) mod t.advance_period = 0 then try_advance t;
  let e = Atomic.get t.global_epoch in
  Atomic.set t.announcements.(tid) e;
  collect t ~tid ~epoch:e

let exit t ~tid = Atomic.set t.announcements.(tid) (-1)

(** Retire an item removed from the shared structure; it is freed once no
    thread that was in-region at retirement can still hold it. *)
let retire t ~tid x =
  let e = Atomic.get t.global_epoch in
  let b = e mod 3 in
  if t.limbo_epoch.(tid).(b) <> e && t.limbo.(tid).(b) != [] then
    (* Bucket still holds items from epoch e-3: they are old enough. *)
    free_bucket t ~tid b;
  t.limbo_epoch.(tid).(b) <- e;
  t.limbo.(tid).(b) <- x :: t.limbo.(tid).(b)

let pending t =
  Array.fold_left
    (fun acc buckets -> Array.fold_left (fun a l -> a + List.length l) acc buckets)
    0 t.limbo

(** Free everything unconditionally.  Only valid when no thread is
    in-region — e.g. single-threaded teardown or post-crash recovery. *)
let quiesce t =
  Array.iteri (fun tid _ -> for b = 0 to 2 do free_bucket t ~tid b done) t.limbo

(** Drop all reclamation state {e without} freeing anything: limbo lists,
    announcements, epochs.  This models process restart after a crash —
    reclamation metadata is volatile, and whoever recovers the protected
    structure accounts for the formerly-limbo items itself (e.g. the DSS
    queue recovery rebuilds free pools by reachability). *)
let clear t =
  Array.iter (fun buckets -> Array.iteri (fun b _ -> buckets.(b) <- []) buckets) t.limbo;
  Array.iter (fun a -> Atomic.set a (-1)) t.announcements;
  Atomic.set t.global_epoch 0

let global_epoch t = Atomic.get t.global_epoch
