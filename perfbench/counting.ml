(* Counting interposer over any memory backend: the traced runs build
   their objects over [Make (M) ()] instead of [M] and read memory events
   per operation off it — the same wrapping pattern as
   [Dssq_checker.Mutants.wrap], with no change to the backend.  Each
   event is counted after the backend returns, so an access a crash
   kills before it applies is not counted, exactly as the backends' own
   counters behave. *)

module Intf = Dssq_memory.Memory_intf

type counts = {
  mutable reads : int;
  mutable writes : int;
  mutable cas : int;
  mutable cas_failed : int;
  mutable flushes : int;  (** flush calls, effective or elided *)
  mutable fences : int;
  mutable drains : int;
}

let zero () =
  {
    reads = 0;
    writes = 0;
    cas = 0;
    cas_failed = 0;
    flushes = 0;
    fences = 0;
    drains = 0;
  }

let copy c = { c with reads = c.reads }

let diff ~after ~before =
  {
    reads = after.reads - before.reads;
    writes = after.writes - before.writes;
    cas = after.cas - before.cas;
    cas_failed = after.cas_failed - before.cas_failed;
    flushes = after.flushes - before.flushes;
    fences = after.fences - before.fences;
    drains = after.drains - before.drains;
  }

let add a b =
  {
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    cas = a.cas + b.cas;
    cas_failed = a.cas_failed + b.cas_failed;
    flushes = a.flushes + b.flushes;
    fences = a.fences + b.fences;
    drains = a.drains + b.drains;
  }

let pwrites c = c.writes + c.cas - c.cas_failed

module Make (M : Intf.S) () : sig
  include Intf.S with type 'a cell = 'a M.cell

  val counts : counts
end = struct
  type 'a cell = 'a M.cell

  let counts = zero ()
  let alloc = M.alloc
  let alloc_block = M.alloc_block

  let read c =
    let v = M.read c in
    counts.reads <- counts.reads + 1;
    v

  let write c v =
    M.write c v;
    counts.writes <- counts.writes + 1

  let cas c ~expected ~desired =
    let ok = M.cas c ~expected ~desired in
    counts.cas <- counts.cas + 1;
    if not ok then counts.cas_failed <- counts.cas_failed + 1;
    ok

  let flush c =
    M.flush c;
    counts.flushes <- counts.flushes + 1

  let fence () =
    M.fence ();
    counts.fences <- counts.fences + 1

  let drain () =
    M.drain ();
    counts.drains <- counts.drains + 1
end

(* The interposer's counts against the backend's own counters over the
   same interval.  Loads, stores, CAS and persistent-word mutations must
   agree on every backend.  On an eager backend every flush call is
   either a write-back or an elision and every fence is the caller's;
   a buffering backend also writes back and fences inside drains and
   auto-drains, so flushes and fences are compared only when [eager]. *)
let mismatches ~eager (c : counts) (b : Intf.counters) =
  let pairs =
    [
      ("reads", c.reads, b.reads);
      ("writes", c.writes, b.writes);
      ("cas", c.cas, b.cases);
      ("pwrites", pwrites c, b.pwrites);
    ]
    @
    if eager then
      [
        ("flushes", c.flushes, b.flushes + b.elided_flushes);
        ("fences", c.fences, b.fences);
      ]
    else []
  in
  List.filter_map
    (fun (name, mine, theirs) ->
      if mine = theirs then None
      else
        Some
          (Printf.sprintf "interposer %s %d <> backend %d" name mine theirs))
    pairs
