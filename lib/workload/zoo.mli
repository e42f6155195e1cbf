(** Uniform [persistent_words_per_op] accounting over every detectable
    object in [lib/core] — the empirical companion to the Ben-Baruch,
    Hendler & Rusanovsky space bounds (PAPERS.md).  Deterministic
    two-thread workloads on the counted simulator backend; see the
    implementation header for the methodology. *)

type row = {
  z_object : string;
  z_ops : int;  (** completed detectable operations *)
  z_events : Dssq_memory.Memory_intf.counters;
      (** memory-event delta over the measured operations *)
  z_stats : Dssq_core.Detectable_intf.stats;
      (** static persistent footprint of the instance *)
}

val words_per_op : row -> float
(** [pwrites / ops]: persistent-word mutations (stores plus successful
    CAS) per completed detectable operation. *)

val flushes_per_op : row -> float

val objects : string list
(** Every object the zoo can account, by registry-style name. *)

val run_one :
  ?pairs:int ->
  ?line_size:int ->
  ?policy:Dssq_memory.Memory_intf.Policy.t ->
  string ->
  row
(** Run the accounting workload for one object ([pairs] iterations per
    thread, two detectable operations per iteration).  [policy] (default
    [Eager]) is the heap's persist policy; under the buffered policies
    flushes wait in persist buffers, so the per-op event mix shifts
    accordingly.  Under [Combine] the object is also created in
    flat-combining mode where it supports it (register and hashmap have
    none).
    @raise Invalid_argument listing {!objects} on an unknown name. *)

val run_all :
  ?pairs:int ->
  ?line_size:int ->
  ?policy:Dssq_memory.Memory_intf.Policy.t ->
  unit ->
  row list
(** {!run_one} over all of {!objects}, in order. *)

type fc_row = {
  f_batch : int;  (** driver epoch size, operation pairs *)
  f_ops : int;
  f_words : float;  (** persisted words per op — floor-bound, flat *)
  f_flushes : float;  (** flushes per op — the amortized axis *)
  f_fences : float;
}

val combine_rows : ?batches:int list -> ?nthreads:int -> unit -> fc_row list
(** Flat-combining amortization sweep on the engine-backed queue
    ([dss-fc], combine mode): persisted words/op and flushes/op per
    driver batch size.  Words/op stays at the Ben-Baruch floor (every
    folded operation still turns over its announce record); flushes/op
    falls toward O(1/batch) — one persist epoch per batch is the whole
    optimisation. *)

type profile = {
  p_row : row;
  p_attrib : Dssq_obs.Attrib.t;
      (** per-phase and per-line persist events, per-phase span latency *)
}

val profile_one :
  ?pairs:int ->
  ?line_size:int ->
  ?policy:Dssq_memory.Memory_intf.Policy.t ->
  ?crash:bool ->
  string ->
  profile
(** {!run_one} with the attribution table attached (simulator
    backend).  [crash] additionally injects a seeded random crash after
    the workload and runs recovery plus per-thread resolve, so the
    recovery phases appear in the attribution.  Per-phase and per-line
    event sums equal the row's counter deltas by construction.
    @raise Invalid_argument listing {!objects} on an unknown name. *)

val profile_one_native :
  ?pairs:int ->
  ?line_size:int ->
  ?policy:Dssq_memory.Memory_intf.Policy.t ->
  string ->
  profile
(** {!profile_one} on a native [Native.Make] backend under [policy], with
    workers run sequentially for a deterministic event stream.  No crash
    arm: crash semantics are simulator-only. *)

val to_report :
  ?pairs:int -> ?line_size:int -> row list -> Dssq_obs.Run_report.t
(** Package rows as a run report (current schema version): one series
    per object with
    a single point carrying [words_per_op] as its sample and the event
    counters (including [pwrites]); the static footprints go into the
    report's [metrics] as [zoo.<object>.state_words] /
    [zoo.<object>.announce_words]. *)
