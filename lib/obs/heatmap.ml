(** Persistence heatmap: per-line attribution of persist traffic.

    The counters ([Dssq_memory.Memory_intf.counters], {!Dssq_pmem}'s
    stats) answer "how many flushes"; this module answers "which line
    pays them".  Both backends report every persist-relevant event with
    the persist-line id the {!Line} allocator stamped at allocation
    time; the heatmap aggregates them per line, labels lines with the
    allocation-site cell name (the first named cell placed on the line)
    and buckets labels by owning object (the name prefix before ['.'] or
    ['[']), so hot lines are rankable and attributable.

    A subscriber of the {!Dssq_memory.Persist_event} stream, which both
    backends emit into: {!start} subscribes, {!stop} unsubscribes, so
    with the heatmap off nothing reaches it.  Recording takes a mutex,
    acceptable for a measurement mode (same argument as the tracer). *)

module PE = Dssq_memory.Persist_event

type row = {
  h_line : int;
  h_label : string;  (** allocation-site name, "" if the line is unnamed *)
  h_object : string;  (** owning-object bucket derived from the label *)
  h_writes : int;
  h_flushes : int;
  h_elides : int;
  h_coalesces : int;
  h_evicts : int;
  h_drops : int;
}

type counts = {
  mutable label : string;
  mutable writes : int;
  mutable flushes : int;
  mutable elides : int;
  mutable coalesces : int;
  mutable evicts : int;
  mutable drops : int;
}

let subscription = ref None
let lock = Mutex.create ()
let table : (int, counts) Hashtbl.t = Hashtbl.create 64
let is_on () = !subscription <> None

(* Lines already given a verdict by the crash in progress: the stream
   carries one verdict per dirty cell, the heatmap counts one per line. *)
let judged : (int, unit) Hashtbl.t = Hashtbl.create 16

let slot line =
  match Hashtbl.find_opt table line with
  | Some c -> c
  | None ->
      let c =
        {
          label = "";
          writes = 0;
          flushes = 0;
          elides = 0;
          coalesces = 0;
          evicts = 0;
          drops = 0;
        }
      in
      Hashtbl.add table line c;
      c

let bump line f =
  Mutex.lock lock;
  f (slot line);
  Mutex.unlock lock

(* Fold one stream event into its line's row; events that touch no count
   (reads, failed CAS, buffered flushes) create no row.  Allocation
   labels: the first non-empty name wins — with co-located cells, the
   block's first member, which is the most recognizable.  Fences carry
   no line. *)
let observe (ev : PE.t) =
  let line = ev.line in
  match ev.kind with
  | Crashed -> Hashtbl.reset judged
  | _ when line < 0 -> ()
  | Alloc ->
      if ev.name <> "" then
        bump line (fun c -> if c.label = "" then c.label <- ev.name)
  | Write | Cas true -> bump line (fun c -> c.writes <- c.writes + 1)
  | Flush Written_back | Write_back { effective = true; _ } ->
      bump line (fun c -> c.flushes <- c.flushes + 1)
  | Flush Elided | Write_back { effective = false; _ } ->
      bump line (fun c -> c.elides <- c.elides + 1)
  | Flush Coalesced -> bump line (fun c -> c.coalesces <- c.coalesces + 1)
  | Verdict evicted ->
      if not (Hashtbl.mem judged line) then begin
        Hashtbl.add judged line ();
        bump line (fun c ->
            if evicted then c.evicts <- c.evicts + 1 else c.drops <- c.drops + 1)
      end
  | Read | Cas false | Flush Buffered | Fence _ -> ()

(* Owning-object bucket: the label prefix before the first ['.'] (the
   engine's [name.suffix] convention) or ['['] (announce and pool
   arrays), the whole label when neither occurs, "?" when unnamed. *)
let bucket label =
  if label = "" then "?"
  else
    let cut =
      List.filter_map (fun ch -> String.index_opt label ch) [ '.'; '[' ]
    in
    match cut with
    | [] -> label
    | cuts -> String.sub label 0 (List.fold_left min (String.length label) cuts)

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock

(** Zero the event counts but keep line labels: run this after object
    construction so the measured window starts clean without losing the
    allocation-site names recorded during setup. *)
let reset_counts () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ c ->
      c.writes <- 0;
      c.flushes <- 0;
      c.elides <- 0;
      c.coalesces <- 0;
      c.evicts <- 0;
      c.drops <- 0)
    table;
  Mutex.unlock lock

let stop () =
  Option.iter PE.unsubscribe !subscription;
  subscription := None

let start () =
  if not (is_on ()) then subscription := Some (PE.subscribe observe)

let rows () =
  Mutex.lock lock;
  let rows =
    Hashtbl.fold
      (fun line c acc ->
        {
          h_line = line;
          h_label = c.label;
          h_object = bucket c.label;
          h_writes = c.writes;
          h_flushes = c.flushes;
          h_elides = c.elides;
          h_coalesces = c.coalesces;
          h_evicts = c.evicts;
          h_drops = c.drops;
        }
        :: acc)
      table []
  in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.h_line b.h_line) rows

(** Rank rows by persist cost — effective flushes first (the paid
    write-backs), then writes — and keep the top [n]. *)
let top ~n rows =
  let ranked =
    List.sort
      (fun a b ->
        match compare b.h_flushes a.h_flushes with
        | 0 -> (
            match compare b.h_writes a.h_writes with
            | 0 -> compare a.h_line b.h_line
            | c -> c)
        | c -> c)
      rows
  in
  List.filteri (fun i _ -> i < n) ranked

let row_to_json r : Json.t =
  Json.Obj
    [
      ("line", Json.Int r.h_line);
      ("label", Json.String r.h_label);
      ("object", Json.String r.h_object);
      ("writes", Json.Int r.h_writes);
      ("flushes", Json.Int r.h_flushes);
      ("elided", Json.Int r.h_elides);
      ("coalesced", Json.Int r.h_coalesces);
      ("evicted", Json.Int r.h_evicts);
      ("dropped", Json.Int r.h_drops);
    ]

let rows_to_json rows : Json.t = Json.List (List.map row_to_json rows)

let pp_rows fmt rows =
  Format.fprintf fmt "%6s  %-24s %8s %8s %8s %8s %6s %6s@." "line" "label"
    "writes" "flushes" "elided" "coal" "evict" "drop";
  List.iter
    (fun r ->
      Format.fprintf fmt "%6d  %-24s %8d %8d %8d %8d %6d %6d@." r.h_line
        (if r.h_label = "" then "?" else r.h_label)
        r.h_writes r.h_flushes r.h_elides r.h_coalesces r.h_evicts r.h_drops)
    rows
