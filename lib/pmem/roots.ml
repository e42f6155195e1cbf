(** A persistent root-pointer directory: named durable roots so a
    recovered process can find its objects again without any volatile
    references surviving the crash.

    The directory is a fixed-capacity array of (name, value) entry
    pairs plus a persistent count.  Registration is crash-safe by
    ordering: the entry's name and value are written and drained
    {e before} the count is bumped and drained, so the persistent
    count never exceeds the number of fully-written entries — a crash
    mid-registration loses at most the in-flight entry, never exposes
    a half-written one. *)

(* The directory's code, written once over any backend's cells: a
   directory carries its backend's operations on its name and value
   cells ([ops]), so applying {!Make} allocates its [create] closure and
   its module block, not a closure per function (as in {!Wal}). *)
type ('s, 'i) ops = {
  read_name : 's -> string;
  write_name : 's -> string -> unit;
  flush_name : 's -> unit;
  read : 'i -> int;
  write : 'i -> int -> unit;
  flush : 'i -> unit;
  drain : unit -> unit;
}

type ('s, 'i) entry = { e_name : 's; e_value : 'i }

type ('s, 'i) t = {
  ops : ('s, 'i) ops;
  entries : ('s, 'i) entry array;
  count : 'i;
  capacity : int;
}

let capacity t = t.capacity
let count t = t.ops.read t.count

let index_of t name =
  let n = count t in
  let rec go i =
    if i >= n then None
    else if t.ops.read_name t.entries.(i).e_name = name then Some i
    else go (i + 1)
  in
  go 0

(** Register (or update) a named root; returns its entry index.
    Durable when this returns; see the ordering argument above. *)
let register t ~name ~value =
  if name = "" then invalid_arg "Roots.register: empty name";
  match index_of t name with
  | Some i ->
      let e = t.entries.(i) in
      t.ops.write e.e_value value;
      t.ops.flush e.e_value;
      t.ops.drain ();
      i
  | None ->
      let i = count t in
      if i >= t.capacity then
        invalid_arg (Printf.sprintf "Roots.register: directory full (%d)" i);
      let e = t.entries.(i) in
      t.ops.write_name e.e_name name;
      t.ops.write e.e_value value;
      t.ops.flush_name e.e_name;
      t.ops.flush e.e_value;
      t.ops.drain ();
      t.ops.write t.count (i + 1);
      t.ops.flush t.count;
      t.ops.drain ();
      i

let lookup t name = Option.map (fun i -> t.ops.read t.entries.(i).e_value) (index_of t name)
let name_at t i = t.ops.read_name t.entries.(i).e_name
let value_at t i = t.ops.read t.entries.(i).e_value

let set t i value =
  t.ops.write t.entries.(i).e_value value;
  t.ops.flush t.entries.(i).e_value;
  t.ops.drain ()

let names t = List.init (count t) (fun i -> name_at t i)

(** Validate the directory after a crash: every entry below the
    persistent count must carry a non-empty name.  The write
    ordering makes violations impossible under the crash model; a
    violation therefore means corruption, which fsck reports. *)
let verify t =
  let n = count t in
  if n < 0 || n > t.capacity then
    Error (Printf.sprintf "roots: persistent count %d out of range" n)
  else
    let rec go i =
      if i >= n then Ok n
      else if name_at t i = "" then
        Error (Printf.sprintf "roots: entry %d below count %d has no name" i n)
      else go (i + 1)
    in
    go 0

(** Re-attach after a crash: verify and return the number of durable
    roots.  @raise Failure on a corrupt directory. *)
let reattach t =
  match verify t with Ok n -> n | Error e -> failwith e

module Make (M : Dssq_memory.Memory_intf.S) = struct
  type nonrec t = (string M.cell, int M.cell) t

  let create ?(name = "roots") ~capacity () =
    if capacity < 1 then invalid_arg "Roots.create: capacity must be >= 1";
    let entries =
      Array.init capacity (fun i ->
          {
            e_name =
              M.alloc
                ~name:(fun () -> name ^ ".name[" ^ string_of_int i ^ "]")
                "";
            e_value =
              M.alloc
                ~name:(fun () -> name ^ ".value[" ^ string_of_int i ^ "]")
                0;
          })
    in
    {
      ops =
        {
          read_name = M.read;
          write_name = M.write;
          flush_name = M.flush;
          read = M.read;
          write = M.write;
          flush = M.flush;
          drain = M.drain;
        };
      entries;
      count = M.alloc ~name:(fun () -> name ^ ".count") 0;
      capacity;
    }

  let capacity = capacity
  let count = count
  let index_of = index_of
  let register = register
  let lookup = lookup
  let name_at = name_at
  let value_at = value_at
  let set = set
  let names = names
  let verify = verify
  let reattach = reattach
end
