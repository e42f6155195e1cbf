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

module Make (M : Dssq_memory.Memory_intf.S) = struct
  type entry = { e_name : string M.cell; e_value : int M.cell }

  type t = { entries : entry array; count : int M.cell; capacity : int }

  let create ?(name = "roots") ~capacity () =
    if capacity < 1 then invalid_arg "Roots.create: capacity must be >= 1";
    let entries =
      Array.init capacity (fun i ->
          {
            e_name =
              M.alloc ~name:(name ^ ".name[" ^ string_of_int i ^ "]") "";
            e_value =
              M.alloc ~name:(name ^ ".value[" ^ string_of_int i ^ "]") 0;
          })
    in
    { entries; count = M.alloc ~name:(name ^ ".count") 0; capacity }

  let capacity t = t.capacity
  let count t = M.read t.count

  let index_of t name =
    let n = count t in
    let rec go i =
      if i >= n then None
      else if M.read t.entries.(i).e_name = name then Some i
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
        M.write e.e_value value;
        M.flush e.e_value;
        M.drain ();
        i
    | None ->
        let i = count t in
        if i >= t.capacity then
          invalid_arg (Printf.sprintf "Roots.register: directory full (%d)" i);
        let e = t.entries.(i) in
        M.write e.e_name name;
        M.write e.e_value value;
        M.flush e.e_name;
        M.flush e.e_value;
        M.drain ();
        M.write t.count (i + 1);
        M.flush t.count;
        M.drain ();
        i

  let lookup t name = Option.map (fun i -> M.read t.entries.(i).e_value) (index_of t name)
  let name_at t i = M.read t.entries.(i).e_name
  let value_at t i = M.read t.entries.(i).e_value

  let set t i value =
    M.write t.entries.(i).e_value value;
    M.flush t.entries.(i).e_value;
    M.drain ()

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
end
