(** Memblock-information records (paper Fig. 4).

    One 64-byte record per memory block, stored inline in the hash
    table buckets of the sub-heap metadata region.  Reads go straight
    to the machine; writes are pairs of an undo-logged batch. *)

let get byte_off mach rec_addr = Machine.read_u64 mach (rec_addr + byte_off)

let get_offset mach a = get Layout.rec_off_offset mach a
let get_size mach a = get Layout.rec_off_size mach a
let get_status mach a = get Layout.rec_off_status mach a
let get_prev mach a = get Layout.rec_off_prev mach a
let get_next mach a = get Layout.rec_off_next mach a
let get_next_free mach a = get Layout.rec_off_next_free mach a
let get_prev_free mach a = get Layout.rec_off_prev_free mach a

let size_at a = a + Layout.rec_off_size
let status_at a = a + Layout.rec_off_status
let prev_at a = a + Layout.rec_off_prev
let next_at a = a + Layout.rec_off_next
let next_free_at a = a + Layout.rec_off_next_free
let prev_free_at a = a + Layout.rec_off_prev_free

let is_live mach a =
  let s = get_status mach a in
  s = Layout.st_free || s = Layout.st_alloc

(** Initialises a fresh record in a previously empty/tombstone slot.

    For a slot that was empty since the last commit, only the status
    word needs undo protection: rolling status back to "empty" makes
    the other fields irrelevant, so they are stored here unlogged.  For
    a tombstone slot — which may have been tombstoned earlier in this
    very operation, in which case a rollback would resurrect the old
    record — every field is returned for logging. *)
let init ctx rec_addr ~off ~size ~status ~prev ~next =
  let mach = Persist.Pundo.machine ctx in
  let fields =
    [ (rec_addr + Layout.rec_off_offset, off);
      (size_at rec_addr, size);
      (prev_at rec_addr, prev);
      (next_at rec_addr, next);
      (next_free_at rec_addr, 0);
      (prev_free_at rec_addr, 0) ]
  in
  (* status last, and logged: reverting it kills the record *)
  if get_status mach rec_addr = Layout.st_empty then begin
    List.iter
      (fun (a, v) ->
        Machine.write_u64 mach a v;
        Persist.Pundo.mark_dirty ctx a)
      fields;
    [ (status_at rec_addr, status) ]
  end
  else fields @ [ (status_at rec_addr, status) ]
