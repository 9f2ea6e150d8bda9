(** Heap superblock: magic, root pointer and the sub-heap directory
    (paper §4.1, §4.6).

    Superblock updates are individually crash-atomic without logging:
    the root pointer is a single aligned word, and sub-heap creation
    persists the directory entry's fields before flipping (and
    persisting) its "active" state word last.  A crash between the two
    leaks a carved virtual range at worst, never consistency. *)

let magic = Layout.sb_magic
let version = 1

let read mach base off = Machine.read_u64 mach (base + off)

let write_persist mach base off v =
  Machine.write_u64 mach (base + off) v;
  Machine.persist mach (base + off) Layout.word

let format mach ~base ~window_size ~heap_id ~num_slots =
  Machine.write_u64 mach (base + Layout.sb_off_version) version;
  Machine.write_u64 mach (base + Layout.sb_off_heap_id) heap_id;
  Machine.write_u64 mach (base + Layout.sb_off_window_size) window_size;
  Machine.write_u64 mach (base + Layout.sb_off_num_slots) num_slots;
  Machine.write_u64 mach (base + Layout.sb_off_root) Alloc_intf.packed_null;
  Machine.write_u64 mach (base + Layout.sb_off_next_va)
    (base + Layout.sb_size num_slots);
  Machine.write_u64 mach (base + Layout.sb_off_last_pkey) 0;
  (* directory entries are virgin zeroes = absent *)
  Machine.persist mach base (Layout.sb_size num_slots);
  (* magic last: its persist is the creation commit point *)
  write_persist mach base Layout.sb_off_magic magic

let is_formatted mach ~base = read mach base Layout.sb_off_magic = magic

let check mach ~base =
  if not (is_formatted mach ~base) then failwith "Superblock: bad magic";
  let v = read mach base Layout.sb_off_version in
  if v <> version then
    failwith (Printf.sprintf "Superblock: unsupported version %d" v)

let heap_id mach ~base = read mach base Layout.sb_off_heap_id
let window_size mach ~base = read mach base Layout.sb_off_window_size
let num_slots mach ~base = read mach base Layout.sb_off_num_slots

let root mach ~base = read mach base Layout.sb_off_root
let set_root mach ~base packed = write_persist mach base Layout.sb_off_root packed

let next_va mach ~base = read mach base Layout.sb_off_next_va
let set_next_va mach ~base v = write_persist mach base Layout.sb_off_next_va v

let last_pkey mach ~base = read mach base Layout.sb_off_last_pkey
let set_last_pkey mach ~base v =
  write_persist mach base Layout.sb_off_last_pkey v

(* ---------- directory ---------- *)

let dir_entry base slot =
  base + Layout.sb_off_dir + (slot * Layout.dir_entry_size)

let slot_active mach ~base slot =
  read mach (dir_entry base slot) Layout.dir_off_state = 1

let slot_meta_base mach ~base slot =
  read mach (dir_entry base slot) Layout.dir_off_meta_base

let slot_data_size mach ~base slot =
  read mach (dir_entry base slot) Layout.dir_off_data_size

(** Publishes a sub-heap: fields first (persisted), state last
    (persisted) — the activation commit point. *)
let publish_slot mach ~base slot ~meta_base ~data_base ~data_size =
  let e = dir_entry base slot in
  Machine.write_u64 mach (e + Layout.dir_off_meta_base) meta_base;
  Machine.write_u64 mach (e + Layout.dir_off_data_base) data_base;
  Machine.write_u64 mach (e + Layout.dir_off_data_size) data_size;
  Machine.persist mach e Layout.dir_entry_size;
  Machine.write_u64 mach (e + Layout.dir_off_state) 1;
  Machine.persist mach (e + Layout.dir_off_state) Layout.word
