(** Per-sub-heap undo logging (paper §4.5, §5.2, §5.8): Poseidon's
    instantiation of the generic {!Persist.Pundo} log over the log
    area in the sub-heap header. *)

type log = Persist.Pundo.log
type ctx = Persist.Pundo.ctx

exception Overflow = Persist.Pundo.Overflow

let count_addr meta_base = meta_base + Layout.sh_off_undo_count

let create mach ~meta_base =
  Persist.Pundo.create mach ~count_addr:(count_addr meta_base)
    ~cap:Layout.undo_cap

let attach mach ~meta_base =
  Persist.Pundo.attach mach ~count_addr:(count_addr meta_base)
    ~cap:Layout.undo_cap

let begin_op = Persist.Pundo.begin_op
let write = Persist.Pundo.write
let write_all = Persist.Pundo.write_all
let mark_dirty = Persist.Pundo.mark_dirty
let machine = Persist.Pundo.machine
let commit = Persist.Pundo.commit

let recover mach ~meta_base =
  Persist.Pundo.recover mach ~count_addr:(count_addr meta_base)

let is_empty mach ~meta_base =
  Persist.Pundo.is_empty mach ~count_addr:(count_addr meta_base)
