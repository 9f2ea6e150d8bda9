(** Generic persistent undo log over a fixed NVMM area.

    Shared by Poseidon's per-sub-heap logs, the PMDK-like baseline's
    per-lane logs and the extendible-hash index.  The area consists of
    a count word at [count_addr] — the operation's generation above a
    32-bit entry count — followed directly by [cap] 24-byte entries
    {addr, old value, checksum}.

    Protocol per batch ({!write_all}): every address the operation has
    not logged yet gets an entry {addr, old, checksum}; the new entries
    and the bumped count share {e one} persistent barrier, and only
    then are the batch's stores issued, in order — so any in-place
    change that can possibly reach the media has a persistent, valid
    log entry (the paper's "updates the original metadata after the
    persistent barrier of the undo logging", §5.2).  The new entries
    are one store; on an operation's first batch the count word leads
    that store, since it sits right before entry 0.  The barrier
    writes back each covered line once.

    Because entries and count share one barrier, a crash can persist
    the count ahead of an entry line: one store spanning several lines
    persists line by line.  The log restarts at slot 0 every
    operation, so such a slot holds garbage or a valid entry of an
    earlier operation.  Each operation logs under a fresh generation,
    which the count word carries and every checksum mixes in, so
    recovery rejects both; skipping them is safe precisely because
    their in-place writes were never issued.

    {!commit} persists every touched line and truncates the log
    (persisting the zeroed count is the commit point).  {!recover}
    replays entries in reverse; replay is idempotent. *)

let word = 8
let entry_size = 24
let cache_line = 64

let count_bits = 32
let count_mask = (1 lsl count_bits) - 1
let gen_of w = w lsr count_bits
let count_of w = w land count_mask
let count_word ~gen count = (gen lsl count_bits) lor count

let checksum_salt = 0x00C0FFEE

(* Generation 0 mixes in nothing: a log written before generations
   existed still validates. *)
let checksum ~gen addr value =
  addr lxor value lxor checksum_salt lxor (gen * 0x2545F4914F6CDD1D)

(* entry [i] of the log whose count word is at [count_addr] *)
let entry_addr count_addr i = count_addr + word + (i * entry_size)

(* Int-keyed, with the generic table's hash: [persist_dirty] writes
   the dirty lines back in bucket order, which is simulated state. *)
module Itbl = Hashtbl.Make (Int)

type log = {
  mach : Machine.t;
  count_addr : int;
  cap : int;
  mutable next_gen : int; (* DRAM only: never read from the count word per op *)
  (* DRAM only: the address and line tables an operation borrows while
     [busy]; an operation begun meanwhile gets tables of its own *)
  logged : unit Itbl.t;
  dirty : unit Itbl.t;
  mutable busy : bool;
}

let make mach ~count_addr ~cap ~next_gen =
  { mach; count_addr; cap; next_gen;
    logged = Itbl.create 32; dirty = Itbl.create 32; busy = false }

let create mach ~count_addr ~cap = make mach ~count_addr ~cap ~next_gen:1

(* A first barrier torn before its count word persisted may have left
   entries at the persisted generation + 1, so that one is skipped. *)
let attach mach ~count_addr ~cap =
  make mach ~count_addr ~cap
    ~next_gen:(gen_of (Machine.read_u64 mach count_addr) + 2)

type ctx = {
  log : log;
  gen : int;
  logged : unit Itbl.t;
  dirty : unit Itbl.t;
  borrowed : bool; (* [logged] and [dirty] are the log's *)
  mutable count : int;
}

exception Overflow

let machine ctx = ctx.log.mach

(* A reset table lays out and iterates exactly like a fresh one. *)
let begin_op log =
  let gen = log.next_gen in
  log.next_gen <- gen + 1;
  if log.busy then
    { log; gen; logged = Itbl.create 32; dirty = Itbl.create 32;
      borrowed = false; count = 0 }
  else begin
    log.busy <- true;
    Itbl.reset log.logged;
    Itbl.reset log.dirty;
    { log; gen; logged = log.logged; dirty = log.dirty; borrowed = true; count = 0 }
  end

let line_of a = a land lnot (cache_line - 1)

(** Marks a line dirty without logging — for freshly initialised words
    whose old value is semantically dead (the caller guarantees a
    rollback of some *other* logged word kills them). *)
let mark_dirty ctx addr = Itbl.replace ctx.dirty (line_of addr) ()

let write_all ctx writes =
  let log = ctx.log and mach = ctx.log.mach in
  (* the batch's addresses not logged yet, newest first, each entered
     in [logged] as it is met *)
  let fresh =
    List.fold_left
      (fun acc (addr, _) ->
        if Itbl.mem ctx.logged addr then acc
        else begin
          Itbl.replace ctx.logged addr ();
          addr :: acc
        end)
      [] writes
  in
  if fresh <> [] then begin
    let first = ctx.count in
    let n = List.length fresh in
    if first + n > log.cap then begin
      List.iter (Itbl.remove ctx.logged) fresh;
      raise Overflow
    end;
    ctx.count <- first + n;
    let count = count_word ~gen:ctx.gen ctx.count in
    (* the new entries as one image, led by the count on the first batch *)
    let lead = if first = 0 then word else 0 in
    let img = Bytes.create (lead + (n * entry_size)) in
    let set off v = Bytes.set_int64_le img off (Int64.of_int v) in
    if first = 0 then set 0 count;
    List.iteri
      (fun i addr ->
        let old = Machine.read_u64 mach addr in
        let o = lead + (i * entry_size) in
        set o addr;
        set (o + 8) old;
        set (o + 16) (checksum ~gen:ctx.gen addr old))
      (List.rev fresh);
    let start = entry_addr log.count_addr first - lead in
    Machine.write_bytes mach start img;
    if first > 0 then Machine.write_u64 mach log.count_addr count;
    (* one barrier covers the new entries and the count, each line once *)
    let stop = start + Bytes.length img in
    let rec flush a =
      Machine.clwb mach a;
      let next = line_of a + cache_line in
      if next < stop then flush next
    in
    flush start;
    if line_of log.count_addr < line_of start then
      Machine.clwb mach log.count_addr;
    Machine.sfence mach
  end;
  List.iter
    (fun (addr, value) ->
      Machine.write_u64 mach addr value;
      Itbl.replace ctx.dirty (line_of addr) ())
    writes

let write ctx addr value = write_all ctx [ (addr, value) ]

let persist_dirty ctx =
  Itbl.iter (fun line () -> Machine.clwb ctx.log.mach line) ctx.dirty;
  Machine.sfence ctx.log.mach;
  Itbl.reset ctx.dirty

let commit ?before_truncate ctx =
  let log = ctx.log in
  persist_dirty ctx;
  (match before_truncate with Some f -> f () | None -> ());
  Machine.write_u64 log.mach log.count_addr (count_word ~gen:ctx.gen 0);
  Machine.persist log.mach log.count_addr word;
  ctx.count <- 0;
  Itbl.reset ctx.logged;
  if ctx.borrowed then log.busy <- false

let recover mach ~count_addr =
  let w = Machine.read_u64 mach count_addr in
  let count = count_of w and gen = gen_of w in
  if count = 0 then false
  else begin
    for i = count - 1 downto 0 do
      let e = entry_addr count_addr i in
      let addr = Machine.read_u64 mach e in
      let old = Machine.read_u64 mach (e + 8) in
      let chk = Machine.read_u64 mach (e + 16) in
      (* a torn or stale entry means its in-place write was never issued *)
      if chk = checksum ~gen addr old then begin
        Machine.write_u64 mach addr old;
        Machine.clwb mach addr
      end
    done;
    Machine.sfence mach;
    Machine.write_u64 mach count_addr (count_word ~gen 0);
    Machine.persist mach count_addr word;
    true
  end

let is_empty mach ~count_addr = count_of (Machine.read_u64 mach count_addr) = 0
