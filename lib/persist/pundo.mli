(** Generic persistent undo log over a fixed NVMM area.

    Shared by Poseidon's per-sub-heap logs, the PMDK-like baseline's
    per-lane logs and the extendible-hash index.  The area consists of
    a count word at [count_addr], followed directly by [cap] 24-byte
    entries {addr, old value, checksum}: entry [i] is at
    [count_addr + 8 + 24 i].  The count word holds the operation's
    generation above a 32-bit entry count.

    Protocol per batch ({!write_all}): every address of the batch the
    operation has not logged yet gets an entry {addr, old, checksum};
    the new entries and the bumped count share {e one} persistent
    barrier (clwb of each line the new entries and the count cover,
    once, and one sfence), and only then are the batch's stores
    issued, in order — so any in-place change that can possibly reach
    the media has a persistent, valid log entry.  {!write} is the
    one-pair batch.  The new entries are written as one store; on an
    operation's first batch the count word leads that store, because
    it sits right before entry 0, and a later batch stores its count
    separately.

    The batch rule: every address and value in a batch is computed
    from the state before the batch.  A write that depends on an
    earlier write of the same step belongs in the next batch.

    Generations: because entries and count share one barrier, a crash
    can persist the count ahead of an entry line (one store spanning
    several lines persists line by line), and since the log restarts
    at slot 0 every operation, that slot may still hold a valid entry
    of an earlier operation.  Each operation therefore
    logs under a fresh generation, carried in the count word and mixed
    into every entry's checksum; recovery skips entries of any other
    generation, and torn ones, which is safe precisely because their
    in-place writes were never issued.  The next generation lives in
    DRAM in the {!log} handle: it starts at 1 on a fresh area and at
    the persisted generation + 2 on attach.  Generation 0 gives the
    checksum of logs written before generations existed, so those
    still recover.

    {!commit} persists every touched line and truncates the log
    (persisting the zeroed count is the commit point).  {!recover}
    replays entries in reverse and is idempotent, so a crash during
    recovery is safe.  Both keep the generation in the count word. *)

type log
(** One log area, the next generation of its operations, and the
    address and line tables one operation at a time borrows (DRAM). *)

type ctx
(** One in-flight operation. *)

exception Overflow
(** The operation touched more than [cap] distinct words. *)

val entry_size : int
(** 24 bytes; the log area needs [8 + cap * entry_size] bytes at
    [count_addr]. *)

val create : Machine.t -> count_addr:int -> cap:int -> log
(** Handle over a freshly formatted area (count word zero). *)

val attach : Machine.t -> count_addr:int -> cap:int -> log
(** Handle over an existing area, after a restart; reads the count
    word once. *)

val begin_op : log -> ctx
(** Starts an operation on the log's reset tables, or on fresh ones
    while another operation on the log is open (not yet committed). *)

val write_all : ctx -> (int * int) list -> unit
(** [write_all ctx [(addr, value); ...]]: logs the old value of every
    address the operation has not logged yet under one barrier, then
    writes each value in place, in list order (volatile until
    {!commit}).  Raises {!Overflow} before appending any entry when
    the new entries do not fit. *)

val write : ctx -> int -> int -> unit
(** [write ctx addr value] is [write_all ctx [(addr, value)]]. *)

val mark_dirty : ctx -> int -> unit
(** Registers a line for persistence at {!commit} without logging —
    for freshly initialised words whose old value is semantically dead
    (the caller guarantees a rollback of some *other* logged word
    kills them). *)

val machine : ctx -> Machine.t

val commit : ?before_truncate:(unit -> unit) -> ctx -> unit
(** Persists every dirty line, runs [before_truncate] (e.g. a micro-log
    append that must be durable before the undo log disappears, paper
    §5.3), then truncates. *)

val recover : Machine.t -> count_addr:int -> bool
(** Replays a non-empty log in reverse (skipping torn entries and
    entries of other generations); returns whether anything was
    replayed.  Idempotent. *)

val is_empty : Machine.t -> count_addr:int -> bool
(** The count word's entry count is zero. *)
