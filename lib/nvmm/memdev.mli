(** Simulated byte-addressable memory device with persistence semantics.

    This is the substrate that stands in for Intel Optane DCPMM (plus
    ordinary DRAM) in the reproduction.  It implements exactly the
    contract a persistent allocator relies on:

    - stores land in a {e volatile} image (CPU caches);
    - a store becomes {e persistent} only after [clwb] on its cache line
      followed by [sfence] (the "persistent barrier" of the paper, §6);
    - a {!crash} discards the volatile image and exposes the persistent
      one; in [`Adversarial] mode an arbitrary subset of unflushed dirty
      lines is persisted first, modelling cache evictions that real
      hardware may perform behind the program's back.

    The device is sparsely backed (64 KiB chunks allocated on first
    write), so multi-gigabyte simulated heaps whose user data is never
    written cost almost nothing in real memory.

    The device performs no cost accounting and no protection checks;
    those belong to the [machine] and [mpk] layers.

    Host-side caches, which hold no simulated state: a direct-mapped
    cache from chunk index to chunk (never-written chunks included) in
    front of the chunk table, which {!punch} evicts when it releases a
    whole chunk; a memo of the last region found; and one staging slot
    per {!clwb}'d line, so an {!sfence} visits only the staged lines
    and costs O(1) when none is.  {!punch} drops the slots in its
    range.  An 8-byte access inside a chunk allocates nothing.  The
    order in which a [`Adversarial] {!crash} draws its bits is that of
    the chunk table and of a line-to-snapshot [Hashtbl] built since
    the last fence, and is kept exactly. *)

type t

type addr = int
(** Simulated physical address (byte offset in the device). *)

type kind = Dram | Nvmm

type crash_mode =
  [ `Strict  (** nothing unfenced survives — worst case *)
  | `Adversarial of Repro_util.Prng.t
    (** each unflushed dirty line independently persists with p = 1/2 *) ]

exception Invalid_address of addr

val cache_line : int
(** 64 bytes. *)

val create : unit -> t

(** {2 Regions} *)

val add_region : t -> base:addr -> size:int -> kind:kind -> numa:int -> unit
(** Declares an address range.  Ranges must not overlap.  Accessing an
    address outside every region raises {!Invalid_address}. *)

val region_info : t -> addr -> kind * int
(** [(kind, numa)] of the region containing the address. *)

(** {2 Data access} *)

val read_u8 : t -> addr -> int
val read_u16 : t -> addr -> int
val read_u32 : t -> addr -> int
val read_u64 : t -> addr -> int

val write_u8 : t -> addr -> int -> unit
val write_u16 : t -> addr -> int -> unit
val write_u32 : t -> addr -> int -> unit
val write_u64 : t -> addr -> int -> unit

val read_bytes : t -> addr -> int -> Bytes.t
val write_bytes : t -> addr -> Bytes.t -> unit
val fill : t -> addr -> int -> char -> unit

(** {2 Persistence} *)

val clwb : t -> addr -> unit
(** Stages the cache line containing [addr] for write-back.  The staged
    data is the line's content {e at this point}; it reaches the
    persistent image at the next {!sfence}.  A clean line is not
    staged; a line staged again takes the newer snapshot. *)

val sfence : t -> unit
(** Commits every staged line to the persistent image, visiting only
    those lines. *)

val persist : t -> addr -> int -> unit
(** [persist t addr len]: [clwb] every line covering
    [addr .. addr+len-1], then [sfence] — the paper's persistent
    barrier. *)

val drain : t -> unit
(** Flushes {e all} dirty lines (clean shutdown). *)

val punch : t -> addr -> int -> unit
(** Hole-punches (zeroes, in both images, and releases backing where
    whole chunks are covered) the given range — the [fallocate]
    trick of paper §5.6.  Staged lines whose base lies in
    [[line base of addr, addr+len)] are dropped: no later fence or
    crash writes them back. *)

val has_region : t -> addr -> bool
(** Whether the address falls inside a declared region. *)

val crash : t -> crash_mode -> unit
(** Simulates power failure: volatile image := persistent image (after
    optional adversarial evictions).  Region table survives (it models
    the DAX file layout, not memory contents).  Emits a [Crash] trace
    event recording how many at-risk lines were persisted by
    adversarial eviction vs lost. *)

val dirty_lines : t -> int
(** Number of lines whose volatile content differs from persistent. *)

(** {2 Counters} *)

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable lines_flushed : int;
  mutable fences : int;
}

val counters : t -> counters
val reset_counters : t -> unit

(** {2 Persistence-point instrumentation}

    Every {!sfence} is a persistence point: the instant where staged
    lines become durable and the only boundary a crash can be usefully
    aligned to (stores between two fences are indistinguishable to a
    post-crash observer).  The hooks below let checkers enumerate and
    cut execution at exactly these points. *)

type fence_info = {
  fence_no : int;  (** cumulative fence count (see {!counters}) *)
  lines_committed : int;  (** staged lines this fence wrote back *)
  dirty_residue : int;
      (** lines still volatile-only after the fence — the at-risk set
          an adversarial crash draws its persisted subset from *)
}

val set_persistence_hook : t -> (fence_info -> unit) option -> unit
(** Called after every completed {!sfence}.  Raising from the hook
    aborts the caller mid-operation — the persistency model checker
    ({!Crashcheck}) uses this to stop execution at an exact
    persistence point and then {!crash}.  Setting it replaces the
    previous hook; [None] clears it. *)
