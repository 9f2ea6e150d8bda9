(** Simulated Intel Memory Protection Keys (MPK).

    Implements the three properties Poseidon relies on (paper §4.3):

    - memory is tagged with one of 16 protection keys at 4 KiB page
      granularity, with no page-table changes needed to flip access
      rights;
    - access rights for a key live in a per-thread (per-core PKRU)
      register, so granting the metadata region write permission to the
      thread inside an allocator operation does not open it for any
      other thread;
    - flipping rights ([wrpkru]) costs ~23 cycles — the cost is charged
      by the [machine] layer, which also calls {!check} on every
      simulated memory access.

    Key 0 is the default key; freshly tagged memory and untagged pages
    carry it, and its default permission is read-write, matching
    hardware behaviour.

    {!check} runs on every simulated access, so it allocates nothing
    and hashes nothing on a hit: it memoizes the last range an address
    fell in, the last key-0 gap between ranges, and the last thread's
    PKRU.  {!assign_range}, {!free_key} and {!reset_thread} drop all
    three, and a thread's first {!set_perm} drops the PKRU memo. *)

type t

type pkey = int
(** 0..15. *)

type perm = Read_write | Read_only | No_access

type access = Read | Write

type fault = { fault_addr : int; fault_access : access; fault_pkey : pkey }

exception Fault of fault
(** Raised by {!check} on a permission violation — the simulated
    SIGSEGV a stray user store into protected metadata produces. *)

val page_size : int
(** 4096. *)

val create : unit -> t

val alloc_key : t -> pkey
(** Allocates an unused key (1..15); raises [Failure] when exhausted. *)

val free_key : t -> pkey -> unit

val assign_range : t -> pkey -> base:int -> size:int -> unit
(** Tags the page-aligned range [base, base+size) with [pkey].
    Raises [Invalid_argument] if the range is not page-aligned or
    overlaps a differently-shaped existing range; re-assigning an
    identical range swaps its key (restart after crash). *)

val key_of_addr : t -> int -> pkey

val set_default_perm : t -> pkey -> perm -> unit
(** Permission threads hold for [pkey] unless they overrode it — the
    "metadata is read-only by default" state. *)

type capability
(** Unforgeable witness for a {!guard}ed key (see the lockdown section
    below). *)

val set_perm : ?cap:capability -> t -> thread:int -> pkey -> perm -> unit
(** The simulated [wrpkru]: sets the calling thread's rights for
    [pkey].  Once the unit is {!seal}ed, loosening the rights of a
    {!guard}ed key requires that key's capability (raises
    {!Wrpkru_denied} otherwise); tightening is always allowed. *)

(** {2 wrpkru lockdown (paper §8)}

    The paper notes that an attacker who can execute [wrpkru] defeats
    MPK protection, and points to binary inspection (Hodor, ERIM) as
    the countermeasure: only vetted call sites may loosen permissions.
    The simulation models the vetted-call-site property with an
    unforgeable capability: {!guard} returns the key's capability,
    {!seal} turns enforcement on, and thereafter only [set_perm
    ~cap] calls can grant access — a stray or attacker-issued wrpkru
    is refused. *)

exception Wrpkru_denied of pkey

val guard : t -> pkey -> capability
(** Registers [pkey] for lockdown and returns its capability (the
    "vetted call site" identity).  Idempotent per key. *)

val seal : t -> unit
(** Enables enforcement: from now on, loosening a guarded key's
    permission without its capability raises {!Wrpkru_denied}. *)

val sealed : t -> bool

val get_perm : t -> thread:int -> pkey -> perm

val reset_thread : t -> thread:int -> unit
(** Drops per-thread overrides (thread exit). *)

val check : t -> thread:int -> int -> access -> unit
(** Validates one access; raises {!Fault} on violation.  Memory under
    key 0 always passes, so a heap built unprotected (experiment A3,
    [Heap.create ~protected:false]) is never checked. *)

val faults_observed : t -> int
(** Total faults raised so far (for reporting). *)
