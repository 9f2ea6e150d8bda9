(** The simulated evaluation machine.

    Binds the discrete-event scheduler, the simulated NVMM/DRAM device,
    the simulated MPK unit, a per-CPU cache model and the cost model
    into the object allocators and workloads run against.  Every data
    access an allocator performs goes through this module, which

    + checks MPK permissions for the calling simulated thread,
    + charges simulated time (cache hit, DRAM/NVMM miss, NUMA
      distance, line bouncing between CPUs),
    + performs the access on the device.

    All access functions may also be called from outside the simulation
    (setup and unit tests); they then skip cost accounting and act as
    the reserved "main" thread for MPK purposes. *)

module Config = Config
(** Cost model (re-exported: [Machine] is this library's entry
    point). *)

type t

type addr = int

val create : ?cfg:Config.t -> ?engine:Simcore.Sched.t -> unit -> t
(** [engine] lets several machines share one discrete-event engine —
    the multi-machine (cluster) setup, where threads of every machine
    interleave on one simulated timeline.  Default: a private engine,
    the single-machine case.  Each machine keeps its own device, MPK
    unit, caches and cost accounting either way. *)

val cfg : t -> Config.t
val engine : t -> Simcore.Sched.t
val dev : t -> Nvmm.Memdev.t
val mpk : t -> Mpk.t

val main_thread : int
(** MPK identity used by code running outside the simulation. *)

val current_thread : unit -> int
(** Simulated thread id, or {!main_thread} outside the simulation. *)

val current_cpu : unit -> int

(** {2 Address space} *)

val add_region :
  t -> base:addr -> size:int -> kind:Nvmm.Memdev.kind -> numa:int -> unit

(** {2 Charged, protection-checked memory access} *)

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

val persist : t -> addr -> int -> unit
(** clwb every covered line + sfence; the persistent barrier. *)

val clwb : t -> addr -> unit
(** Stage one line for write-back (no fence). *)

val sfence : t -> unit

val punch : t -> addr -> int -> unit
(** Hole-punch a metadata range back to the "filesystem"
    (paper §5.6); charged as one syscall. *)

val has_region : t -> addr -> bool

(** {2 Cost profile}

    Machine-wide accounting of where simulated time went, by charge
    category — cache hits, misses, stores, write-backs, fences,
    bandwidth-queue waits, pure compute and MPK toggles.  Sums over
    all simulated threads (so under parallelism the total exceeds the
    makespan). *)

type profile = {
  mutable p_read_hit : int;
  mutable p_read_miss : int;
  mutable p_write : int;
  mutable p_flush : int;
  mutable p_fence : int;
  mutable p_bandwidth_wait : int;
  mutable p_compute : int;
  mutable p_wrpkru : int;
}

val profile : t -> profile
val reset_profile : t -> unit

val sim_fences : t -> int
(** Fences charged inside the simulation ({!sfence} calls plus one per
    {!persist}); an accounting path independent of the profile's
    [p_fence] nanosecond total, used to cross-check instrumentation. *)

val compute : t -> int -> unit
(** [compute t ns] charges pure computation time. *)

val critical : t -> (unit -> 'a) -> 'a
(** Runs the function without forced yields so that other simulated
    threads cannot observe its intermediate stores — for update
    sequences that are reader-safe on real hardware by construction.
    The function must not acquire locks. *)

(** {2 MPK} *)

val wrpkru : ?cap:Mpk.capability -> t -> Mpk.pkey -> Mpk.perm -> unit
(** Sets the calling thread's permission for a key, charging the
    toggle cost.  [cap] is required to loosen a guarded key once the
    MPK unit is sealed (paper §8 lockdown; see {!Mpk.guard}). *)

(** {2 Locks} *)

module Lock : sig
  type lock

  type stats = { acquisitions : int; contended : int; wait_ns : int }

  val create : t -> ?name:string -> unit -> lock
  (** Locks register themselves with the owning machine; see
      {!Machine.lock_stats}. *)

  val acquire : lock -> unit
  val release : lock -> unit
  val with_lock : lock -> (unit -> 'a) -> 'a

  val name : lock -> string

  val stats : lock -> stats
end

val lock_stats : t -> (string * Lock.stats) list
(** Name and contention statistics of every lock created on this
    machine, in creation order. *)

(** {2 Thread management} *)

val spawn : t -> cpu:int -> (unit -> unit) -> Simcore.Sched.thread_id
val run : t -> unit

val parallel : t -> threads:int -> (int -> unit) -> float
(** [parallel t ~threads body] spawns [threads] simulated threads
    (thread [i] pinned to CPU [i mod num_cpus], running [body i]),
    drives the simulation to completion and returns the elapsed
    simulated time in {e seconds} (makespan of this batch). *)
