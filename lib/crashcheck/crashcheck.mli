(** Deterministic persistency model checker (paper §5.8 validation).

    Random crash sampling ([bin stress], [test_crash.ml]) covers a
    vanishing fraction of the crash-instant space; ordering bugs (a
    forgotten [clwb], a fence on the wrong side of a commit point)
    hide in the instants it never draws.  This checker instead
    {e enumerates} the space exactly:

    - every mutation between two [sfence]s is volatile, so distinct
      crash instants collapse onto persistence points — the fence
      boundaries.  Driving the operation under
      {!Nvmm.Memdev.set_persistence_hook} and cutting execution at
      fence [k] covers every crash instant in [(fence k, fence k+1)];
    - at each point the checker crashes the device in
      {!mode}[ Dirty_lost_all] (no unfenced line survives — the
      deterministic worst case) and in [Dirty_subset] modes (a seeded
      adversarial subset of the unflushed dirty lines persists first,
      modelling cache evictions), then re-attaches, runs recovery and
      validates every oracle against the scenario's ledger.

    Every verdict is replayable: a counterexample names the scenario,
    the crash-point index and the dirty-subset seed, which
    {!check_point} (or [bin/main.exe crashcheck --point N]) replays
    deterministically — with [--trace-out] for an event-trace dump of
    the failing execution. *)

type mode =
  | Dirty_lost_all
      (** every unfenced line is lost — {!Nvmm.Memdev.crash} [`Strict] *)
  | Dirty_subset of int
      (** a seeded adversarial subset of unflushed dirty lines
          persists — [`Adversarial] with a PRNG built from the seed *)

val mode_to_string : mode -> string

(** {2 Scenarios}

    A scenario owns a fresh machine + heap per exploration run:
    [setup] builds and pre-populates it (ending fully drained, so the
    baseline is durable), [op] is the operation sequence whose crash
    space is explored.  [op] updates the {!ledger} as each API call
    {e returns}, giving the oracles a durable lower bound; anything
    the single in-flight call may add or remove is bounded by
    [slack]. *)

type ledger = {
  mutable durable : int;
      (** bytes the completed prefix of [op] has durably live *)
  mutable slack : int;
      (** max bytes the one in-flight call can add or remove *)
}

type env = {
  mach : Machine.t;
  base : int;
  mutable heap : Poseidon.Heap.t;
      (** replaced by the recovered heap after crash + attach *)
  ledger : ledger;
  mutable aux_devs : Nvmm.Memdev.t list;
      (** devices of {e other} machines a multi-machine scenario
          involves (e.g. the replication primary).  Their fences count
          into the same persistence-point space, and {!check_point}
          crashes them at the same instant as [mach]'s device — a
          correlated cluster-wide power loss.  Empty for the
          single-machine scenarios. *)
}

type oracle = {
  oname : string;
  check : env -> (unit, string) result;
      (** runs on the recovered heap; [Error] describes the violation *)
}

type scenario = {
  sname : string;
  setup : unit -> env;
  op : env -> unit;
  extra_oracles : oracle list;
      (** scenario-specific oracles, run after the standard five: heap
          invariants, a clean fsck, quiescent logs, exact accounting
          and durability within the ledger *)
}

(** {2 Checking} *)

type counterexample = {
  cx_scenario : string;
  cx_point : int;  (** crash after fence [cx_point] of [op] *)
  cx_mode : mode;
  cx_oracle : string;
  cx_detail : string;
}

type report = {
  rp_scenario : string;
  fences_total : int;  (** fences in one uninterrupted run of [op] *)
  points_explored : int;
  subsets_tried : int;
  recoveries_verified : int;  (** crash+recover runs with every oracle green *)
  counterexamples : counterexample list;
}

val measure : scenario -> int
(** Dry run: the number of fences [op] executes uninterrupted. *)

val subset_seed : seed:int -> point:int -> int -> int
(** The PRNG seed the checker derives for adversarial subset [s] at
    [point] under base [seed] — exposed so counterexamples replay. *)

val check_point : scenario -> point:int -> mode:mode -> counterexample option
(** Replays a single crash: run [op] to persistence point [point]
    (or to completion if [point] exceeds the fence count), crash in
    [mode], recover, run the oracles.  [None] = all green. *)

val run :
  ?max_points:int ->
  ?subsets_per_point:int ->
  ?seed:int ->
  scenario ->
  report
(** Full exploration.  Enumerates points [1 .. measure + 1] (the last
    is a crash after [op] completed); each point is checked in
    [Dirty_lost_all] plus [subsets_per_point] seeded [Dirty_subset]
    modes (default 2).  [max_points > 0] budget-caps the sweep to an
    evenly-strided sample (default [0]: exhaustive).  Deterministic in
    [seed]. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_report : Format.formatter -> report -> unit

(** {2 Built-in scenarios}

    Operation paths over a deliberately small heap (one CPU, 64 KiB of
    sub-heap data) so exhaustive enumeration stays cheap, plus
    deliberately broken protocols for mutation sanity checks.  Only
    the scenarios tests build directly are exported here; {!scenarios}
    reaches every one by name. *)

val scn_alloc : unit -> scenario
(** Mixed-size singleton allocations (split paths included). *)

val scn_free : unit -> scenario
(** Frees of a pre-populated heap (merge/defrag paths included). *)

val scn_tx_commit : unit -> scenario
(** Two multi-allocation transactions committed via [is_end]. *)

val scn_tx_abort : unit -> scenario
(** A multi-allocation transaction explicitly aborted. *)

val scn_extend : unit -> scenario
(** Tiny allocations against a tiny hash level 0, forcing sub-heap
    hash-table extension (§5.2 growth path). *)

val scn_carve_tombstones : unit -> scenario
(** One magazine refill of eight 64 B blocks off a 512 B free block
    that set-up merged from eight freed ones, so seven of the run's
    fresh records land in the tombstone slots the merge left, and
    [Record.init] logs every field of each inside the run's one undo
    barrier.  Same ledger rule and [ledger-reclaimed] oracle as the
    [carve] scenario. *)

val scn_broken_missing_flush : unit -> scenario
(** Mutation sanity check: a two-line "write data, persist commit
    flag" protocol that {e forgets the clwb on the data line}.  Its
    extra oracle demands data be intact whenever the flag persisted;
    the checker must report a counterexample at the flag's fence. *)

(** {2 KV scenarios: data for one driver}

    Every KV scenario is a {!kv_scenario} value handed to
    {!kv_sweep}, the one driver that sets up a {!Service.Kv} store and
    runs a plan through the sweep.  The value names the store's shape,
    the preload, the plan, the ledger slack, the per-op executor,
    optional read audits and an optional backup; {!kv_sweep} owns
    set-up, the op loop, the completed-prefix model and the oracles.
    Every seeded KV bug below is such a value too, written against its
    [wrap] or [exec] seam or, for [kv-batched-broken], its backup's
    [ack_early]: the production libraries carry no fault hooks.

    Every sweep with a prefix oracle is judged by one acked-prefix
    rule: after recovery the store must equal the plan-prefix state,
    on every key the preload or the plan names, for {e some} prefix
    length in [[acked, acked + window]].  A local sweep has window 1
    (one op in flight); a replicated one has its commit-group window.
    So a crash loses at most the unacked window, never an acked op,
    and never part of an op: a transaction torn across shards matches
    no prefix.  The oracle also demands a sane allocator after the
    service's replay and that no tree names a freed block (the
    no-dangling check). *)

type kv_op =
  | Kput of int * int  (** [Kput (key, vseed)] *)
  | Kdel of int
  | Ktxn of Service.Kv.txn_op list  (** one cross-shard transaction *)

type kv_run = {
  store : Service.Kv.t;
  universe : int list;  (** every key the preload or the plan names *)
  model : (int, int) Hashtbl.t;
      (** the completed prefix's state, key → vseed: before the op for
          [exec], after it for an audit *)
  flag : string -> unit;
      (** records a read violation at once (a crash cut later in the
          op cannot lose it); the sweep's reads oracle reports them *)
  ack : unit -> unit;
      (** acks the running op: from here on every crash point must
          recover it.  Only its first call counts; the driver acks
          every op that has not acked itself when [exec] returns *)
}
(** What a local sweep's per-op hooks see. *)

type kv_reads = {
  rname : string;  (** the reads oracle's name *)
  noun : string;  (** one violation, as the oracle counts them *)
  audit : kv_run -> int -> unit;  (** runs after each completed op [i] *)
}
(** Reads checked while the plan runs.  The oracle fails at every
    crash point past a flagged violation with
    ["N <noun>(s), first: ..."]. *)

type kv_backup = {
  batch : int;
      (** commit-group window: puts and deletes commit as
          {!Service.Kv.group_commit} groups of up to [batch]
          consecutive same-shard ops, each chunk shipped as one
          doorbell frame; a transaction is a group of its own and
          ships its prepare and decide records from [on_commit].  The
          applier acks per record at 1 and in batches above it, as
          {!Service.Server.run_replicated} sets it. *)
  repl_window : int;  (** {!Replica.Shipper.create}'s [window] *)
  ack_early : bool;
      (** seeded bug: count a group acked before it runs, i.e. ahead
          of its covering flush *)
}
(** A replicated sweep: the plan runs on a primary machine whose
    device rides in [aux_devs], and the sweep recovers and judges the
    backup.  [acked] advances a group at a time, once the backup's
    cumulative ack covers the group's records. *)

type kv_scenario = {
  kname : string;  (** the scenario's [sname] *)
  mvcc_window : int;  (** store shape: {!Service.Kv.create}'s *)
  rcache_entries : int;  (** store shape: {!Service.Kv.create}'s *)
  wrap : Alloc_intf.instance -> Alloc_intf.instance;
      (** the allocator every store is built on, from the heap's own
          instance: a {!Tcache} magazine cache, or an instance that
          carries a seeded allocator-level bug *)
  preload : (int * int) list;  (** (key, vseed) puts before the sweep *)
  plan : kv_op list;
  slack : int;  (** the ledger's slack *)
  exec : kv_run -> int -> kv_op -> unit;
      (** runs plan op [i] of a local sweep; {!kv_exec} by default.  A
          seeded bug in how the store is driven (a skipped or moved
          transaction step, a cache written behind the store's back)
          lives here *)
  reads : kv_reads option;
  prefix : string option;
      (** the acked-prefix oracle's name; [None] = no prefix oracle *)
  backup : kv_backup option;  (** [None] = a local sweep *)
  extra : oracle list;  (** run after the reads and prefix oracles *)
}

val kv_exec : kv_run -> int -> kv_op -> unit
(** The default executor.  A put or a delete is a
    {!Service.Kv.group_commit} group of one, acked from its [on_chunk]
    at the chunk's commit point, where the server replies, so the
    acked-prefix rule holds the op at every fence of the apply after
    it: the tree insert, shift or split, the old-value free and the
    slot clear.  A transaction ({!Service.Kv.txn}) and a delete of an
    absent key are acked when they return. *)

val kv_default : kv_scenario
(** No name, preload or plan; a plain local store, slack 4096,
    {!kv_exec}, no reads, the prefix oracle ["kv-store"], no backup, no
    extra oracles. *)

val kv_sweep : kv_scenario -> scenario
(** The one KV driver.  Set-up builds the store (with a backup, two:
    the backup's is [env], the machine the sweep recovers) and preloads
    it; the ledger's durable bytes are re-read after
    each completed op or group.  A local sweep runs each op through
    [exec], which may ack it part-way ([kv_run.ack]); when [exec]
    returns, the op is acked if it was not yet, the model advances and
    the audit runs.  A replicated sweep uses neither [exec] nor
    [reads].  The oracles are the reads oracle, then the prefix
    oracle, then [extra]. *)

val scn_kv_snapshot : unit -> scenario
(** The kv op mix on a store with an MVCC version window: after every
    completed operation the audit checks a freshly minted snapshot —
    [snapshot_get] over the key universe plus one multi-shard
    [snapshot_scan] — against the completed-prefix model, and any
    stale, torn or phantom read is a [snapshot-reads] counterexample.
    Version chains are volatile, so the re-attached store must pass the
    same prefix oracle as the no-MVCC sweeps. *)

val scn_mvcc_broken : unit -> scenario
(** Mutation sanity check for the MVCC layer: its executor runs each
    transaction as prepare → apply → snapshot → decide, so the versions
    are public before the decided word persists and the snapshot observes an
    undecided write.  The [snapshot-reads] oracle MUST flag it; there
    is no prefix oracle. *)

val scn_kv_rcache_put : unit -> scenario
(** The kv-snapshot op mix on a store with both an MVCC window and a
    DRAM read cache ([rcache_entries:4] per shard — smaller than the
    per-shard keyspace, so the audits force CLOCK evictions).  After
    every completed op the audit checks the completed-prefix model
    through the cached plain-[get] path {e and} through a fresh
    snapshot; a stale cached digest is a [cached-reads]
    counterexample.  The cache is volatile, so the re-attached store
    must pass the same prefix oracle as the uncached sweeps. *)

val scn_rcache_broken : unit -> scenario
(** Mutation sanity check for the read cache, written through
    {!Service.Kv.rcache}: the executor puts each op's cached digests
    back after the op and invalidates them only when the {e next} op
    starts, so between an op's reply and the following op the cache
    still serves the overwritten digest.  The [cached-reads] oracle
    MUST flag it. *)

val scn_kv_batched_put : ?window:int -> unit -> scenario
(** The [kv-replicated-put] sweep at commit-group window [window]
    (default 4), all keys on one shard so every group fills: one
    covering persist chain per chunk, one doorbell frame per chunk,
    cumulative batched acks.
    The prefix oracle ["kv-batched"] has the group's window, so a
    crash mid-batch may lose the unacked window and never an acked
    op. *)

val scn_kv_batched_broken : unit -> scenario
(** Mutation sanity check for the batching layer: the driver claims a
    group durable {e before} its covering flush is acked — exactly the
    "ack before fence" bug group commit must not introduce.  The
    checker MUST flag it. *)

(** {2 The scenario table} *)

val scenarios : (string * (unit -> scenario) * bool) list
(** Every built-in scenario as [(name, constructor, seeded_bug)]: the
    correct ones in sweep order, then the seeded bugs.  The one place
    scenario names live; the CLI's [--scenario] help is built from it. *)

val all_scenarios : unit -> scenario list
(** Every correct scenario of {!scenarios}, in table order (no seeded
    bug). *)

val scenario_by_name : string -> scenario option
(** The {!scenarios} entry of that name, seeded bugs included. *)
