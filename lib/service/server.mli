(** Traffic orchestration for poseidon-kv: simulated clients drive the
    sharded store through a {!Net} network, open-loop, with optional
    crash injection mid-traffic and a client-side ledger that verifies
    the store after recovery.

    Topology: shard [i]'s handler thread runs on CPU [i] and owns
    network port [i] (bounded queue — the admission-control point);
    each client thread owns a reply port and generates arrivals from a
    Poisson process with zipfian key popularity.  A send refused by a
    full shard queue is an [Overloaded] shed: it is counted and the
    request abandoned, so offered load and goodput diverge at
    saturation instead of queues growing without bound.

    A put's or delete's reply leaves at its chunk's commit point, from
    {!Kv.group_commit}'s [on_chunk]: the tree apply, the old-value
    free and the slot clear run after it, still under the shard lock
    (the per-shard gauge [apply_after_reply_ns] sums that handler
    time).  A handler whose inbox is empty and which has no parked
    reply tops up its CPU's magazine bins ({!Tcache.top_up}; gauge
    [tcache_idle_refills]).

    Crash model: at [crash_at × duration] the server CPUs stop taking
    requests and clients stop sending (request-granularity cut); the
    device then loses its unfenced state ([`Strict]), the heap and
    store re-attach inside the simulation (the charged makespan is the
    RTO), and the recovered store is checked against the ledger of
    acked mutations.  Requests in flight at the cut are ambiguous
    (either outcome is legal) and are reported, not checked.  The
    sub-request crash space is covered exhaustively by the [kv-put] /
    [kv-delete] / [kv-txn] crashcheck scenarios. *)

type config = {
  shards : int;
  clients : int;
  rate : float; (** total offered arrivals per simulated second *)
  duration : float; (** simulated seconds of traffic *)
  value_size : int;
  keyspace : int;
  zipf_theta : float;
  read_pct : int; (** % of arrivals that are gets *)
  delete_pct : int;
  scan_pct : int;
  txn_pct : int;
      (** % of arrivals that are cross-shard transactions ({!Kv.txn});
          the remainder after read/delete/scan/txn is puts *)
  txn_ops : int; (** operations per generated transaction, 1..{!Kv.max_txn_ops} *)
  queue_capacity : int; (** per-shard request queue bound *)
  preload : int; (** keys put (and drained) before traffic starts *)
  crash_at : float option; (** fraction of [duration], e.g. 0.5 *)
  seed : int;
  scope : string; (** obs metrics scope for this run *)
  batch_window : int;
      (** group-commit window, ≥ 1.  Every put and delete runs as a
          {!Kv.group_commit} group: up to this many consecutive
          already-queued single-key mutations, one covering persist
          chain per chunk, one replication doorbell frame per chunk,
          and in sync mode one covering ack for the whole group, which
          the members' parked replies wait for together.  At 1 (the
          default) a group holds one mutation, whose sync reply waits
          for its own ack.  Greedy over the inbox — never waits for a
          batch to fill. *)
  mvcc_window : int;
      (** MVCC version-chain window ({!Kv.create}'s [mvcc_window]),
          ≥ 0.  At 0 (the default) the store keeps no version chains
          and gets and scans queue for the shard lock like mutations
          (a {!Obs.Span.Lock_wait} then a {!Obs.Span.Store} span).
          Above 0 every get/scan is a lock-free snapshot read under an
          {!Obs.Span.Snapshot} stage span, and a scan becomes a
          multi-shard merged scan consistent at one timestamp. *)
  tcache_mag : int;
      (** magazine size of the DRAM thread cache ({!Tcache.wrap})
          layered over the allocator, ≥ 0.  At 0 (the default) the
          store allocates and frees through the allocator directly and
          no [tcache_*] gauge is published.  Above 0 allocations pop
          volatile per-CPU bins (refilled [tcache_mag] blocks per
          carve) and frees stash and flush in bulk; allocator time is
          attributed under the {!Obs.Span.Alloc} detail stage and
          surfaced as [tcache_*] gauges.  {!run_replicated} wraps both
          members and flushes the backup's cache at promotion. *)
  rcache_entries : int;
      (** per-shard slot count of the DRAM read cache
          ({!Kv.create}'s [rcache_entries]), ≥ 0.  At 0 (the default)
          no cache hook is armed: every read walks the persistent tree
          and no [rcache_*] gauge is published.  Above 0 gets (and
          snapshot gets, when their timestamp allows) answer from DRAM
          on a hit; probe time is attributed under the
          {!Obs.Span.Rcache} detail stage and the run surfaces
          [rcache_*] gauges.  {!run_replicated} arms both members —
          the backup's cache is invalidated by the replicated applies
          and wiped at promotion. *)
}

val default_config : config

type percentiles = {
  p50 : int;
  p99 : int;
  p999 : int;
  mean : float;
  max : int;
  samples : int;
}

type ledger_report = {
  checked : int; (** keys verified against the recovered store *)
  ambiguous : int; (** keys with a mutation in flight at the crash *)
  mismatches : int; (** acked state the store failed to reproduce *)
}

type result = {
  offered : int; (** arrivals generated *)
  admitted : int; (** accepted into a shard queue *)
  shed : int; (** refused at admission ([Overloaded]) *)
  completed : int; (** replies received by clients *)
  acked_mutations : int;
  sim_ns : int; (** simulated time traffic actually ran *)
  throughput : float; (** server-handled requests per simulated second *)
  goodput : float;
  (** client-acked completions per simulated second — under overload
      this diverges from the offered rate ([offered / duration]): shed
      requests never contribute to it *)
  latency : percentiles; (** client-observed request latency, ns *)
  service : percentiles;
      (** server-side handler time, ns: decode to reply produced.  A
          sync reply's wait for its covering ack is not in it. *)
  crashed : bool;
  rto_ns : int; (** simulated re-attach + replay time (0 if no crash) *)
  recovery : Kv.recovery option;
  ledger : ledger_report;
  in_flight_at_crash : int;
  queue_max_depth : int; (** high-water mark across shard queues *)
  txns_committed : int;
  txns_aborted : int;
      (** server-observed aborts (strict-delete misses, duplicate keys,
          allocation failures) — an abort leaves no durable trace *)
  txn_latency : percentiles;
      (** client-observed latency of committed transactions only, ns —
          compare against [latency] for the 2PC overhead *)
  read_latency : percentiles;
      (** client-observed latency of gets only — the series the MVCC
          read path is supposed to flatten *)
  write_latency : percentiles; (** puts, deletes and transactions *)
  scan_latency : percentiles; (** scans only *)
  ops_read : int; (** gets generated (shed included) *)
  ops_write : int; (** puts + deletes + transactions generated *)
  ops_scan : int; (** scans generated *)
}

val run :
  make:(unit -> Machine.t * Alloc_intf.instance) ->
  reattach:(Machine.t -> Alloc_intf.instance) ->
  config ->
  result
(** Builds the heap via [make], preloads, runs traffic, optionally
    crashes and re-attaches via [reattach], verifies the ledger and
    returns the counts in [result].  Under [config.scope] in the
    {!Obs.Metrics} registry it publishes only what [result] lacks:
    the [handled], [reply_drops], [topup_waiters], [vindex_*],
    [mvcc_truncated_reads], [tcache_*] and [rcache_*] gauges, the
    per-shard [mvcc_chains], [mvcc_chain_versions],
    [apply_after_reply_ns] and [idle_topup_ns] gauges under
    [<scope>/shard<i>], and the latency, service, txn, read, write
    and scan log histograms (p50/p99/p999).  Raises
    [Invalid_argument] on nonsensical configs. *)

(** {2 Replicated serving}

    The same handler loop as {!run} on two machines sharing one
    engine, with a shipping durability sink in place of the local one:
    the primary serves clients exactly as {!run} does, and every
    committed mutation is also shipped (per-shard sequence numbers,
    go-back-N) inside its shard lock, at its chunk's commit point and
    before the primary's own tree apply, over an inter-machine link to a
    backup machine that applies it into its own persistent store — one
    doorbell frame per commit-group chunk.  In [Sync] mode no client
    sees state that losing the primary could undo: a reply produced
    while a shard it saw (its own shard; every shard for a merged
    snapshot scan; every participant for a transaction) has
    shipped-but-unacked records {e parks} on the primary until the
    backup's cumulative ack covers that shard's high-water mark, and
    the handler sends it from its own CPU.  The handler meanwhile
    keeps serving; up to two commit groups per shard await their acks,
    and a third waits for the oldest one's.  A committed transaction
    ships its records and releases its participant locks at once; its
    reply parks on every participant, like an aborted one's (the
    backup holds a shard whose transaction has not yet published, see
    {!Replica.Applier.create}).  An acked write then survives the loss
    of the whole primary, not just a cache-line crash.  [Async] mode
    replies at the local commit point and bounds the backup's lag by the
    shipping window.  Only
    the set-up (a backup machine, a two-port {!Net} link, pump and
    applier threads) and the crash epilogue (promote instead of
    re-attach) differ from {!run}.

    Crash model: at the cut the primary machine is lost outright
    ([`Strict] device wipe); instead of re-attaching it, the backup
    {e promotes} — seals the shipped log, replays the in-order tail
    the wire had delivered, and becomes the serving store.  The
    promote makespan is the failover RTO ([base.rto_ns]), directly
    comparable with {!run}'s replay-on-restart RTO under the same
    traffic and seed; the ledger of acked mutations is verified
    against the {e backup}.  The serving gauges ([mvcc_*], [rcache_*],
    [tcache_*]) always describe the primary, the store that served
    the traffic, as in {!run}. *)

type repl_config = {
  repl_mode : Replica.mode;
  wire_ns : int; (** one-way inter-machine latency *)
  repl_window : int; (** max unacked records per shard (async lag bound) *)
  link_drop_pct : int; (** seeded wire loss, [0, 100) *)
  link_dup_pct : int; (** seeded duplicate delivery, [0, 100] *)
}

val default_repl_config : repl_config
(** Sync, 20 µs wire, window 64, clean link.  The go-back-N timeout
    and the ack-poll quantum are {!Replica.retransmit_ns} (120 µs) and
    {!Replica.poll_ns} (400 ns). *)

type repl_result = {
  base : result;
  (** [rto_ns] is the {e promote} RTO on crash runs; [ledger] checks
      the serving store (the backup after failover); [recovery] is
      [None] — nothing is replayed from a micro-log, the tail comes
      off the wire *)
  shipped : int; (** mutation records put on the wire (first sends) *)
  acked_records : int; (** records covered by cumulative backup acks *)
  retransmits : int; (** go-back-N resends (loss recovery) *)
  max_lag : int; (** high-water unacked records on any shard *)
  link_dropped : int; (** fault-injected wire losses, both directions *)
  link_duplicated : int;
  link_flushes : int;
      (** doorbell frames sent, both directions — with a batch window
          this is the wire-trip count the batching amortized into *)
  backup_applied : int; (** records applied by the backup, tail included *)
  tail_replayed : int; (** records applied during promote (0 clean) *)
  indoubt_aborted : int;
      (** transaction slots presumed-aborted at promote: a [Txn_prepare]
          arrived but its [Txn_decide] died with the primary.  Safe
          because a sync reply waits for {e every} participant's ack —
          an unresolved transaction was never acked to a client. *)
  backup_ledger : ledger_report option;
  (** clean runs only: the backup checked against the same ledger —
      proof of convergence without a failover *)
  sync : bool;
}

val run_replicated :
  make:(Machine.t -> Alloc_intf.instance) ->
  config ->
  repl_config ->
  repl_result
(** [make] builds one heap+allocator on a given machine; it is called
    twice (primary, backup), both machines of
    {!Machine.Config.default} on one engine, and the replication pump
    runs on the primary's last CPU.  Metrics go under [config.scope]:
    the {!run} set plus the [repl_lag_ns] histogram (ship→applied
    latency seen at the backup); the replication counts are in the
    [repl_result]. *)

(** {2 JSON}

    The shapes [serve --json-out] writes and every serving run of a
    BENCH snapshot ({!Obs.Bench}) carries. *)

val config_json : config -> Obs.Json.v
(** Every field but [scope]. *)

val result_json : ?repl:repl_result -> result -> Obs.Json.v
(** Every field of [result] (its six latency series as
    [{p50, p99, p999, mean, max, samples}] blocks, [recovery] and
    [replication] as [null] when absent); [repl] adds the replication
    counters and the backup ledger of a replicated run, whose [base]
    is [result]. *)
