(** Primary/backup log shipping over a two-port {!Net} link.

    The primary frames each shard's mutations — the same puts and
    deletes the local store has already committed on that shard's
    slot — with a dense per-shard sequence number and
    ships them to a backup machine, which applies them {e in order}
    into its own persistent store through a caller-supplied callback
    (on poseidon-kv: the identical [Alloc_intf] transaction + B+-tree
    path) and returns cumulative acknowledgements.

    Loss handling is go-back-N: the shipper keeps every unacknowledged
    record buffered and retransmits the whole tail when the oldest one
    times out (its timeout runs from its own last send or resend, or
    from the last ack that covered new records, so new records on a
    busy shard do not postpone it); the applier accepts only the exact next sequence number
    per shard, re-acks duplicates and discards out-of-order arrivals.
    Loss can still deliver one shard's stream ahead of another's, so a
    shard whose cross-shard transaction waits for another stream's
    decide is {e held}: the applier parks its later in-sequence records
    — in order, unapplied, unacked — until that transaction publishes
    (see [Txn_decide] and {!Applier.create}'s [held]).
    The unacked window is bounded, which in [Async] mode {e is} the
    replication-lag bound; in [Sync] mode the caller additionally
    holds each client reply until the cumulative ack covers the
    records that reply depends on ({!Shipper.high_water},
    {!Shipper.poll_acks}, {!Shipper.acked}).

    Cross-shard transactions ride the same per-shard streams: a
    [Txn_prepare] record carries one participant shard's slice of the
    transaction and a [Txn_decide] record carries the primary's
    commit for that shard.  Because both are sequenced like any other
    record, the backup applies them in the exact per-shard order the
    primary produced them, and a promotion that seals the log can tell
    a decided transaction (prepare {e and} decide delivered) from an
    in-doubt one (prepare delivered, decide lost with the primary) —
    see {!Service.Kv.txn_resolve_indoubt}.

    This module knows nothing about the store: records carry abstract
    [(key, vseed)] payloads and application is a closure, so the
    service layer composes it with {!Service.Kv} without a dependency
    cycle. *)

type txn_op =
  | Tput of { key : int; vseed : int }
  | Tdel of { key : int }
      (** One operation of a cross-shard transaction, as carried by a
          [Txn_prepare] record (only the participant shard's own
          slice). *)

type op =
  | Put of { key : int; vseed : int }
  | Del of { key : int }
  | Txn_prepare of { txn : int; ops : txn_op list }
      (** This shard's slice of transaction [txn]: persisted into the
          shard's slot on the backup before the ack. *)
  | Txn_decide of { txn : int; nparts : int }
      (** The primary's commit of [txn] on this shard's stream (only
          committed transactions ship, so a decide always commits).
          [nparts] is the transaction's total participant count: the
          backup defers publication until it has seen the decide of
          {e every} participant, then commits the whole transaction on
          the decided word of the shard whose decide came last and
          publishes it at once — publishing slice-by-slice would let a
          crash or promotion between two slices surface half a
          transaction ({!Service.Kv.txn_backup_decide}). *)

type mode = Sync | Async

type msg
(** Wire messages (records toward port 1, acks toward port 0);
    abstract — create the link as a two-port [msg Net.t] (usually with
    [~wire_ns]) and hand it to both sides. *)

val primary_ep : int
(** Link port the primary reads (acks travel toward it): 0. *)

val backup_ep : int
(** Link port the backup reads (records travel toward it): 1. *)

val retransmit_ns : int
(** Go-back-N timeout, 120_000 ns (≳ 2 RTTs on the default 20 µs
    wire): a shard's unacked tail is resent once its oldest record has
    waited this long (see {!Shipper.pump}). *)

val poll_ns : int
(** Simulated time one empty poll iteration sleeps, 400 ns: the
    shipper on a full window, and either pump between polls.  A
    caller that waits for acks (a sync reply parked on the primary)
    polls at the same quantum. *)

module Shipper : sig
  type t

  val create : window:int -> shards:int -> link:msg Net.t -> t
  (** [window] bounds each shard's unacked records (in [Async] mode,
      the replication-lag bound).  The primary is machine 0, the
      process id of its ack-wire spans when tracing is on. *)

  val ship : ?trace:int -> ?span:int -> t -> shard:int -> op -> int
  (** Called by the shard's handler thread at the local commit point.
      Assigns the next sequence number, keeps the record for go-back-N
      and stages it in the link's doorbell buffer
      ({!Net.buffer}): no wire charge, nothing visible to the
      backup until {!flush}.  Blocks (polling) while the shard's
      unacked window is full.  Returns the assigned sequence number.
      [trace]/[span] attach the request's {!Obs.Span} context to the
      record (and to any retransmission of it), so the backup's
      wire/apply spans and the ack's return hop join the request's
      span tree.  Callers must not ack a client for a record that no
      {!flush} has covered. *)

  val flush : t -> int
  (** Ring the doorbell: put every record staged by {!ship} (all
      shards) on the wire as one framed batch — one sender CPU charge,
      one fault roll and one wire latency for the whole group, so a
      frame of one pays what a single {!Net.try_send} does.  A
      frame lost in flight is recovered record-by-record by the
      retransmit timer.  Returns the number of records in the frame
      ([0] = nothing staged, nothing charged). *)

  val poll_acks : t -> unit
  (** Absorb every ack the link has delivered so far, without waiting
      and without a CPU charge; {!acked} then reflects them. *)

  val pump : t -> until:(unit -> bool) -> deadline:int -> unit
  (** Replication-thread body: drain acks, retransmit timed-out tails
      (a shard's tail is due once its oldest unacked record has gone
      {!retransmit_ns} without being sent or resent, and without an ack
      that covered new records).  Returns once [until ()] holds and every shipped record is acked,
      or at [deadline] (abandoning any still-unacked tail). *)

  val acked : t -> shard:int -> int
  (** Highest cumulatively acked sequence number for [shard]; -1
      initially. *)

  val high_water : t -> shard:int -> int
  (** Last sequence number shipped on [shard] (staged records
      included); -1 initially.  Everything applied on [shard] before
      its records were shipped is covered once {!acked} reaches it. *)

  val lag : t -> shard:int -> int
  (** Records currently shipped but unacked. *)

  val shipped : t -> int

  val retransmits : t -> int

  val max_lag : t -> int
  (** Largest unacked count observed on any shard — the empirical
      replication lag, ≤ [window] by construction. *)
end

module Applier : sig
  type t

  val create :
    ?on_apply:(lat_ns:int -> unit) ->
    ?ack_batch:bool ->
    ?apply_group:(shard:int -> op list -> unit) ->
    shards:int ->
    apply:(shard:int -> op -> unit) ->
    held:(shard:int -> bool) ->
    msg Net.t ->
    t
  (** The applier on the backup's side of the link.  [apply] must make the record durable before returning — the ack
      sent on its return is what [Sync] mode's guarantee rests on.
      [held] says whether [shard] is held: the last record applied there
      is a committed [Txn_decide] whose transaction has not published
      yet, because another participant's decide is still on its way.
      While a shard is held, its in-sequence records park (in order,
      not applied), and its cumulative ack stops before the holding
      decide.  The query is consulted after every record; once a
      decide publishes, every shard it released applies its parked
      records in order — until it is held again — and is acked.
      Parked records are never acked, so losing them (a backup crash,
      or a promotion, which presumed-aborts the holding transaction)
      breaks no promise.  On poseidon-kv the query is {!Kv.backup_held}.
      [on_apply] observes each in-order application with its wire +
      apply latency (ship to applied, simulated ns) — the replication
      lag as seen at the backup; only called inside the simulation.
      The backup is machine 1, the process id of the wire/apply spans
      emitted when a record carries a trace context.  [ack_batch]
      (default [false]) switches {!pump} to
      cumulative batched acks: instead of one ack per record, it sends
      one cumulative ack per touched shard per drained burst, all in a
      single doorbell frame — acks are still only produced after every
      covered apply returned, so the durability receipt is unchanged,
      merely coalesced.  [apply_group] (only consulted under
      [ack_batch]) batches the {e applies} too: in-sequence [Put]/[Del]
      records of a shard that is not held are stashed during a drain
      burst and go down as one call per shard before the burst's ack —
      must make the whole burst durable before returning.  Transaction
      records and out-of-sequence arrivals still go through [apply] per
      record, after the shard's stashed run is flushed (they are
      ordering barriers).

      Both callbacks must also invalidate any {e volatile} read-side
      state the backup keeps over its store (MVCC version chains, the
      {!Rcache} read cache) for every key they mutate, {e before}
      returning: a promotion can happen right after any ack, and the
      promoted store serves reads from exactly that state.  Driving
      the callbacks through {!Kv.apply_replicated} and
      {!Kv.apply_replicated_group} (as {!Server.run_replicated} does)
      satisfies this for free — those paths publish versions and kill
      cache entries in the same pure step as the mutation. *)

  val pump : t -> until:(unit -> bool) -> unit
  (** Applier-thread body: receive records, apply in-sequence ones,
      ack cumulatively.  Returns when [until ()] holds (primary
      finished or declared dead) — without draining: failover decides
      separately what to do with the tail, see {!seal_and_replay}. *)

  val seal_and_replay : t -> sealed_at:int -> int
  (** Failover: consume every record the wire had {e delivered} by
      [sealed_at] (the seal point — typically promote start), apply
      the in-sequence tail, and return how many tail records were
      replayed.  Later arrivals are beyond the sealed log and are
      discarded: none of them was ever acknowledged, since an ack
      implies the backup already applied the record, so no durability
      promise attaches to them.  No acks are sent — there is no one
      left to hear them. *)

  val applied : t -> int
  (** Total records applied (tail replay included). *)

  val expected : t -> shard:int -> int
  (** Next sequence number the applier will accept for [shard]. *)
end
