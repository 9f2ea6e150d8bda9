(** Cross-shard atomic transactions for poseidon-kv — the 2PC-style
    coordinator-record protocol (DESIGN §10).

    A transaction is a list of puts/deletes over distinct keys that
    may land on different shards.  Execution has the classic two-phase
    shape, all inside one persistent heap:

    + {b prepare} — new values are allocated and persisted under one
      open allocator transaction; each participant shard's slice is
      persisted into that shard's {e participant slot} (a
      checksummed multi-op write-ahead record in the superroot); the
      allocator transaction commits, transferring block ownership to
      the slots.
    + {b decide} — the coordinator {e decision record} (one u64 on its
      own cache line) is persisted with the transaction's id.  {e This
      single persist is the commit point.}
    + {b apply} — each slot is published into its B+-tree (idempotent
      inserts/deletes, safe frees of overwritten values) and cleared;
      finally the decision record is cleared.

    Crash anywhere, and {!Kv.attach} resolves: slots whose id matches
    the persisted decision record are redone (the transaction had
    committed), every other occupied slot is rolled back — presumed
    abort, which is sound because the client reply is only sent after
    the decision persists.

    Under replication the committed transaction rides the per-shard
    sequenced streams as a [Txn_prepare] + [Txn_decide] record pair
    per participant ({!Replica.op}); a promoting backup first replays
    the sealed log ({!Replica.Applier.seal_and_replay}) and then calls
    {!resolve_indoubt} to discard prepares whose decide died on the
    wire — none of those were ever acked. *)

type op = Replica.txn_op =
  | Tput of { key : int; vseed : int }
  | Tdel of { key : int }

type abort = Kv.txn_abort =
  | Txn_empty
  | Txn_too_many_ops
  | Txn_duplicate_key
  | Txn_absent_key of int
  | Txn_no_memory

type result = Kv.txn_result = {
  txn_id : int;
  committed : bool;
  abort : abort option;
  fin : int;
  participants : (int * op list) list;
}

val max_ops : int
(** Per-shard operation cap ({!Kv.max_txn_ops}). *)

val exec :
  ?on_commit:(result -> unit) ->
  ?trace:int ->
  ?span:int ->
  Kv.t ->
  op list ->
  result
(** {!Kv.txn}: the whole protocol under the participant + coordinator
    locks.  [on_commit] fires inside the critical section, after
    apply — where the replicated server ships its records.
    [trace]/[span] attach prepare/decide detail spans ({!Obs.Span}). *)

val prepare : Kv.t -> op list -> (int, abort) Stdlib.result
(** {!Kv.txn_prepare} — staged phase 1 (tests/instrumentation). *)

val decide : Kv.t -> txn:int -> unit
(** {!Kv.txn_decide} — persist the commit point. *)

val apply : Kv.t -> txn:int -> unit
(** {!Kv.txn_apply} — publish and clear the prepared slots. *)

val resolve_indoubt : Kv.t -> int
(** {!Kv.txn_resolve_indoubt} — presumed-abort every occupied slot
    (promotion path); returns the count resolved. *)

val abort_to_string : abort -> string

val apply_replicated : Kv.t -> shard:int -> Replica.op -> unit
(** Backup-side dispatch for a shipped record: single-op records apply
    through {!Kv.put}/{!Kv.delete}, [Txn_prepare] persists a
    participant slot ({!Kv.txn_backup_prepare} — durable before the
    applier's ack), [Txn_decide] discards it or — once every
    participant's decide has arrived — publishes the whole transaction
    at once ({!Kv.txn_backup_decide}). *)

val apply_replicated_group : Kv.t -> shard:int -> Replica.op list -> unit
(** Batched backup-side dispatch: apply a drained burst of in-order
    single-op records as one {!Kv.group_apply} chunk chain — one
    commit-slot chunk per up to {!max_ops} records instead of one per
    record.
    Raises [Invalid_argument] on a transaction record: the applier
    must handle those per record (they are group barriers). *)
