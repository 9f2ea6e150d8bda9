(** Simulated point-to-point message channel over the discrete-event
    machine: the client network inside one machine and the link
    between a primary and its backup.

    A channel is a set of {e ports}, each pinned to a simulated CPU and
    backed by a bounded FIFO queue.  Sending charges the sender 300 ns
    and stamps the message with a delivery time; the message becomes
    visible to the receiver once simulated time reaches that stamp.
    Inside one machine the latency is the NUMA distance: 1500 ns
    within a node, times the config's [remote_numa_mult] across nodes.
    A link between machines has a fixed [wire_ns] instead.  Queues are
    bounded: {!try_send} refuses (returns [false]) when the destination
    queue is full — that refusal is the admission-control signal the
    service layer turns into an [Overloaded] reply.

    Each port has a single logical reader (one simulated thread);
    delivery within a port is FIFO.  Outside the simulation (setup /
    post-run draining) sends and receives still work, with zero
    latency and no CPU charging. *)

type 'a msg = {
  payload : 'a;
  sent_at : int; (** simulated ns the message left the sender *)
  delivered_at : int; (** simulated ns the message reached the port *)
  trace : int; (** trace id carried for distributed tracing; -1 = none *)
  span : int; (** sender's span id (the receiver's causal parent) *)
}

type 'a t

val create :
  ?wire_ns:int ->
  ?drop_pct:int ->
  ?dup_pct:int ->
  ?seed:int ->
  Machine.t ->
  ports:(int * int) array ->
  unit ->
  'a t
(** [create mach ~ports ()] builds a channel with [Array.length ports]
    ports; port [i] lives on CPU [fst ports.(i)] of [mach] with queue
    capacity [snd ports.(i)].

    [wire_ns] makes it a link between machines: every message takes
    [wire_ns] one way, whatever the port CPUs (which a link never
    consults), and is stamped when its send begins (the sender's
    charge overlaps the wire).  Without it, a message's [sent_at] is
    when the sender's charge ends.

    [drop_pct]/[dup_pct] inject seeded wire faults from a PRNG seeded
    with [seed]: a send or a flushed frame may be silently lost (the
    sender still sees success — loss on the wire is not observable at
    the sender) or delivered twice (the copy enqueued right behind the
    original).  [drop_pct] must stay below 100 — an always-dropping
    link cannot carry a protocol.  Both default to 0, in which case
    the PRNG is never consulted. *)

val try_send : ?trace:int -> ?span:int -> 'a t -> dst:int -> 'a -> bool
(** Enqueue for port [dst]; [false] if its queue is full (the message
    is refused — admission control; the refusal is counted).  With
    fault injection enabled the message may instead be silently lost
    or, when the queue has room, duplicated.  [trace]/[span] (default
    -1 = none) ride the envelope as the {!Obs.Span} context: the
    receiver's spans use [span] as their causal parent; a duplicate
    carries the same context. *)

val buffer : ?trace:int -> ?span:int -> 'a t -> dst:int -> 'a -> unit
(** Doorbell batching, stage 1: park a message toward [dst] with no
    latency or CPU charge.  Nothing is visible to the receiver until
    {!flush} rings the doorbell.  Buffered messages survive unsent if
    the sender crashes — batching callers must not ack anything
    covered only by a buffer. *)

val flush : 'a t -> dst:int -> int
(** Doorbell batching, stage 2: send everything staged toward [dst]
    as one frame — one sender CPU charge, one fault roll (a drop loses
    the whole frame, a duplicate re-delivers it whole) and one stamp
    for every message, each still delivered individually, in order.
    Returns the number of messages the frame carried into the
    destination queue (messages past the capacity count as
    rejections; a fault-dropped frame still returns its full size —
    the sender cannot observe wire loss).  [0] when nothing was
    staged: an empty flush charges nothing. *)

val buffered : 'a t -> dst:int -> int
(** Messages staged toward [dst] awaiting a {!flush}. *)

val recv : 'a t -> port:int -> 'a msg option
(** Dequeue the head of [port]'s queue if it has been delivered
    (i.e. its [delivered_at] is in the past).  Non-blocking. *)

val recv_wait : 'a t -> port:int -> until:int -> 'a msg option
(** Like {!recv} but sleeps (in simulated time) until a message is
    deliverable or the clock reaches [until], polling an empty queue
    every 2000 ns.  Must be called from a simulated thread. *)

val pending : 'a t -> port:int -> int
(** Messages currently queued for [port] (delivered or in flight). *)

type stats = {
  enqueued : int; (** accepted by {!try_send} or {!flush}, drops included *)
  rejected : int; (** refused: queue full *)
  delivered : int; (** handed to the reader by [recv]/[recv_wait] *)
  dropped : int; (** fault-injected wire losses *)
  duplicated : int; (** fault-injected duplicate deliveries *)
  max_depth : int; (** high-water queue depth *)
  flushes : int; (** doorbell frames sent by {!flush} *)
}

val stats : 'a t -> port:int -> stats
(** Statistics for traffic {e toward} [port]. *)

(** Open-loop arrival process: exponential inter-arrival gaps (Poisson
    process) at a fixed mean rate, decoupled from service rate. *)
module Loadgen : sig
  type t

  val create : rate:float -> seed:int -> t
  (** [rate] in arrivals per simulated second. *)

  val next_gap_ns : t -> int
  (** Next inter-arrival gap, ≥ 1 ns. *)
end
