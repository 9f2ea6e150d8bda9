module Sched = Simcore.Sched

type txn_op =
  | Tput of { key : int; vseed : int }
  | Tdel of { key : int }

type op =
  | Put of { key : int; vseed : int }
  | Del of { key : int }
  | Txn_prepare of { txn : int; ops : txn_op list }
  | Txn_decide of { txn : int; nparts : int }

type mode = Sync | Async

type msg =
  | Rec of { shard : int; seq : int; op : op }
  | Ack of { shard : int; seq : int }

(* Wire convention: records flow toward link port 1 (the backup),
   cumulative acks flow back toward port 0 (the primary). *)
let backup_ep = 1
let primary_ep = 0

let retransmit_ns = 120_000
let poll_ns = 400

let now_or_zero () = if Sched.in_simulation () then Sched.now () else 0

let poll_wait () =
  (* Outside the simulation time does not advance on its own, so a
     poll loop would spin forever; callers there drive both sides by
     hand and loops bail out instead of sleeping. *)
  if Sched.in_simulation () then Sched.sleep poll_ns

module Shipper = struct
  type t = {
    window : int;
    link : msg Net.t;
    next_seq : int array;
    acked_ : int array; (* highest cumulative ack, -1 initially *)
    (* (seq, op, trace, span, shipped_at), oldest first; the span
       context is kept so retransmissions carry the same causal
       parent *)
    unacked : (int * op * int * int * int) Queue.t array;
    restarted : int array;
        (* per shard, when its retransmit timer last restarted: its
           last go-back-N resend, or the last ack that covered new
           records *)
    mutable shipped_ : int;
    mutable retransmits_ : int;
    mutable max_lag_ : int;
  }

  let create ~window ~shards ~link =
    if shards < 1 then invalid_arg "Shipper.create: shards < 1";
    if window < 1 then invalid_arg "Shipper.create: window < 1";
    {
      window;
      link;
      next_seq = Array.make shards 0;
      acked_ = Array.make shards (-1);
      unacked = Array.init shards (fun _ -> Queue.create ());
      restarted = Array.make shards 0;
      shipped_ = 0;
      retransmits_ = 0;
      max_lag_ = 0;
    }

  let acked t ~shard = t.acked_.(shard)
  let high_water t ~shard = t.next_seq.(shard) - 1
  let lag t ~shard = Queue.length t.unacked.(shard)
  let shipped t = t.shipped_
  let retransmits t = t.retransmits_
  let max_lag t = t.max_lag_

  (* Drop acked records off the head of the unacked buffer; an ack
     that covers new records restarts the shard's retransmit timer. *)
  let absorb_ack t shard seq =
    if seq > t.acked_.(shard) then begin
      t.acked_.(shard) <- seq;
      t.restarted.(shard) <- now_or_zero ();
      let q = t.unacked.(shard) in
      let continue = ref true in
      while !continue do
        match Queue.peek_opt q with
        | Some (s, _, _, _, _) when s <= seq -> ignore (Queue.pop q)
        | _ -> continue := false
      done
    end

  let poll_acks t =
    let continue = ref true in
    while !continue do
      match Net.recv t.link ~port:primary_ep with
      | Some { payload = Ack { shard; seq }; sent_at; trace; span; _ } ->
          (* the ack's hop back to the primary (machine 0), attributed
             to the request whose record it (cumulatively)
             acknowledges *)
          if trace >= 0 && Sched.in_simulation () then
            ignore
              (Obs.Span.add_span ~trace ~parent:span ~mach:0
                 Obs.Span.Ack_wire ~t0:sent_at ~t1:(Sched.now ()));
          absorb_ack t shard seq
      | Some _ -> () (* a record echoed back: impossible by convention *)
      | None -> continue := false
    done

  let all_acked t =
    Array.for_all (fun q -> Queue.is_empty q) t.unacked

  (* Window admission bounds unacked records, i.e. the async-mode
     replication lag.  The handler polls; acks are drained here too so
     progress does not depend on the pump thread's schedule.  Then the
     record is sequenced, kept for go-back-N and staged toward the
     backup with no wire charge; a later [flush] ships every staged
     record of every shard as one framed batch.  A frame lost on the
     wire is recovered record-by-record by [retransmit_due], exactly
     like individual losses. *)
  let ship ?(trace = -1) ?(span = -1) t ~shard op =
    while Queue.length t.unacked.(shard) >= t.window do
      poll_acks t;
      if Queue.length t.unacked.(shard) >= t.window then poll_wait ()
    done;
    let seq = t.next_seq.(shard) in
    t.next_seq.(shard) <- seq + 1;
    Queue.add (seq, op, trace, span, now_or_zero ()) t.unacked.(shard);
    let l = Queue.length t.unacked.(shard) in
    if l > t.max_lag_ then t.max_lag_ <- l;
    t.shipped_ <- t.shipped_ + 1;
    Net.buffer ~trace ~span t.link ~dst:backup_ep (Rec { shard; seq; op });
    seq

  let flush t = Net.flush t.link ~dst:backup_ep

  (* Go-back-N: when the oldest unacked record of a shard has waited a
     full timeout, put the whole tail back on the wire.  Its wait runs
     from its own ship or the shard's timer restart, whichever is
     later: a resend sends every record of the tail, and an ack that
     covers new records shows the backup is keeping up, so its timer
     restarts as in TCP (RFC 6298, 5.3).  Records shipped since do not
     restart it, so a busy shard still resends a lost record. *)
  let retransmit_due t =
    let now = now_or_zero () in
    Array.iteri
      (fun shard q ->
        match Queue.peek_opt q with
        | Some (_, _, _, _, shipped_at)
          when now - max shipped_at t.restarted.(shard) >= retransmit_ns ->
          t.restarted.(shard) <- now;
          Queue.iter
            (fun (seq, op, trace, span, _) ->
              t.retransmits_ <- t.retransmits_ + 1;
              ignore
                (Net.try_send ~trace ~span t.link ~dst:backup_ep
                   (Rec { shard; seq; op })))
            q
        | _ -> ())
      t.unacked

  let pump t ~until ~deadline =
    let rec loop () =
      poll_acks t;
      retransmit_due t;
      let done_ = until () && all_acked t in
      if done_ then ()
      else if Sched.in_simulation () && Sched.now () >= deadline then ()
      else if not (Sched.in_simulation ()) then ()
      else begin
        poll_wait ();
        loop ()
      end
    in
    loop ()
end

module Applier = struct
  (* the backup's machine id: the process id of its wire/apply spans *)
  let backup_mach = 1

  (* a record received in sequence but not yet applied:
     (op, sent_at, arrived_at, trace, span) *)
  type waiting = op * int * int * int * int

  type t = {
    link : msg Net.t;
    apply : shard:int -> op -> unit;
    held : shard:int -> bool;
    on_apply : lat_ns:int -> unit;
    expected_ : int array; (* next sequence number accepted per shard *)
    mutable applied_ : int;
    ack_batch : bool;
    touched : bool array; (* shards applied since the last batched ack *)
    apply_group : (shard:int -> op list -> unit) option;
    (* in-order single-op records stashed during a drain burst, applied
       as one group per shard before the burst's cumulative ack *)
    stash : waiting Queue.t array;
    (* in-order records parked behind a held shard, oldest first *)
    parked : waiting Queue.t array;
    holding : bool array; (* [held] as of the last look, per shard *)
  }

  let create ?(on_apply = fun ~lat_ns:_ -> ()) ?(ack_batch = false)
      ?apply_group ~shards ~apply ~held link =
    if shards < 1 then invalid_arg "Applier.create: shards < 1";
    {
      link;
      apply;
      held;
      on_apply;
      expected_ = Array.make shards 0;
      applied_ = 0;
      ack_batch;
      touched = Array.make shards false;
      apply_group;
      stash = Array.init shards (fun _ -> Queue.create ());
      parked = Array.init shards (fun _ -> Queue.create ());
      holding = Array.make shards false;
    }

  let applied t = t.applied_
  let expected t ~shard = t.expected_.(shard)

  (* A held shard's last applied record is its holding decide, which
     publishes nothing yet; the parked records behind it are not
     applied at all.  The cumulative ack stops short of both. *)
  let durable t shard =
    t.expected_.(shard) - 1 - Queue.length t.parked.(shard)
    - if t.held ~shard then 1 else 0

  let ack ?(trace = -1) ?(span = -1) t shard =
    ignore
      (Net.try_send ~trace ~span t.link ~dst:primary_ep
         (Ack { shard; seq = durable t shard }))

  (* Apply one in-sequence record: span its wire hop (sent to arrived)
     and its apply, on the backup's machine.  Returns the apply span,
     which the ack carries so the primary can close the causal loop. *)
  let apply_one t ~shard ((op, sent_at, arrived_at, trace, span) : waiting) =
    let in_sim = Sched.in_simulation () in
    let wire =
      if trace >= 0 && in_sim then
        Obs.Span.add_span ~trace ~parent:span ~mach:backup_mach
          Obs.Span.Repl_wire ~t0:sent_at ~t1:arrived_at
      else -1
    in
    let apl =
      Obs.Span.open_span ~trace ~parent:wire ~mach:backup_mach
        Obs.Span.Backup_apply
    in
    t.apply ~shard op;
    Obs.Span.close_span apl;
    t.applied_ <- t.applied_ + 1;
    if in_sim then t.on_apply ~lat_ns:(Sched.now () - sent_at);
    apl

  (* After a decide: every shard the publish released applies its
     parked records in order — until it is empty or held again — and is
     acked; a parked decide may publish in turn and release another
     shard, so look again until nothing moves.  Only a decide can
     release a shard, and this runs before the next record is taken, so
     a shard with parked records is always held when one arrives. *)
  let rec release t ~ack_back =
    let freed = ref false in
    Array.iteri
      (fun shard was ->
        let now = t.held ~shard in
        t.holding.(shard) <- now;
        if was && not now then begin
          freed := true;
          let q = t.parked.(shard) in
          while (not (Queue.is_empty q)) && not (t.held ~shard) do
            ignore (apply_one t ~shard (Queue.pop q))
          done;
          if ack_back then ack t shard else t.touched.(shard) <- true
        end)
      t.holding;
    if !freed then release t ~ack_back

  let handle ?(ack_back = true) ?(sent_at = 0) ?(trace = -1) ?(span = -1) t
      = function
    | Ack _ -> () (* impossible by convention *)
    | Rec { shard; seq; op } ->
        if seq = t.expected_.(shard) then begin
          t.expected_.(shard) <- seq + 1;
          let w = (op, sent_at, now_or_zero (), trace, span) in
          (* a held shard parks the record: not applied, so nothing
             new to ack *)
          if t.held ~shard then Queue.add w t.parked.(shard)
          else begin
            let apl = apply_one t ~shard w in
            if ack_back && not (t.held ~shard) then
              ack ~trace ~span:apl t shard;
            match op with
            | Txn_decide _ -> release t ~ack_back
            | Put _ | Del _ | Txn_prepare _ -> ()
          end
        end
        else if seq < t.expected_.(shard) then begin
          (* duplicate or retransmission of received data: re-ack so the
             shipper's window can advance *)
          if ack_back then ack t shard
        end
        else
          (* gap — an earlier record was lost; go-back-N means we drop
             this and re-ack the last good one to hurry the resend *)
          if ack_back then ack t shard

  (* Group apply: a burst's stashed records for one shard go down as a
     single [apply_group] call (the backup-side commit-group chain —
     one chunk per up to eight records instead of one per record).
     Sequence numbers were advanced at stash time, so the ordering
     check stays per record; the durability receipt moves
     with the apply — [flush_stash] always runs before [flush_acks],
     so a cumulative ack never covers a stashed, unapplied record. *)
  let flush_stash t shard =
    let q = t.stash.(shard) in
    if not (Queue.is_empty q) then begin
      let recs = List.of_seq (Queue.to_seq q) in
      Queue.clear q;
      let f =
        match t.apply_group with Some f -> f | None -> assert false
      in
      let t0 = now_or_zero () in
      f ~shard (List.map (fun (op, _, _, _, _) -> op) recs);
      let t1 = now_or_zero () in
      let in_sim = Sched.in_simulation () in
      List.iter
        (fun (_, sent_at, arrived_at, trace, span) ->
          if trace >= 0 && in_sim then begin
            let wire =
              Obs.Span.add_span ~trace ~parent:span ~mach:backup_mach
                Obs.Span.Repl_wire ~t0:sent_at ~t1:arrived_at
            in
            ignore
              (Obs.Span.add_span ~trace ~parent:wire ~mach:backup_mach
                 Obs.Span.Backup_apply ~t0 ~t1)
          end;
          t.applied_ <- t.applied_ + 1;
          if in_sim then t.on_apply ~lat_ns:(t1 - sent_at))
        recs
    end

  let flush_stashes t =
    Array.iteri (fun shard _ -> flush_stash t shard) t.stash

  (* Cumulative batched acks: one ack per touched shard per drained
     burst, all of them flushed as one doorbell frame — the ack path's
     mirror of the shipper's record batching.  The ack is still only
     produced after every covered record's apply returned (i.e. after
     its durability point), so the Sync guarantee is unchanged; it is
     merely coalesced. *)
  let flush_acks t =
    let any = ref false in
    Array.iteri
      (fun shard touched ->
        if touched then begin
          t.touched.(shard) <- false;
          any := true;
          Net.buffer t.link ~dst:primary_ep
            (Ack { shard; seq = durable t shard })
        end)
      t.touched;
    if !any then ignore (Net.flush t.link ~dst:primary_ep)

  let pump t ~until =
    let rec loop () =
      (match Net.recv t.link ~port:backup_ep with
      | Some { payload; sent_at; trace; span; _ } ->
          if t.ack_batch then begin
            (match (payload, t.apply_group) with
            | ( Rec { shard; seq; op = (Put _ | Del _) as op },
                Some _ )
              when seq = t.expected_.(shard) && not (t.held ~shard) ->
                (* stash for the burst's group apply; the seq advances
                   now so ordering checks see it, the durability point
                   (and the ack) comes at [flush_stash] *)
                t.expected_.(shard) <- seq + 1;
                Queue.add
                  (op, sent_at, now_or_zero (), trace, span)
                  t.stash.(shard)
            | Rec { shard; _ }, _ ->
                (* transaction records are group barriers (a prepare
                   owns the shard's slot until its transaction
                   publishes); out-of-sequence records need
                   [handle]'s duplicate/gap re-ack bookkeeping, and a
                   held shard's records its parking *)
                flush_stash t shard;
                handle ~ack_back:false ~sent_at ~trace ~span t payload
            | Ack _, _ -> ());
            (match payload with
            | Rec { shard; _ } -> t.touched.(shard) <- true
            | Ack _ -> ())
          end
          else handle ~sent_at ~trace ~span t payload;
          loop ()
      | None ->
          if t.ack_batch then begin
            flush_stashes t;
            flush_acks t
          end;
          if until () then ()
          else if not (Sched.in_simulation ()) then ()
          else begin
            poll_wait ();
            loop ()
          end)
    in
    loop ()

  let seal_and_replay t ~sealed_at =
    let before = t.applied_ in
    (* records stashed mid-burst were delivered before the seal: apply
       them before walking the remaining wire tail (never acked, so no
       promise attaches either way — but they are ours to keep).  A
       record parked behind a held shard stays parked: its transaction
       never published here, so promotion presumed-aborts it, and
       nothing after it on its shard was ever acked either. *)
    if t.ack_batch then flush_stashes t;
    let continue = ref true in
    while !continue do
      match Net.recv t.link ~port:backup_ep with
      | Some { payload; delivered_at; _ } ->
          (* Only what the wire had delivered when the primary died is
             ours; later timestamps are in-flight data that died with
             it.  (recv already gates on delivery time inside the
             simulation; the explicit check also covers post-run
             draining outside it.) *)
          if delivered_at <= sealed_at then handle ~ack_back:false t payload
      | None -> continue := false
    done;
    t.applied_ - before
end
