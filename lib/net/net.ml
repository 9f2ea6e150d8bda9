module Sched = Simcore.Sched
module Prng = Repro_util.Prng

type 'a msg = {
  payload : 'a;
  sent_at : int;
  delivered_at : int;
  trace : int;
  span : int;
}

type stats = {
  enqueued : int;
  rejected : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  max_depth : int;
  flushes : int;
}

type 'a port = {
  cpu : int;
  capacity : int;
  q : 'a msg Queue.t;
  buf : ('a * int * int) Queue.t; (* doorbell: (payload, trace, span) *)
  mutable st : stats;
}

type 'a t = {
  cfg : Machine.Config.t;
  ports : 'a port array;
  wire_ns : int option;
  remote_ns : int;
  drop_pct : int;
  dup_pct : int;
  rng : Prng.t;
}

let local_ns = 1_500
let send_cpu_ns = 300
let poll_ns = 2_000

let create ?wire_ns ?(drop_pct = 0) ?(dup_pct = 0) ?(seed = 0xFA17) mach
    ~ports () =
  (match wire_ns with
   | Some w when w < 0 -> invalid_arg "Net.create: wire_ns < 0"
   | _ -> ());
  if drop_pct < 0 || drop_pct >= 100 then
    invalid_arg "Net.create: drop_pct must be in [0, 100)";
  if dup_pct < 0 || dup_pct > 100 then
    invalid_arg "Net.create: dup_pct must be in [0, 100]";
  let cfg = Machine.cfg mach in
  let ports =
    Array.map
      (fun (cpu, capacity) ->
        if capacity < 1 then invalid_arg "Net.create: capacity < 1";
        { cpu;
          capacity;
          q = Queue.create ();
          buf = Queue.create ();
          st =
            { enqueued = 0; rejected = 0; delivered = 0; dropped = 0;
              duplicated = 0; max_depth = 0; flushes = 0 } })
      ports
  in
  { cfg;
    ports;
    wire_ns;
    remote_ns =
      int_of_float
        (float_of_int local_ns *. cfg.Machine.Config.remote_numa_mult);
    drop_pct;
    dup_pct;
    rng = Prng.create seed }

(* Charge the sender and stamp a send toward a port on [dst_cpu]:
   [(sent_at, delivered_at)], both 0 outside the simulation.  Inside
   one machine the message leaves once the sender has paid for it, and
   travels the NUMA distance.  A link's frame leaves at the doorbell
   and the sender's charge overlaps the wire, so it is stamped before
   the charge. *)
let stamp t ~dst_cpu =
  if not (Sched.in_simulation ()) then (0, 0)
  else
    match t.wire_ns with
    | Some wire ->
      let now = Sched.now () in
      Sched.charge send_cpu_ns;
      (now, now + wire)
    | None ->
      Sched.charge send_cpu_ns;
      let now = Sched.now () in
      let numa = Machine.Config.cpu_numa t.cfg in
      let same_node = numa (Sched.cpu ()) = numa dst_cpu in
      (now, now + if same_node then local_ns else t.remote_ns)

(* Seeded wire faults.  A clean channel never consults the PRNG, so it
   behaves bit-identically to a fault-free build. *)
let roll_drop t =
  (t.drop_pct > 0 || t.dup_pct > 0) && Prng.int t.rng 100 < t.drop_pct

let roll_dup t = t.dup_pct > 0 && Prng.int t.rng 100 < t.dup_pct

let note_depth p =
  let depth = Queue.length p.q in
  if depth > p.st.max_depth then p.st <- { p.st with max_depth = depth }

let try_send ?(trace = -1) ?(span = -1) t ~dst payload =
  let p = t.ports.(dst) in
  if Queue.length p.q >= p.capacity then begin
    p.st <- { p.st with rejected = p.st.rejected + 1 };
    false
  end
  else begin
    let sent_at, delivered_at = stamp t ~dst_cpu:p.cpu in
    p.st <- { p.st with enqueued = p.st.enqueued + 1 };
    (* wire loss is invisible to the sender: still [true] *)
    if roll_drop t then p.st <- { p.st with dropped = p.st.dropped + 1 }
    else begin
      let m = { payload; sent_at; delivered_at; trace; span } in
      Queue.push m p.q;
      if Queue.length p.q < p.capacity && roll_dup t then begin
        p.st <- { p.st with duplicated = p.st.duplicated + 1 };
        Queue.push m p.q
      end;
      note_depth p
    end;
    true
  end

let buffer ?(trace = -1) ?(span = -1) t ~dst payload =
  Queue.push (payload, trace, span) t.ports.(dst).buf

let buffered t ~dst = Queue.length t.ports.(dst).buf

(* The doorbell: the staged frame pays one stamp and one fault roll,
   a drop losing it whole and a duplicate re-delivering it whole;
   records past the capacity are rejected one by one. *)
let flush t ~dst =
  let p = t.ports.(dst) in
  let n = Queue.length p.buf in
  if n = 0 then 0
  else begin
    let sent_at, delivered_at = stamp t ~dst_cpu:p.cpu in
    p.st <-
      { p.st with flushes = p.st.flushes + 1; enqueued = p.st.enqueued + n };
    let dropped = roll_drop t in
    let accepted = ref 0 in
    if dropped then p.st <- { p.st with dropped = p.st.dropped + n }
    else begin
      let dup = roll_dup t in
      let enqueue_frame ~count =
        Queue.iter
          (fun (payload, trace, span) ->
            if Queue.length p.q >= p.capacity then
              p.st <- { p.st with rejected = p.st.rejected + 1 }
            else begin
              Queue.push { payload; sent_at; delivered_at; trace; span } p.q;
              if count then incr accepted
            end)
          p.buf
      in
      enqueue_frame ~count:true;
      if dup then begin
        p.st <- { p.st with duplicated = p.st.duplicated + n };
        enqueue_frame ~count:false
      end;
      note_depth p
    end;
    Queue.clear p.buf;
    if dropped then n else !accepted
  end

let recv t ~port =
  let p = t.ports.(port) in
  let now = if Sched.in_simulation () then Sched.now () else max_int in
  match Queue.peek_opt p.q with
  | Some m when m.delivered_at <= now ->
    ignore (Queue.pop p.q);
    p.st <- { p.st with delivered = p.st.delivered + 1 };
    Some m
  | _ -> None

let rec recv_wait t ~port ~until =
  match recv t ~port with
  | Some _ as r -> r
  | None ->
    let now = Sched.now () in
    if now >= until then None
    else begin
      let target =
        match Queue.peek_opt t.ports.(port).q with
        | Some m when m.delivered_at > now -> min m.delivered_at until
        | _ -> min (now + poll_ns) until
      in
      Sched.sleep (max 1 (target - now));
      recv_wait t ~port ~until
    end

let pending t ~port = Queue.length t.ports.(port).q
let stats t ~port = t.ports.(port).st

module Loadgen = struct
  type t = { rng : Prng.t; mean_gap_ns : float }

  let create ~rate ~seed =
    if rate <= 0. then invalid_arg "Loadgen.create: rate <= 0";
    { rng = Prng.create seed; mean_gap_ns = 1e9 /. rate }

  let next_gap_ns t =
    (* inverse-CDF exponential draw; u in [0,1) so log argument > 0 *)
    let u = Prng.float t.rng 1.0 in
    let gap = -.log (1. -. u) *. t.mean_gap_ns in
    max 1 (int_of_float gap)
end
