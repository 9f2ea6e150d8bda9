(** Fixed-bucket log-linear histogram for simulated-time latencies.

    Keeping every sample does not scale to per-request latency
    recording at service scale (hundreds of thousands of samples per
    run), and tail percentiles (p999) need the tail resolved, not a
    sorted copy of everything.  This histogram is HDR-style: values
    are bucketed into 2^5 = 32 linear sub-buckets per power of two,
    giving a constant ≤ 3.2 % relative error at every magnitude, O(1)
    record cost and a fixed ~2 KB footprint regardless of sample
    count.

    Values are nanoseconds of simulated time (any non-negative int
    works; negatives clamp to 0).  Percentile queries return the
    midpoint of the bucket containing the requested rank. *)

let sub_bits = 5
let sub = 1 lsl sub_bits (* 32 sub-buckets per octave *)

(* value range: [0, 2^61); msb(v) <= 60 -> shift <= 55 -> max index
   (56 lsl 5) + 31 = 1823 *)
let buckets = (57 lsl sub_bits) - 1 + 1

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let create () =
  { counts = Array.make buckets 0; n = 0; sum = 0; vmin = max_int; vmax = 0 }

let clear t =
  Array.fill t.counts 0 buckets 0;
  t.n <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- 0

let msb v =
  (* position of the highest set bit; v >= 1 *)
  let r = ref 0 and v = ref v in
  if !v lsr 32 <> 0 then (r := !r + 32; v := !v lsr 32);
  if !v lsr 16 <> 0 then (r := !r + 16; v := !v lsr 16);
  if !v lsr 8 <> 0 then (r := !r + 8; v := !v lsr 8);
  if !v lsr 4 <> 0 then (r := !r + 4; v := !v lsr 4);
  if !v lsr 2 <> 0 then (r := !r + 2; v := !v lsr 2);
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let bucket_of v =
  if v < sub then v
  else
    let shift = msb v - sub_bits in
    ((shift + 1) lsl sub_bits) lor ((v lsr shift) land (sub - 1))

(* midpoint of the bucket's value range *)
let bucket_value i =
  if i < sub then i
  else
    let shift = (i lsr sub_bits) - 1 in
    let low = (sub + (i land (sub - 1))) lsl shift in
    if shift = 0 then low else low + (1 lsl (shift - 1))

let record t v =
  let v = if v < 0 then 0 else min v ((1 lsl 60) - 1) in
  t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n
let min_value t = if t.n = 0 then 0 else t.vmin
let max_value t = t.vmax

(** [percentile t p] with [p] in [0, 100]: the approximate value at
    that percentile (bucket midpoint, clamped to the observed
    min/max so p0/p100 are exact). *)
let percentile t p =
  if t.n = 0 then 0
  else begin
    let target =
      let r = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
      if r < 1 then 1 else if r > t.n then t.n else r
    in
    let cum = ref 0 and i = ref 0 and res = ref t.vmax in
    (try
       while !i < buckets do
         cum := !cum + t.counts.(!i);
         if !cum >= target then begin
           res := bucket_value !i;
           raise Exit
         end;
         incr i
       done
     with Exit -> ());
    let v = !res in
    if v < t.vmin then t.vmin else if v > t.vmax then t.vmax else v
  end

let merge ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.sum <- into.sum + src.sum;
  if src.n > 0 then begin
    if src.vmin < into.vmin then into.vmin <- src.vmin;
    if src.vmax > into.vmax then into.vmax <- src.vmax
  end
