(** Order statistics over simulated-time samples.

    [t] keeps every sample so percentiles are exact (linear
    interpolation between the two closest ranks).  {!hist_percentile}
    reads a percentile out of the service's log histograms
    ({!Obs.Hist}) by interpolating the rank inside its bucket, so the
    value moves with the data instead of snapping to a bucket
    midpoint. *)

type t = { mutable a : int array; mutable n : int; mutable sum : int }

let create () = { a = Array.make 256 0; n = 0; sum = 0 }

let add t v =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- v;
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let merge ~into t =
  for i = 0 to t.n - 1 do
    add into t.a.(i)
  done

let count t = t.n
let total t = t.sum

let percentile t p =
  if t.n = 0 then 0.
  else begin
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    let x = p /. 100. *. float_of_int (t.n - 1) in
    let i = int_of_float x in
    let j = min (t.n - 1) (i + 1) in
    let f = x -. float_of_int i in
    (float_of_int s.(i) *. (1. -. f)) +. (float_of_int s.(j) *. f)
  end

(* value range of an Obs.Hist bucket: 32 linear sub-buckets per octave *)
let bucket_bounds i =
  if i < 32 then (i, 1)
  else
    let shift = (i lsr 5) - 1 in
    ((32 + (i land 31)) lsl shift, 1 lsl shift)

let hist_percentile (h : Obs.Hist.t) p =
  if h.Obs.Hist.n = 0 then 0.
  else begin
    let target = p /. 100. *. float_of_int h.Obs.Hist.n in
    let rec go i cum =
      let c = h.Obs.Hist.counts.(i) in
      if c > 0 && float_of_int (cum + c) >= target then begin
        let low, width = bucket_bounds i in
        let f = (target -. float_of_int cum) /. float_of_int c in
        float_of_int low +. (Float.max 0. f *. float_of_int width)
      end
      else if i + 1 >= Array.length h.Obs.Hist.counts then
        float_of_int h.Obs.Hist.vmax
      else go (i + 1) (cum + c)
    in
    let v = go 0 0 in
    Float.min (float_of_int h.Obs.Hist.vmax)
      (Float.max (float_of_int h.Obs.Hist.vmin) v)
  end

let median = function
  | [] -> 0.
  | l ->
    let s = Array.of_list l in
    Array.sort compare s;
    let n = Array.length s in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(** First and third quartile, interpolated as Python's
    [statistics.quantiles(values, n=4)] does by default. *)
let quartiles l =
  let s = Array.of_list l in
  Array.sort compare s;
  let n = Array.length s in
  if n < 2 then (median l, median l)
  else begin
    let q i =
      let j = float_of_int (i * (n + 1)) /. 4. in
      let k = max 1 (min (n - 1) (int_of_float j)) in
      let d = j -. float_of_int k in
      s.(k - 1) +. ((s.(k) -. s.(k - 1)) *. d)
    in
    (q 1, q 3)
  end
