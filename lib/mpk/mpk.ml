type pkey = int
type perm = Read_write | Read_only | No_access
type access = Read | Write
type fault = { fault_addr : int; fault_access : access; fault_pkey : pkey }

exception Fault of fault

let page_size = 4096
let num_keys = 16

type range = { rbase : int; rsize : int; mutable rkey : pkey }

type capability = { cap_key : pkey }

exception Wrpkru_denied of pkey

module Itbl = Hashtbl.Make (Int)

type t = {
  mutable ranges : range array; (* sorted by rbase; page-aligned *)
  mutable key_used : bool array;
  defaults : perm array;
  threads : perm array Itbl.t; (* thread id -> PKRU *)
  mutable faults : int;
  (* Hot-path memos, none allocating; [forget] drops all three. *)
  mutable memo : range; (* the last range an address fell in *)
  mutable gap_lo : int; (* the last key-0 gap between ranges: [gap_lo, gap_hi) *)
  mutable gap_hi : int;
  mutable memo_thread : int; (* the last thread asked about ... *)
  mutable memo_pkru : perm array; (* ... and its PKRU ([defaults] if it has none) *)
  guarded : bool array; (* keys under wrpkru lockdown *)
  mutable sealed_ : bool;
}

(* [no_range] holds no address, and [no_thread] is no thread's id. *)
let no_range = { rbase = 0; rsize = 0; rkey = 0 }
let no_thread = min_int

let forget t =
  t.memo <- no_range;
  t.gap_lo <- 0;
  t.gap_hi <- 0;
  t.memo_thread <- no_thread

let create () =
  let key_used = Array.make num_keys false in
  key_used.(0) <- true;
  let defaults = Array.make num_keys Read_write in
  { ranges = [||];
    key_used;
    defaults;
    threads = Itbl.create 64;
    faults = 0;
    memo = no_range;
    gap_lo = 0;
    gap_hi = 0;
    memo_thread = no_thread;
    memo_pkru = defaults;
    guarded = Array.make num_keys false;
    sealed_ = false }

let alloc_key t =
  let rec find i =
    if i >= num_keys then failwith "Mpk.alloc_key: all 16 keys in use"
    else if not t.key_used.(i) then begin
      t.key_used.(i) <- true;
      i
    end
    else find (i + 1)
  in
  find 1

let free_key t k =
  if k <= 0 || k >= num_keys then invalid_arg "Mpk.free_key";
  t.key_used.(k) <- false;
  t.guarded.(k) <- false; (* a recycled key starts unguarded *)
  t.defaults.(k) <- Read_write;
  Itbl.iter (fun _ pkru -> pkru.(k) <- Read_write) t.threads;
  t.ranges <- Array.of_list
      (List.filter (fun r -> r.rkey <> k) (Array.to_list t.ranges));
  forget t

let check_key k =
  if k < 0 || k >= num_keys then invalid_arg "Mpk: key out of range"

let assign_range t k ~base ~size =
  check_key k;
  if size <= 0 then invalid_arg "Mpk.assign_range";
  if base mod page_size <> 0 || size mod page_size <> 0 then
    invalid_arg "Mpk.assign_range: must be page-aligned";
  (* Exact re-assignment of an existing range just swaps the key
     (restart after a crash re-tags the same metadata region). *)
  let existing =
    Array.to_list t.ranges
    |> List.find_opt (fun r -> r.rbase = base && r.rsize = size)
  in
  (match existing with
   | Some r -> r.rkey <- k
   | None ->
     let overlaps r = base < r.rbase + r.rsize && r.rbase < base + size in
     if Array.exists overlaps t.ranges then
       invalid_arg "Mpk.assign_range: overlapping range";
     let ranges = Array.append t.ranges [| { rbase = base; rsize = size; rkey = k } |] in
     Array.sort (fun a b -> compare a.rbase b.rbase) ranges;
     t.ranges <- ranges);
  forget t

(* The key of [a]: the memoized range or key-0 gap, else a binary
   search that memoizes what it finds. *)
let key_of_addr t a =
  let r = t.memo in
  if a >= r.rbase && a < r.rbase + r.rsize then r.rkey
  else if a >= t.gap_lo && a < t.gap_hi then 0
  else
    let rec search lo hi =
      if lo > hi then begin
        (* ranges below [lo] end at or before [a]; from [lo] on they
           start after it *)
        let n = Array.length t.ranges in
        t.gap_lo <- (if hi >= 0 then t.ranges.(hi).rbase + t.ranges.(hi).rsize else min_int);
        t.gap_hi <- (if lo < n then t.ranges.(lo).rbase else max_int);
        0
      end
      else
        let mid = (lo + hi) / 2 in
        let r = t.ranges.(mid) in
        if a < r.rbase then search lo (mid - 1)
        else if a >= r.rbase + r.rsize then search (mid + 1) hi
        else begin
          t.memo <- r;
          r.rkey
        end
    in
    search 0 (Array.length t.ranges - 1)

let set_default_perm t k p =
  check_key k;
  t.defaults.(k) <- p

let pkru_of t thread =
  match Itbl.find t.threads thread with
  | pkru -> pkru
  | exception Not_found ->
    let pkru = Array.copy t.defaults in
    Itbl.replace t.threads thread pkru;
    if thread = t.memo_thread then t.memo_thread <- no_thread;
    pkru

let get_perm_unchecked t ~thread k =
  if thread <> t.memo_thread then begin
    t.memo_pkru <-
      (match Itbl.find t.threads thread with
       | pkru -> pkru
       | exception Not_found -> t.defaults);
    t.memo_thread <- thread
  end;
  t.memo_pkru.(k)

let get_perm t ~thread k =
  check_key k;
  get_perm_unchecked t ~thread k

(* permission lattice: is [p] strictly more permissive than [q]? *)
let loosens p q =
  match p, q with
  | Read_write, (Read_only | No_access) -> true
  | Read_only, No_access -> true
  | _ -> false

let set_perm ?cap t ~thread k p =
  check_key k;
  if t.sealed_ && t.guarded.(k)
     && loosens p (get_perm_unchecked t ~thread k)
     && (match cap with Some c -> c.cap_key <> k | None -> true)
  then raise (Wrpkru_denied k);
  (pkru_of t thread).(k) <- p

let guard t k =
  check_key k;
  t.guarded.(k) <- true;
  { cap_key = k }

let seal t = t.sealed_ <- true
let sealed t = t.sealed_

let reset_thread t ~thread =
  Itbl.remove t.threads thread;
  forget t

let check t ~thread a access =
  let k = key_of_addr t a in
  if k <> 0 then begin
    let p = get_perm_unchecked t ~thread k in
    let ok =
      match p, access with
      | Read_write, _ -> true
      | Read_only, Read -> true
      | Read_only, Write -> false
      | No_access, _ -> false
    in
    if not ok then begin
      t.faults <- t.faults + 1;
      raise (Fault { fault_addr = a; fault_access = access; fault_pkey = k })
    end
  end
let faults_observed t = t.faults
