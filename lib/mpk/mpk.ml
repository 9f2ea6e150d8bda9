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

type t = {
  mutable ranges : range array; (* sorted by rbase; page-aligned *)
  mutable key_used : bool array;
  defaults : perm array;
  threads : (int, perm array) Hashtbl.t; (* thread id -> PKRU *)
  mutable faults : int;
  mutable memo : range option; (* hot-path lookup memo *)
  guarded : bool array; (* keys under wrpkru lockdown *)
  mutable sealed_ : bool;
}

let create () =
  let key_used = Array.make num_keys false in
  key_used.(0) <- true;
  { ranges = [||];
    key_used;
    defaults = Array.make num_keys Read_write;
    threads = Hashtbl.create 64;
    faults = 0;
    memo = None;
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
  Hashtbl.iter (fun _ pkru -> pkru.(k) <- Read_write) t.threads;
  t.ranges <- Array.of_list
      (List.filter (fun r -> r.rkey <> k) (Array.to_list t.ranges));
  t.memo <- None

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
  t.memo <- None

let find_range t a =
  match t.memo with
  | Some r when a >= r.rbase && a < r.rbase + r.rsize -> Some r
  | _ ->
    let rec search lo hi =
      if lo > hi then None
      else
        let mid = (lo + hi) / 2 in
        let r = t.ranges.(mid) in
        if a < r.rbase then search lo (mid - 1)
        else if a >= r.rbase + r.rsize then search (mid + 1) hi
        else begin
          t.memo <- Some r;
          Some r
        end
    in
    search 0 (Array.length t.ranges - 1)

let key_of_addr t a =
  match find_range t a with Some r -> r.rkey | None -> 0

let set_default_perm t k p =
  check_key k;
  t.defaults.(k) <- p

let pkru_of t thread =
  match Hashtbl.find_opt t.threads thread with
  | Some pkru -> pkru
  | None ->
    let pkru = Array.copy t.defaults in
    Hashtbl.replace t.threads thread pkru;
    pkru

let get_perm_unchecked t ~thread k =
  match Hashtbl.find_opt t.threads thread with
  | Some pkru -> pkru.(k)
  | None -> t.defaults.(k)

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

let reset_thread t ~thread = Hashtbl.remove t.threads thread

let check t ~thread a access =
  let k = key_of_addr t a in
  if k <> 0 then begin
    let p = get_perm t ~thread k in
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
