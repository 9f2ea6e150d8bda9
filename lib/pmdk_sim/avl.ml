(** Volatile AVL tree of free chunks keyed by (size, addr) — the
    DRAM-side index the PMDK allocator uses for large free blocks
    (paper §3.1, Fig. 2).  Guarded by a single global lock in the
    allocator, which the paper identifies as a scalability bottleneck;
    [on_visit] lets the owner charge simulated DRAM latency per node
    touched so that tree depth has a cost. *)

type node = {
  key_size : int;
  key_addr : int;
  mutable left : node option;
  mutable right : node option;
  mutable height : int;
}

type t = {
  mutable root : node option;
  mutable count : int;
  on_visit : unit -> unit;
}

let create ?(on_visit = fun () -> ()) () =
  { root = None; count = 0; on_visit }

let count t = t.count

let height = function None -> 0 | Some n -> n.height

let update n = n.height <- 1 + max (height n.left) (height n.right)

let balance_factor n = height n.left - height n.right

let rotate_right n =
  match n.left with
  | None -> n
  | Some l ->
    n.left <- l.right;
    l.right <- Some n;
    update n;
    update l;
    l

let rotate_left n =
  match n.right with
  | None -> n
  | Some r ->
    n.right <- r.left;
    r.left <- Some n;
    update n;
    update r;
    r

let rebalance n =
  update n;
  let bf = balance_factor n in
  if bf > 1 then begin
    (match n.left with
     | Some l when balance_factor l < 0 -> n.left <- Some (rotate_left l)
     | _ -> ());
    rotate_right n
  end
  else if bf < -1 then begin
    (match n.right with
     | Some r when balance_factor r > 0 -> n.right <- Some (rotate_right r)
     | _ -> ());
    rotate_left n
  end
  else n

let compare_key (s1, a1) (s2, a2) =
  match compare s1 s2 with 0 -> compare a1 a2 | c -> c

let insert t ~size ~addr =
  let rec go = function
    | None ->
      t.count <- t.count + 1;
      { key_size = size; key_addr = addr; left = None; right = None; height = 1 }
    | Some n ->
      t.on_visit ();
      let c = compare_key (size, addr) (n.key_size, n.key_addr) in
      if c < 0 then n.left <- Some (go n.left)
      else if c > 0 then n.right <- Some (go n.right)
      else invalid_arg "Avl.insert: duplicate key";
      rebalance n
  in
  t.root <- Some (go t.root)

(* Removes the node with the smallest key; returns it. *)
let rec pop_min n =
  match n.left with
  | None -> ((n.key_size, n.key_addr), n.right)
  | Some l ->
    let min_kv, l' = pop_min l in
    n.left <- l';
    (min_kv, Some (rebalance n))

let remove t ~size ~addr =
  let removed = ref false in
  let rec go = function
    | None -> None
    | Some n ->
      t.on_visit ();
      let c = compare_key (size, addr) (n.key_size, n.key_addr) in
      if c < 0 then begin
        n.left <- go n.left;
        Some (rebalance n)
      end
      else if c > 0 then begin
        n.right <- go n.right;
        Some (rebalance n)
      end
      else begin
        removed := true;
        match n.left, n.right with
        | None, r -> r
        | l, None -> l
        | l, Some r ->
          let (ks, ka), r' = pop_min r in
          let n' =
            { key_size = ks; key_addr = ka; left = l; right = r'; height = 0 }
          in
          Some (rebalance n')
      end
  in
  t.root <- go t.root;
  if !removed then t.count <- t.count - 1;
  !removed

(** Smallest (size, addr) with [size >= wanted] — best fit. *)
let find_best_fit t ~size:wanted =
  let rec go best = function
    | None -> best
    | Some n ->
      t.on_visit ();
      if n.key_size >= wanted then go (Some (n.key_size, n.key_addr)) n.left
      else go best n.right
  in
  go None t.root

let remove_best_fit t ~size =
  match find_best_fit t ~size with
  | None -> None
  | Some (s, a) ->
    let ok = remove t ~size:s ~addr:a in
    assert ok;
    Some (s, a)

(* test helper: verify AVL balance and BST ordering *)
let check t =
  let rec go lo = function
    | None -> 0
    | Some n ->
      let hl = go lo n.left in
      let hr = go (Some (n.key_size, n.key_addr)) n.right in
      (match lo with
       | Some k when compare_key k (n.key_size, n.key_addr) >= 0 ->
         failwith "Avl.check: ordering violated"
       | _ -> ());
      (match n.left with
       | Some l when compare_key (l.key_size, l.key_addr) (n.key_size, n.key_addr) >= 0 ->
         failwith "Avl.check: left ordering violated"
       | _ -> ());
      if abs (hl - hr) > 1 then failwith "Avl.check: unbalanced";
      if n.height <> 1 + max hl hr then failwith "Avl.check: bad height";
      n.height
  in
  ignore (go None t.root)
