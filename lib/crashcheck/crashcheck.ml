(* Deterministic persistency model checker: enumerate every
   persistence point of a heap operation, crash there (worst-case and
   seeded adversarial dirty subsets), recover, and validate oracles.
   See crashcheck.mli for the model. *)

module Prng = Repro_util.Prng
module Memdev = Nvmm.Memdev
module H = Poseidon.Heap

type mode = Dirty_lost_all | Dirty_subset of int

let mode_to_string = function
  | Dirty_lost_all -> "dirty-lost-all"
  | Dirty_subset seed -> Printf.sprintf "dirty-subset:%d" seed

type ledger = { mutable durable : int; mutable slack : int }

type env = {
  mach : Machine.t;
  base : int;
  mutable heap : Poseidon.Heap.t;
  ledger : ledger;
  mutable aux_devs : Nvmm.Memdev.t list;
}

type oracle = { oname : string; check : env -> (unit, string) result }

type scenario = {
  sname : string;
  setup : unit -> env;
  op : env -> unit;
  extra_oracles : oracle list;
}

(* ---------- oracles ---------- *)

let o_invariants =
  { oname = "invariants";
    check =
      (fun env ->
        match H.check_invariants env.heap with
        | () -> Ok ()
        | exception Poseidon.Subheap.Invariant_violation msg -> Error msg) }

let o_fsck =
  { oname = "fsck";
    check =
      (fun env ->
        let r = Poseidon.Fsck.run env.heap in
        if Poseidon.Fsck.is_clean r then Ok ()
        else
          let first =
            List.concat_map
              (fun (s : Poseidon.Fsck.subheap_report) -> s.violations)
              r.Poseidon.Fsck.subheaps
          in
          Error
            (Printf.sprintf "%d violation(s): %s"
               r.Poseidon.Fsck.total_violations
               (match first with v :: _ -> v | [] -> "(unlocated)"))) }

let o_quiescent =
  { oname = "quiescent";
    check =
      (fun env ->
        if H.logs_quiescent env.heap then Ok ()
        else
          Error
            (Printf.sprintf
               "logs not quiescent after recovery (%d micro-log entries \
                pending)"
               (H.tx_pending env.heap))) }

let o_accounting =
  { oname = "accounting";
    check =
      (fun env ->
        let live = (H.stats env.heap).H.live_bytes
        and free = (H.stats env.heap).H.free_bytes
        and cap = H.data_capacity env.heap in
        if live + free = cap then Ok ()
        else
          Error
            (Printf.sprintf
               "leak or double-own: live %d + free %d <> capacity %d \
                (delta %d)"
               live free cap (cap - live - free))) }

(* Durability and atomicity: committed work, committed transactions
   included, stays visible, uncommitted transactions roll back, and
   only the one in-flight call ([slack]) may go either way. *)
let o_durability =
  { oname = "durability";
    check =
      (fun env ->
        let live = (H.stats env.heap).H.live_bytes in
        let { durable; slack } = env.ledger in
        if live >= durable - slack && live <= durable + slack then Ok ()
        else
          Error
            (Printf.sprintf
               "live %d B outside [%d - %d, %d + %d]: committed work lost \
                or uncommitted work leaked"
               live durable slack durable slack)) }

let standard_oracles =
  [ o_invariants; o_fsck; o_quiescent; o_accounting; o_durability ]

(* ---------- checking core ---------- *)

type counterexample = {
  cx_scenario : string;
  cx_point : int;
  cx_mode : mode;
  cx_oracle : string;
  cx_detail : string;
}

type report = {
  rp_scenario : string;
  fences_total : int;
  points_explored : int;
  subsets_tried : int;
  recoveries_verified : int;
  counterexamples : counterexample list;
}

exception Stop

(* Run [op] on a fresh environment, cutting execution at persistence
   point [stop_at] (0 = run to completion).  Fences are counted from
   the start of [op]: setup's own persistence traffic is excluded.
   With [aux_devs] (multi-machine scenarios) the count is cumulative
   across every device in execution order, so the sweep interleaves
   the machines' persistence points exactly as the run did. *)
let run_op scn ~stop_at =
  let env = scn.setup () in
  let devs = Machine.dev env.mach :: env.aux_devs in
  List.iter Memdev.reset_counters devs;
  if stop_at > 0 then begin
    let count = ref 0 in
    List.iter
      (fun d ->
        Memdev.set_persistence_hook d
          (Some
             (fun (_ : Memdev.fence_info) ->
               incr count;
               if !count >= stop_at then raise Stop)))
      devs
  end;
  let fences =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun d -> Memdev.set_persistence_hook d None) devs)
      (fun () ->
        (try scn.op env with Stop -> ());
        List.fold_left
          (fun acc d -> acc + (Memdev.counters d).Memdev.fences)
          0 devs)
  in
  (env, fences)

let measure scn = snd (run_op scn ~stop_at:0)

let subset_seed ~seed ~point s =
  (seed * 0x9E3779B1) lxor (point * 0x85EBCA6B) lxor (s * 0xC2B2AE35)
  land 0x3FFFFFFF

let check_point scn ~point ~mode =
  Obs.Trace.emit_named Obs.Event.Custom "crashcheck_point" point;
  let env, _ = run_op scn ~stop_at:point in
  let dev = Machine.dev env.mach in
  (match mode with
   | Dirty_lost_all -> Memdev.crash dev `Strict
   | Dirty_subset seed -> Memdev.crash dev (`Adversarial (Prng.create seed)));
  (* multi-machine scenarios: every member loses power at the same
     instant (correlated cluster-wide crash — the worst case) *)
  List.iteri
    (fun i d ->
      match mode with
      | Dirty_lost_all -> Memdev.crash d `Strict
      | Dirty_subset seed ->
        Memdev.crash d (`Adversarial (Prng.create (seed + (31 * (i + 1))))))
    env.aux_devs;
  let cex oracle detail =
    Some
      { cx_scenario = scn.sname;
        cx_point = point;
        cx_mode = mode;
        cx_oracle = oracle;
        cx_detail = detail }
  in
  match H.attach env.mach ~base:env.base () with
  | exception e -> cex "recovery" (Printexc.to_string e)
  | recovered -> (
    env.heap <- recovered;
    let rec first_failure = function
      | [] -> None
      | o :: rest -> (
        match o.check env with
        | Ok () -> first_failure rest
        | Error detail -> cex o.oname detail
        | exception e ->
          cex o.oname ("oracle raised: " ^ Printexc.to_string e))
    in
    first_failure (standard_oracles @ scn.extra_oracles))

(* Evenly-strided sample of [1..n] with [k] elements, endpoints
   included — the budget-capped point selection. *)
let stride_sample n k =
  if k <= 0 || n <= k then List.init n (fun i -> i + 1)
  else if k = 1 then [ 1 ]
  else
    List.init k (fun i -> 1 + (i * (n - 1) / (k - 1)))
    |> List.sort_uniq compare

let run ?(max_points = 0) ?(subsets_per_point = 2) ?(seed = 1) scn =
  let fences_total = measure scn in
  (* +1: the point past the last fence crashes after [op] completed *)
  let points = stride_sample (fences_total + 1) max_points in
  let subsets = ref 0 and verified = ref 0 and cexs = ref [] in
  List.iter
    (fun point ->
      let modes =
        Dirty_lost_all
        :: List.init subsets_per_point (fun s ->
               Dirty_subset (subset_seed ~seed ~point s))
      in
      List.iter
        (fun mode ->
          (match mode with
           | Dirty_subset _ -> incr subsets
           | Dirty_lost_all -> ());
          match check_point scn ~point ~mode with
          | None -> incr verified
          | Some cx -> cexs := cx :: !cexs)
        modes)
    points;
  { rp_scenario = scn.sname;
    fences_total;
    points_explored = List.length points;
    subsets_tried = !subsets;
    recoveries_verified = !verified;
    counterexamples = List.rev !cexs }

let pp_counterexample ppf cx =
  Format.fprintf ppf
    "COUNTEREXAMPLE %s: crash at point %d (%s) violates %s@,  %s" cx.cx_scenario
    cx.cx_point (mode_to_string cx.cx_mode) cx.cx_oracle cx.cx_detail

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%-10s %3d fences, %3d points explored, %3d subsets tried, %4d \
     recoveries verified, %d counterexample(s)"
    r.rp_scenario r.fences_total r.points_explored r.subsets_tried
    r.recoveries_verified
    (List.length r.counterexamples);
  List.iter (fun cx -> Format.fprintf ppf "@,%a" pp_counterexample cx)
    r.counterexamples;
  Format.fprintf ppf "@]"

(* ---------- built-in scenarios ---------- *)

let heap_base = 1 lsl 30

(* One CPU and a 64 KiB data region keep the fence space small enough
   to enumerate exhaustively while still exercising split, merge,
   defragmentation and hash-growth paths. *)
let mk_env ?(base_buckets = 32) () =
  let cfg =
    { Machine.Config.default with
      Machine.Config.num_cpus = 1;
      numa_domains = 1 }
  in
  let mach = Machine.create ~cfg () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 16) ~base_buckets ()
  in
  { mach;
    base = heap_base;
    heap;
    ledger = { durable = 0; slack = 0 };
    aux_devs = [] }

let finish_setup env =
  (* everything the setup did is the durable baseline *)
  Memdev.drain (Machine.dev env.mach);
  env

let round_up = Poseidon.Layout.round_up

(* Ledger-updating wrappers: the ledger moves only when the call
   returns, so a crash mid-call leaves its effect inside [slack]. *)
let alloc_l env size =
  match H.alloc env.heap size with
  | Some p ->
    env.ledger.durable <- env.ledger.durable + round_up size;
    Some p
  | None -> None

let free_l env p ~size =
  H.free env.heap p;
  env.ledger.durable <- env.ledger.durable - round_up size

let scn_alloc () =
  { sname = "alloc";
    extra_oracles = [];
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 1024;
        ignore (alloc_l env 64);
        ignore (alloc_l env 192);
        finish_setup env);
    op =
      (fun env ->
        List.iter
          (fun s -> ignore (alloc_l env s))
          [ 32; 64; 96; 128; 256; 512; 32; 1024; 48; 64 ]) }

let scn_free () =
  let sizes = [ 32; 64; 128; 256; 512; 32; 64; 128; 256; 1024 ] in
  let ptrs = ref [] in
  { sname = "free";
    extra_oracles = [];
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 1024;
        ptrs :=
          List.filter_map
            (fun s -> Option.map (fun p -> (p, s)) (alloc_l env s))
            sizes;
        finish_setup env);
    op =
      (fun env -> List.iter (fun (p, s) -> free_l env p ~size:s) !ptrs) }

(* A transaction's bytes become durable at the micro-log truncation
   inside the [is_end] call; the ledger moves when that call returns,
   so [slack] must cover one whole transaction. *)
let tx_l env sizes =
  let n = List.length sizes in
  let bytes = List.fold_left (fun a s -> a + round_up s) 0 sizes in
  let ok = ref true in
  List.iteri
    (fun i s ->
      if H.tx_alloc env.heap s ~is_end:(i = n - 1) = None then ok := false)
    sizes;
  if !ok then env.ledger.durable <- env.ledger.durable + bytes

let scn_tx_commit () =
  { sname = "tx-commit";
    extra_oracles = [];
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 512;
        ignore (alloc_l env 64);
        finish_setup env);
    op =
      (fun env ->
        tx_l env [ 64; 128; 64 ];
        tx_l env [ 256; 32 ]) }

let scn_tx_abort () =
  { sname = "tx-abort";
    extra_oracles = [];
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 512;
        ignore (alloc_l env 128);
        finish_setup env);
    op =
      (fun env ->
        ignore (H.tx_alloc env.heap 64 ~is_end:false);
        ignore (H.tx_alloc env.heap 128 ~is_end:false);
        ignore (H.tx_alloc env.heap 256 ~is_end:false);
        H.tx_abort env.heap;
        ignore (alloc_l env 64)) }

let scn_extend () =
  { sname = "extend";
    extra_oracles = [];
    setup =
      (fun () ->
        (* tiny level 0 so a few dozen records overflow the probe
           windows and force hash growth *)
        let env = mk_env ~base_buckets:8 () in
        env.ledger.slack <- 64;
        finish_setup env);
    op =
      (fun env ->
        for _ = 1 to 40 do
          ignore (alloc_l env 32)
        done) }

(* One magazine refill of eight 64 B blocks and its publish.  Until
   the publish starts the ledger allows no slack: a crash anywhere in
   the carve must recover to the pre-carve live bytes, every lease
   reclaimed. *)
let carve_op env =
  let ops = Option.get (H.cache_ops env.heap) in
  let blocks = ops.Alloc_intf.cache_carve ~size:64 ~count:8 in
  (* the lease clears share one fence, so a crash may persist any
     subset of them *)
  let bytes = 64 * List.length blocks in
  env.ledger.slack <- bytes;
  ops.Alloc_intf.cache_publish blocks;
  env.ledger.durable <- env.ledger.durable + bytes;
  env.ledger.slack <- 0

let o_ledger_reclaimed =
  { oname = "ledger-reclaimed";
    check =
      (fun env ->
        let armed = ref 0 in
        H.iter_subheaps env.heap (fun sh ->
            for slot = 0 to Poseidon.Layout.tc_ledger_cap - 1 do
              let a =
                sh.Poseidon.Subheap.meta_base
                + Poseidon.Layout.sh_off_tc_ledger
                + (slot * Poseidon.Layout.word)
              in
              if Machine.read_u64 env.mach a <> 0 then incr armed
            done);
        if !armed = 0 then Ok ()
        else
          Error
            (Printf.sprintf "%d reclaim-ledger lease(s) still armed after recovery"
               !armed)) }

(* A magazine refill split into runs: set-up leaves a three-block
   (192 B) hole bounded by a live right neighbour, so one carve of
   eight 64 B blocks takes the whole hole as one run, relinking the
   neighbour's [prev], and the rest as a second run off the
   wilderness. *)
let scn_carve () =
  { sname = "carve";
    setup =
      (fun () ->
        let env = mk_env () in
        let hole = alloc_l env 256 in
        ignore (alloc_l env 64);
        (match hole with
         | Some p -> free_l env p ~size:256
         | None -> failwith "carve scenario: setup allocation failed");
        (* splits the freed block: 64 B live, a 192 B hole after it *)
        ignore (alloc_l env 64);
        finish_setup env);
    op = carve_op;
    extra_oracles = [ o_ledger_reclaimed ] }

(* A carve run whose records land in tombstone slots, so [Record.init]
   logs every field of each under the run's one barrier.  Set-up uses
   the 64 KiB region up with live blocks, except for eight adjacent
   64 B blocks it frees again; a 512 B request then finds no fit and
   defragments them into one block (tombstoning seven records), which
   is freed.  The carve splits that block back into the same eight
   blocks, and each fresh record takes its offset's old slot. *)
let scn_carve_tombstones () =
  { sname = "carve-tombstones";
    setup =
      (fun () ->
        let env = mk_env () in
        let alloc size =
          match alloc_l env size with
          | Some p -> p
          | None -> failwith "carve-tombstones scenario: setup allocation failed"
        in
        (* 62 KiB, leaving 2 KiB of wilderness *)
        List.iter (fun s -> ignore (alloc s)) [ 32768; 16384; 8192; 4096; 2048 ];
        let run = List.init 8 (fun _ -> alloc 64) in
        (* a live right neighbour, then the rest of the wilderness *)
        List.iter (fun s -> ignore (alloc s)) [ 64; 1024; 256; 128; 64 ];
        List.iter (fun p -> free_l env p ~size:64) run;
        free_l env (alloc 512) ~size:512;
        finish_setup env);
    op = carve_op;
    extra_oracles = [ o_ledger_reclaimed ] }

let scn_broken_missing_flush () =
  let raw = ref 0 in
  let magic = 0xDEC0DE in
  { sname = "broken";
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 128;
        (match alloc_l env 128 with
         | Some p -> raw := H.get_rawptr env.heap p
         | None -> failwith "broken scenario: setup allocation failed");
        finish_setup env);
    op =
      (fun env ->
        (* two-line commit protocol with the data flush forgotten: the
           flag's persist can land while the data line is still
           volatile-only *)
        Machine.write_u64 env.mach !raw magic;
        (* BUG under test: missing  Machine.persist env.mach !raw 8  *)
        Machine.write_u64 env.mach (!raw + 64) 1;
        Machine.persist env.mach (!raw + 64) 8);
    extra_oracles =
      [ { oname = "app-commit";
          check =
            (fun env ->
              let flag = Machine.read_u64 env.mach (!raw + 64) in
              let data = Machine.read_u64 env.mach !raw in
              if flag = 1 && data <> magic then
                Error
                  (Printf.sprintf
                     "commit flag persisted but data lost (data=%#x): \
                      missing clwb on the data line"
                     data)
              else Ok ()) } ] }

(* ---------- service scenarios: poseidon-kv commit protocol ---------- *)

type kv_op =
  | Kput of int * int
  | Kdel of int
  | Ktxn of Service.Kv.txn_op list

let txn_op_key = function
  | Service.Kv.Tput { key; _ } | Service.Kv.Tdel { key } -> key

(* Model of {!Service.Kv.txn}'s commit rule: non-empty, distinct keys,
   every strict delete's key present.  An aborting transaction is a
   no-op on the model state, matching "abort leaves no durable trace". *)
let txn_would_commit tbl ops =
  let keys = List.map txn_op_key ops in
  ops <> []
  && List.length (List.sort_uniq compare keys) = List.length keys
  && List.for_all
       (function
         | Service.Kv.Tdel { key } -> Hashtbl.mem tbl key
         | Service.Kv.Tput _ -> true)
       ops

let apply_kv tbl = function
  | Kput (k, vs) -> Hashtbl.replace tbl k vs
  | Kdel k -> Hashtbl.remove tbl k
  | Ktxn ops ->
    if txn_would_commit tbl ops then
      List.iter
        (function
          | Service.Kv.Tput { key; vseed } -> Hashtbl.replace tbl key vseed
          | Service.Kv.Tdel { key } -> Hashtbl.remove tbl key)
        ops

let op_keys = function
  | Kput (k, _) | Kdel k -> [ k ]
  | Ktxn ops -> List.map txn_op_key ops

let universe_of ~preload ~plan =
  List.sort_uniq compare (List.map fst preload @ List.concat_map op_keys plan)

(* The no-dangling rule: every value pointer in every tree (each leaf
   entry, a duplicate or stale one included) names a live block.  A
   pointer to a freed block still reads right until the block is
   reused, so no value check can see it; it surfaces only here. *)
let dangling_value env store =
  let live = Hashtbl.create 256 in
  H.iter_subheaps env.heap (fun sh ->
      Poseidon.Subheap.iter_blocks sh (fun ~off ~size:_ ~rec_addr:_ ~status ->
          if status = Poseidon.Layout.st_alloc then
            Hashtbl.replace live (sh.Poseidon.Subheap.index, off) ()));
  let bad = ref None in
  Service.Kv.iter_values store (fun ~key p ->
      if !bad = None && not (Hashtbl.mem live (p.Alloc_intf.subheap, p.Alloc_intf.off))
      then
        bad :=
          Some
            (Printf.sprintf "key %d names a freed block <%d:%#x>" key
               p.Alloc_intf.subheap p.Alloc_intf.off));
  !bad

(* Recovery oracle of every KV sweep, local and replicated: re-attach
   the *service* on [env]'s surviving heap — running the slot
   redo/rollback — then check that the allocator is still sane after
   replay mutated it, that no tree names a freed block, and the one
   acked-prefix rule: on every key of the preload-and-plan universe,
   the recovered store equals the plan-prefix state for SOME length
   m ∈ [acked, acked + window].  A crash may lose any suffix of the
   unacked window — the one in-flight op of a local sweep, the
   unacked ops of a commit group — but never an acked op, never
   anything beyond the window, and never part of an op: a transaction
   half-applied across shards matches no prefix.  (Chunks apply in
   plan order, so every legal crash state IS such a prefix.) *)
let kv_prefix_oracle ~window ~oname ~preload ~plan ~acked =
  let universe = universe_of ~preload ~plan in
  { oname;
    check =
      (fun env ->
        match Service.Kv.attach (Poseidon.instance env.heap) with
        | exception e ->
          Error ("service recovery raised: " ^ Printexc.to_string e)
        | s2, _recovery -> (
          (* replay mutated the heap; it must still be self-consistent *)
          match H.check_invariants env.heap with
          | exception Poseidon.Subheap.Invariant_violation m ->
            Error ("post-replay invariants: " ^ m)
          | () -> (
            let live = (H.stats env.heap).H.live_bytes
            and free = (H.stats env.heap).H.free_bytes
            and cap = H.data_capacity env.heap in
            if not (H.logs_quiescent env.heap) then
              Error "post-replay logs not quiescent"
            else if live + free <> cap then
              Error
                (Printf.sprintf
                   "post-replay leak: live %d + free %d <> capacity %d" live
                   free cap)
            else
              match dangling_value env s2 with
              | Some d -> Error ("dangling value: " ^ d)
              | None ->
                Service.Kv.check s2;
                let cks vs = Service.Kv.value_checksum s2 ~vseed:vs in
                let matches m =
                  let tbl = Hashtbl.create 32 in
                  List.iter (fun (k, vs) -> Hashtbl.replace tbl k vs) preload;
                  List.iteri (fun i o -> if i < m then apply_kv tbl o) plan;
                  List.for_all
                    (fun k ->
                      Service.Kv.get s2 ~key:k
                      = Option.map cks (Hashtbl.find_opt tbl k))
                    universe
                in
                let lo = !acked
                and hi = min (List.length plan) (!acked + window) in
                let rec any m = m <= hi && (matches m || any (m + 1)) in
                if any lo then Ok ()
                else
                  Error
                    (Printf.sprintf
                       "recovered store matches no plan prefix in [%d, %d]: \
                        an acked op was lost, an in-flight op was torn, or \
                        more than the window leaked"
                       lo hi)))) }

(* ---------- the one KV sweep driver ---------- *)

type kv_run = {
  store : Service.Kv.t;
  universe : int list;
  model : (int, int) Hashtbl.t;
  flag : string -> unit;
  ack : unit -> unit;
}

type kv_reads = { rname : string; noun : string; audit : kv_run -> int -> unit }

type kv_backup = { batch : int; repl_window : int; ack_early : bool }

type kv_scenario = {
  kname : string;
  mvcc_window : int;
  rcache_entries : int;
  wrap : Alloc_intf.instance -> Alloc_intf.instance;
  preload : (int * int) list;
  plan : kv_op list;
  slack : int;
  exec : kv_run -> int -> kv_op -> unit;
  reads : kv_reads option;
  prefix : string option;
  backup : kv_backup option;
  extra : oracle list;
}

(* A put or a delete runs as a commit group of one and is acked from
   its [on_chunk], at the chunk's commit point, where the server
   replies: the tree apply, the old-value free and the slot clear all
   run after the ack.  A transaction, and a delete of an absent key
   (which commits no chunk), is acked when it returns. *)
let kv_exec r _i o =
  let single op =
    let shard = Service.Kv.shard_of_key r.store (txn_op_key op) in
    ignore
      (Service.Kv.group_commit r.store ~shard [ op ]
         ~on_chunk:(fun ~fin:_ _ -> r.ack ()))
  in
  match o with
  | Kput (key, vseed) -> single (Service.Kv.Tput { key; vseed })
  | Kdel key -> single (Service.Kv.Tdel { key })
  | Ktxn ops -> ignore (Service.Kv.txn r.store ops)

(* The ledger snapshots [live_bytes] after each completed op (or
   group), so [slack] only has to cover what is in flight: for one op,
   one value block, one possible tree-node split and one not-yet-freed
   old value. *)
let kv_default =
  { kname = "";
    mvcc_window = 0;
    rcache_entries = 0;
    wrap = Fun.id;
    preload = [];
    plan = [];
    slack = 4096;
    exec = kv_exec;
    reads = None;
    prefix = Some "kv-store";
    backup = None;
    extra = [] }

(* The digest the completed-prefix model holds for [key]. *)
let expected r key =
  Option.map
    (fun vs -> Service.Kv.value_checksum r.store ~vseed:vs)
    (Hashtbl.find_opt r.model key)

(* The plan as commit groups: runs of up to [window] consecutive puts
   and deletes on one shard, as a server shard's inbox drains them; a
   transaction is a group of its own. *)
let kv_groups ~window plan =
  let shard = function
    | Kput (k, _) | Kdel k -> Some (Service.Kv.shard_of ~shards:2 k)
    | Ktxn _ -> None
  in
  List.fold_left
    (fun groups o ->
      match groups with
      | (o' :: _ as g) :: rest
        when List.length g < window && shard o <> None && shard o = shard o'
        ->
        (o :: g) :: rest
      | _ -> [ o ] :: groups)
    [] plan
  |> List.rev_map List.rev

(* Drive a replicated sweep: primary local persist → ship → backup
   apply/persist → cumulative ack, per commit group.  Puts and deletes
   commit as {!Service.Kv.group_commit} groups, each chunk shipped as
   one doorbell frame from [on_chunk]; a transaction ships its prepare
   and decide records from {!Service.Kv.txn}'s [on_commit].  [acked]
   advances a whole group at a time, once the backup's ack covers the
   group's records — or, with the seeded [ack_early] bug, before the
   group even runs. *)
let replicate k b ~acked ~settle ~mach ~primary ~backup =
  (* the sweep runs outside the simulation: the link has no latency *)
  let link = Net.create mach ~ports:[| (0, 256); (0, 256) |] () in
  let shipper = Replica.Shipper.create ~window:b.repl_window ~shards:2 ~link in
  let applier =
    Replica.Applier.create link ~shards:2 ~ack_batch:(b.batch > 1)
      ~apply:(Service.Kv.apply_replicated backup)
      ~apply_group:(Service.Kv.apply_replicated_group backup)
      ~held:(Service.Kv.backup_held backup)
  in
  let ship ~shard op = Replica.Shipper.ship shipper ~shard op in
  let single = function
    | Kput (key, vseed) -> Service.Kv.Tput { key; vseed }
    | Kdel key -> Service.Kv.Tdel { key }
    | Ktxn _ -> invalid_arg "Crashcheck: a transaction in a commit group"
  in
  fun env ->
    List.iter
      (fun group ->
        let n = List.length group in
        if b.ack_early then acked := !acked + n;
        (* (shard, seq) of every record this group shipped *)
        let shipped = ref [] in
        (match group with
         | [ Ktxn ops ] ->
           ignore
             (Service.Kv.txn primary ops ~on_commit:(fun res ->
                  List.iter
                    (fun (shard, op) ->
                      shipped := (shard, ship ~shard op) :: !shipped)
                    (Service.Kv.txn_records res);
                  ignore (Replica.Shipper.flush shipper)))
         | _ ->
           let ops = List.map single group in
           let shard =
             Service.Kv.shard_of_key primary (txn_op_key (List.hd ops))
           in
           ignore
             (Service.Kv.group_commit primary ~shard ops
                ~on_chunk:(fun ~fin:_ cops ->
                  List.iter
                    (fun op ->
                      let rop =
                        match op with
                        | Service.Kv.Tput { key; vseed } ->
                          Replica.Put { key; vseed }
                        | Service.Kv.Tdel { key } -> Replica.Del { key }
                      in
                      shipped := (shard, ship ~shard rop) :: !shipped)
                    cops;
                  ignore (Replica.Shipper.flush shipper))));
        if !shipped <> [] then begin
          Replica.Applier.pump applier ~until:(fun () ->
              Net.pending link ~port:Replica.backup_ep = 0);
          Replica.Shipper.poll_acks shipper;
          if
            List.exists
              (fun (shard, seq) -> Replica.Shipper.acked shipper ~shard < seq)
              !shipped
          then failwith (k.kname ^ " scenario: ack lost on a clean run")
        end;
        if not b.ack_early then acked := !acked + n;
        settle env)
      (kv_groups ~window:b.batch k.plan)

(* The one KV driver.  Set-up builds the store (with a backup, two:
   the backup's is [env], the machine the sweep recovers, and the
   primary's device rides in [aux_devs]) and preloads it.  A local
   sweep runs each plan op through [exec], which may advance [acked]
   once through [r.ack] while the op runs; when it returns, the op is
   acked if it was not yet, the completed-prefix model advances and
   the audit runs.  The read violations [exec] and the audit flag
   surface through the reads oracle at every crash point past them,
   naming the first. *)
let kv_sweep (k : kv_scenario) =
  let universe = universe_of ~preload:k.preload ~plan:k.plan in
  let acked = ref 0 and violations = ref [] in
  let drive = ref (fun (_ : env) -> ()) in
  let settle env = env.ledger.durable <- (H.stats env.heap).H.live_bytes in
  let store env =
    Service.Kv.create ~mvcc_window:k.mvcc_window
      ~rcache_entries:k.rcache_entries
      (k.wrap (Poseidon.instance env.heap))
      ~shards:2 ~value_size:64
  in
  let preload stores =
    List.iter
      (fun (key, vseed) ->
        if not (List.for_all (fun s -> Service.Kv.put s ~key ~vseed) stores)
        then failwith (k.kname ^ " scenario: preload put failed"))
      k.preload
  in
  let local s env =
    let model = Hashtbl.create 32 in
    List.iter (fun (key, vs) -> Hashtbl.replace model key vs) k.preload;
    let op_acked = ref false in
    let ack () =
      if not !op_acked then begin
        op_acked := true;
        incr acked
      end
    in
    let r =
      { store = s;
        universe;
        model;
        flag = (fun v -> violations := v :: !violations);
        ack }
    in
    List.iteri
      (fun i o ->
        op_acked := false;
        k.exec r i o;
        ack ();
        apply_kv model o;
        settle env;
        Option.iter (fun rd -> rd.audit r i) k.reads)
      k.plan
  in
  let setup () =
    let env = mk_env () in
    env.ledger.slack <- k.slack;
    let s = store env in
    (match k.backup with
     | None ->
       preload [ s ];
       drive := local s
     | Some b ->
       let penv = mk_env () in
       let p = store penv in
       preload [ p; s ];
       drive :=
         replicate k b ~acked ~settle ~mach:penv.mach ~primary:p ~backup:s;
       env.aux_devs <- [ Machine.dev penv.mach ];
       Memdev.drain (Machine.dev penv.mach));
    acked := 0;
    violations := [];
    settle env;
    finish_setup env
  in
  let reads_oracle rd =
    { oname = rd.rname;
      check =
        (fun _env ->
          match List.rev !violations with
          | [] -> Ok ()
          | v :: _ ->
            Error
              (Printf.sprintf "%d %s(s), first: %s" (List.length !violations)
                 rd.noun v)) }
  in
  let window = match k.backup with Some b -> b.batch | None -> 1 in
  let prefix_oracle oname =
    kv_prefix_oracle ~window ~oname ~preload:k.preload ~plan:k.plan ~acked
  in
  { sname = k.kname;
    setup;
    op = (fun env -> !drive env);
    extra_oracles =
      List.map reads_oracle (Option.to_list k.reads)
      @ List.map prefix_oracle (Option.to_list k.prefix)
      @ k.extra }

let kv_put_base =
  { kv_default with
    preload = [ (1, 101); (2, 102); (3, 103); (4, 104); (5, 105); (6, 106) ];
    plan =
      [ Kput (3, 201); Kput (9, 202); Kput (4, 203); Kput (10, 204);
        Kput (3, 205); Kput (11, 206) ] }

let scn_kv_put () = kv_sweep { kv_put_base with kname = "kv-put" }

let scn_kv_delete () =
  kv_sweep
    { kv_default with
      kname = "kv-delete";
      preload =
        [ (1, 111); (2, 112); (3, 113); (4, 114); (5, 115); (6, 116);
          (7, 117); (8, 118) ];
      plan = [ Kdel 2; Kdel 5; Kput (5, 222); Kdel 7; Kdel 99; Kdel 3; Kdel 5 ] }

(* Shard 0's keys (of [shards:2]) in ascending order: a plan built
   from them lands in one tree, so its leaves fill and shift. *)
let shard0_keys n =
  let rec go k acc n =
    if n = 0 then List.rev acc
    else if Service.Kv.shard_of ~shards:2 k = 0 then go (k + 1) (k :: acc) (n - 1)
    else go (k + 1) acc n
  in
  go 1 [] n

(* After recovery, delete every key of the universe: none may survive.
   A duplicate or stale leaf entry left by a crashed shift or split
   reads like the real one, so the prefix oracle passes it; a delete
   removes one copy and frees the value the other still names, so the
   survivor shows here. *)
let kv_delete_all_oracle ~universe () =
  { oname = "delete-all";
    check =
      (fun env ->
        match Service.Kv.attach (Poseidon.instance env.heap) with
        | exception e ->
          Error ("service recovery raised: " ^ Printexc.to_string e)
        | s2, _ -> (
          List.iter (fun k -> ignore (Service.Kv.delete s2 ~key:k)) universe;
          match List.find_opt (fun k -> Service.Kv.get s2 ~key:k <> None) universe with
          | Some k -> Error (Printf.sprintf "key %d still present after delete" k)
          | None ->
            let n = Service.Kv.count_keys s2 in
            if n = 0 then Ok ()
            else Error (Printf.sprintf "%d key(s) survive delete all" n))) }

(* A tree-repair sweep: the prefix oracle plus [delete-all]. *)
let kv_repair_sweep ~kname ~preload ~plan =
  kv_sweep
    { kv_default with
      kname;
      preload;
      plan;
      extra = [ kv_delete_all_oracle ~universe:(universe_of ~preload ~plan) () ] }

(* A FAST shift across a whole leaf: 20 keys on one shard, a put below
   all of them (every entry shifts right) and its delete (every entry
   shifts back).  A crash inside either shift leaves an adjacent
   duplicate, which recovery must repair before it redoes the op. *)
let scn_kv_shift () =
  let keys = shard0_keys 21 in
  let k0 = List.hd keys in
  kv_repair_sweep ~kname:"kv-shift"
    ~preload:(List.map (fun k -> (k, 800 + k)) (List.tl keys))
    ~plan:[ Kput (k0, 901); Kdel k0 ]

(* A FAIR split: a full leaf (31 keys on one shard) and a put into its
   middle.  A crash between the sibling link and the left count shrink
   leaves the left leaf holding the entries it copied right. *)
let scn_kv_split () =
  let keys = shard0_keys 32 in
  let mid = List.nth keys 16 in
  kv_repair_sweep ~kname:"kv-split"
    ~preload:
      (List.filter_map (fun k -> if k = mid then None else Some (k, 850 + k)) keys)
    ~plan:[ Kput (mid, 951) ]

(* A FAIR split at the right edge: a put past the last key of a full
   rightmost leaf (31 keys on one shard) splits it 27 / 4.  Then a put
   just below that append shifts inside the new right leaf, a second
   append lands there, and a delete of the first key shifts across the
   whole left leaf, which the split left 27 full. *)
let scn_kv_append_split () =
  let keys = Array.of_list (shard0_keys 34) in
  kv_repair_sweep ~kname:"kv-append-split"
    ~preload:(List.init 31 (fun i -> (keys.(i), 850 + keys.(i))))
    ~plan:
      [ Kput (keys.(32), 952); Kput (keys.(31), 953); Kput (keys.(33), 954);
        Kdel keys.(0) ]

(* Cross-shard transactions through 2PC on the shards' own slots.  Key
   shard map for [shards:2]: keys 2, 3, 7, 9 and 99 hash to shard 0;
   keys 1, 4, 5, 6, 11 and 17 to shard 1 — asserted below so a hash
   change cannot silently de-fang the plan.  The plan covers: a 2-put
   commit, a mixed delete+put commit with a two-op slice on one shard,
   a strict delete abort ([Tdel 99] — key absent, so the whole
   transaction must vanish), and a transaction all on shard 1, whose
   commit word that shard's own chunks also move (the delete after it
   does), interleaved with single ops. *)
let kv_txn_plan () =
  let s0 k = assert (Service.Kv.shard_of ~shards:2 k = 0)
  and s1 k = assert (Service.Kv.shard_of ~shards:2 k = 1) in
  List.iter s0 [ 2; 3; 7; 9; 99 ];
  List.iter s1 [ 1; 4; 5; 6; 11; 17 ];
  [ Ktxn
      [ Service.Kv.Tput { key = 3; vseed = 301 };
        Service.Kv.Tput { key = 4; vseed = 302 } ];
    Kput (9, 303);
    Ktxn
      [ Service.Kv.Tdel { key = 2 };
        Service.Kv.Tput { key = 11; vseed = 304 };
        Service.Kv.Tput { key = 7; vseed = 305 } ];
    Ktxn
      [ Service.Kv.Tput { key = 5; vseed = 306 };
        Service.Kv.Tdel { key = 99 } ];
    Ktxn
      [ Service.Kv.Tput { key = 1; vseed = 307 };
        Service.Kv.Tput { key = 17; vseed = 308 } ];
    Kdel 6 ]

let kv_txn_base =
  { kv_default with
    slack = 8192;
    preload = [ (1, 121); (2, 122); (3, 123); (4, 124); (5, 125); (6, 126) ] }

let scn_kv_txn () =
  kv_sweep { kv_txn_base with kname = "kv-txn"; plan = kv_txn_plan () }

(* The seeded 2PC bug: a transaction is prepared and applied with no
   decide between, so no decided word ever names it.  A crash between
   the participant applies leaves one shard published and rolls the
   other back (presumed abort): half a transaction.  Puts and deletes
   run as usual.  The checker MUST find a counterexample here — the
   mutation gate in scripts/check.sh fails CI if it does not. *)
let undecided_txn r i = function
  | Ktxn ops -> (
    match Service.Kv.txn_prepare r.store ops with
    | Ok prepared -> Service.Kv.txn_apply r.store prepared
    | Error _ -> ())
  | o -> kv_exec r i o

let scn_kv_txn_broken () =
  kv_sweep
    { kv_txn_base with
      kname = "kv-txn-broken";
      plan = kv_txn_plan ();
      exec = undecided_txn }

(* The seeded commit-word bug: between each transaction's decide and
   its apply, a put of a model key outside it (with the model's value)
   commits on its lowest participant's shard.  That chunk takes the
   shard's slot and moves the decided word that commits the
   transaction, so part of it never surfaces, and a crash before the
   apply rolls back the rest.  The checker MUST find a counterexample —
   the mutation gate in scripts/check.sh fails CI if it does not. *)
let chunk_inside_txn r i = function
  | Ktxn ops -> (
    match Service.Kv.txn_prepare r.store ops with
    | Error _ -> ()
    | Ok p ->
      ignore (Service.Kv.txn_decide r.store p);
      let c = fst (List.hd p.Service.Kv.parts) in
      Hashtbl.fold (fun k vs acc -> (k, vs) :: acc) r.model []
      |> List.sort compare
      |> List.find_opt (fun (k, _) ->
             Service.Kv.shard_of_key r.store k = c
             && not (List.mem k (List.map txn_op_key ops)))
      |> Option.iter (fun (key, vseed) ->
             ignore (Service.Kv.put r.store ~key ~vseed));
      Service.Kv.txn_apply r.store p)
  | o -> kv_exec r i o

let scn_kv_coord_broken () =
  kv_sweep
    { kv_txn_base with
      kname = "kv-coord-broken";
      plan = kv_txn_plan ();
      exec = chunk_inside_txn }

(* The seeded chunk-commit bug, in the allocator under the store: its
   [tx_commit] only records a debt, which the next [alloc], [tx_alloc]
   or [free] pays before its own work.  So a chunk's decided word is
   durable before its allocator commit.  A crash between the two
   redoes a slot whose value blocks the heap's replay has just freed:
   every value still reads right, so only the no-dangling check in the
   prefix oracle can flag it — the mutation gate in scripts/check.sh
   fails CI if it does not. *)
let deferred_commit inner =
  let (Alloc_intf.Instance ((module I), h)) = inner in
  let owed = ref false in
  let pay () =
    if !owed then begin
      owed := false;
      I.tx_commit h
    end
  in
  let module W = struct
    include I

    let tx_commit _ = owed := true

    let alloc h size =
      pay ();
      I.alloc h size

    let tx_alloc h size ~is_end =
      pay ();
      I.tx_alloc h size ~is_end

    let free h p =
      pay ();
      I.free h p
  end in
  Alloc_intf.Instance ((module W), h)

let scn_kv_commit_broken () =
  kv_sweep { kv_put_base with kname = "kv-commit-broken"; wrap = deferred_commit }

(* The seeded reply bug: an executor that acks each put when its
   chunk's allocator transaction commits, one fence before the decided
   word.  The values and the slot are durable there, but recovery
   rolls back a slot that its decided word does not name, so a crash
   between the two loses an acked put.  The acked-prefix oracle must
   flag it — the mutation gate in scripts/check.sh fails CI if it does
   not. *)
let scn_kv_ack_broken () =
  let on_tx_commit = ref ignore in
  let wrap inner =
    let (Alloc_intf.Instance ((module I), h)) = inner in
    let module W = struct
      include I

      let tx_commit h =
        !on_tx_commit ();
        I.tx_commit h
    end in
    Alloc_intf.Instance ((module W), h)
  in
  let exec r i o =
    on_tx_commit := r.ack;
    Fun.protect
      ~finally:(fun () -> on_tx_commit := ignore)
      (fun () -> kv_exec r i o)
  in
  kv_sweep { kv_put_base with kname = "kv-ack-broken"; wrap; exec }

(* MVCC read-path sweep: the kv-put/delete/txn op mix again, but on a
   store with a version window, and after every completed operation the
   audit mints a snapshot and checks it against the completed-prefix
   model — every key in the universe via [snapshot_get] and the whole
   keyspace via one multi-shard [snapshot_scan].  A stale, torn or
   phantom read surfaces through the [snapshot-reads] oracle.  Recovery
   is still checked by the prefix oracle: version chains are volatile
   DRAM, so a crash must leave the re-attached store indistinguishable
   from the no-MVCC sweeps. *)
let snapshot_audit r i =
  let s = r.store in
  let ts = Service.Kv.snapshot s in
  List.iter
    (fun k ->
      if Service.Kv.snapshot_get s ~ts ~key:k <> expected r k then
        r.flag
          (Printf.sprintf
             "after op %d: snapshot_get key %d disagrees with the \
              completed-prefix model"
             i k))
    r.universe;
  let want_scan =
    Hashtbl.fold
      (fun k vs acc -> (k, Service.Kv.value_checksum s ~vseed:vs) :: acc)
      r.model []
    |> List.sort compare
  and got_scan = ref [] in
  let n =
    Service.Kv.snapshot_scan s ~ts ~from_key:1 ~n:64 (fun k d ->
        got_scan := (k, d) :: !got_scan)
  in
  if List.rev !got_scan <> want_scan || n <> List.length want_scan then
    r.flag
      (Printf.sprintf
         "after op %d: snapshot_scan visited %d entr(ies), model has %d, or \
          contents/order differ"
         i n (List.length want_scan))

let scn_kv_snapshot () =
  kv_sweep
    { kv_default with
      kname = "kv-snapshot";
      mvcc_window = 4;
      slack = 8192;
      preload = [ (1, 151); (2, 152); (3, 153); (4, 154); (5, 155); (6, 156) ];
      plan =
        [ Kput (3, 501); Kput (9, 502); Kdel 2;
          Ktxn
            [ Service.Kv.Tput { key = 5; vseed = 503 };
              Service.Kv.Tput { key = 7; vseed = 504 } ];
          Kput (3, 505); Kdel 5; Kput (10, 506) ];
      reads =
        Some
          { rname = "snapshot-reads";
            noun = "stale/torn snapshot read";
            audit = snapshot_audit } }

(* The seeded MVCC bug: each transaction runs prepare → apply →
   snapshot → decide, so its versions are public before its decided
   word persists.  The snapshot between apply and decide reads values
   no committed history contains, so the [snapshot-reads] oracle must
   produce counterexamples — the mutation gate in scripts/check.sh
   fails CI when the checker stays green. *)
let staged_txn r i = function
  | Ktxn ops -> (
    match Service.Kv.txn_prepare r.store ops with
    | Error _ -> failwith "mvcc-broken scenario: prepare aborted"
    | Ok prepared ->
      Service.Kv.txn_apply r.store prepared;
      (* the transaction is still undecided: no snapshot may see its
         writes yet *)
      let ts = Service.Kv.snapshot r.store in
      List.iter
        (fun top ->
          let k = txn_op_key top in
          if Service.Kv.snapshot_get r.store ~ts ~key:k <> expected r k then
            r.flag
              (Printf.sprintf "txn %d: snapshot observed undecided write to key %d"
                 i k))
        ops;
      ignore (Service.Kv.txn_decide r.store prepared))
  | Kput _ | Kdel _ -> invalid_arg "mvcc-broken scenario: transactions only"

let scn_mvcc_broken () =
  kv_sweep
    { kv_default with
      kname = "mvcc-broken";
      mvcc_window = 4;
      slack = 8192;
      preload = [ (3, 161); (4, 162); (5, 163) ];
      plan =
        [ Ktxn
            [ Service.Kv.Tput { key = 3; vseed = 601 };
              Service.Kv.Tput { key = 4; vseed = 602 } ];
          Ktxn
            [ Service.Kv.Tput { key = 5; vseed = 603 };
              Service.Kv.Tput { key = 7; vseed = 604 } ] ];
      exec = staged_txn;
      reads =
        Some
          { rname = "snapshot-reads";
            noun = "uncommitted-read violation";
            audit = (fun _ _ -> ()) };
      prefix = None }

(* DRAM read-cache sweep: the kv-snapshot op mix on a store with both a
   version window and a read cache ([rcache_entries:4] per shard —
   smaller than the plan's per-shard keyspace, so the audits force CLOCK
   evictions).  After every completed operation the audit checks the
   completed-prefix model twice: every key in the universe through the
   cached plain-[get] path (the first audit after a mutation reads
   through and re-fills; the cache must never answer with a digest the
   store no longer holds) and again through a fresh snapshot, which may
   answer from the cache only when the cached version's timestamp admits
   it.  A stale cached digest surfaces through the [cached-reads]
   oracle.  Recovery is still checked by the prefix oracle: the cache is
   volatile DRAM, so a crash must leave the re-attached store
   indistinguishable from the uncached sweeps. *)
let rcache_audit r i =
  List.iter
    (fun k ->
      if Service.Kv.get r.store ~key:k <> expected r k then
        r.flag
          (Printf.sprintf
             "after op %d: cached get of key %d disagrees with the \
              completed-prefix model"
             i k))
    r.universe;
  let ts = Service.Kv.snapshot r.store in
  List.iter
    (fun k ->
      if Service.Kv.snapshot_get r.store ~ts ~key:k <> expected r k then
        r.flag
          (Printf.sprintf
             "after op %d: snapshot_get of key %d disagrees with the \
              completed-prefix model (cache admitted a wrong version)"
             i k))
    r.universe

let kv_rcache_base =
  { kv_default with
    mvcc_window = 4;
    rcache_entries = 4;
    slack = 8192;
    preload = [ (1, 171); (2, 172); (3, 173); (4, 174); (5, 175); (6, 176) ];
    plan =
      [ Kput (3, 701); Kput (9, 702); Kdel 2;
        Ktxn
          [ Service.Kv.Tput { key = 5; vseed = 703 };
            Service.Kv.Tput { key = 7; vseed = 704 } ];
        Kput (3, 705); Kdel 5; Kput (10, 706); Kput (9, 707) ];
    reads =
      Some
        { rname = "cached-reads";
          noun = "stale cached read";
          audit = rcache_audit } }

let scn_kv_rcache_put () = kv_sweep { kv_rcache_base with kname = "kv-rcache-put" }

(* The seeded cache bug, written against the store's cache from
   outside: invalidate after reply.  Before each op the executor notes
   which of the op's keys are cached, with the digest the model holds;
   after the op it puts those digests back (vts 0: every snapshot
   admits them), and only when the next op starts does it invalidate
   them.  Between an op's return and the next op the cache serves the
   overwritten or deleted digest.  The audits read exactly that window,
   so the [cached-reads] oracle must produce counterexamples — the
   mutation gate in scripts/check.sh fails CI when the checker stays
   green. *)
let late_invalidate () =
  let stale = ref [] in
  fun r i o ->
    let rc = Service.Kv.rcache r.store in
    (* op 0 starts a new run on a new store *)
    if i = 0 then stale := [];
    List.iter (fun (shard, key, _) -> Rcache.invalidate rc ~shard ~key) !stale;
    stale :=
      List.filter_map
        (fun key ->
          let shard = Service.Kv.shard_of_key r.store key in
          match expected r key with
          | Some digest when Rcache.mem rc ~shard ~key -> Some (shard, key, digest)
          | _ -> None)
        (op_keys o);
    kv_exec r i o;
    List.iter
      (fun (shard, key, digest) -> Rcache.insert rc ~shard ~key ~digest ~vts:0)
      !stale

let scn_rcache_broken () =
  kv_sweep
    { kv_rcache_base with kname = "rcache-broken"; exec = late_invalidate () }

(* Sweep the full sync-replication pipeline at window 1: each op is a
   commit group of one on the primary, shipped as a frame of one, then
   applied, persisted and acked per record on the backup.  The whole
   cluster loses power at each point; recovery attaches the BACKUP
   ([env.mach]) — primary loss is the failure replication exists for —
   and the prefix oracle asserts the backup store equals the acked
   prefix: any write acked in sync mode survives the primary's death,
   and the in-flight record is atomic. *)
let scn_kv_replicated_put () =
  kv_sweep
    { kv_default with
      kname = "kv-replicated-put";
      preload = [ (1, 131); (2, 132); (3, 133); (4, 134) ];
      plan =
        [ Kput (3, 301);
          Kput (9, 302);
          Kdel 2;
          (* a committed cross-shard transaction rides the same streams
             as a Txn_prepare + Txn_decide pair per participant shard *)
          Ktxn
            [ Service.Kv.Tput { key = 5; vseed = 304 };
              Service.Kv.Tput { key = 7; vseed = 305 } ];
          Kput (10, 303) ];
      prefix = Some "kv-replica";
      backup = Some { batch = 1; repl_window = 8; ack_early = false } }

(* Sweep the batched pipeline end to end: group commit (one covering
   persist chain per chunk) → doorbell frame per chunk → batched
   applier with cumulative acks.  All keys sit on shard 0 of 2
   (asserted), so every commit group fills its window; the windowed
   prefix oracle asserts the loss bound: a crash mid-group loses at
   most the unacked window, never an acked op.  [ack_early] is the
   seeded bug for the mutation gate: the driver claims the group
   durable BEFORE executing/flushing it — acks ahead of the covering
   flush — which the checker must flag. *)
let scn_kv_batched ~window ~ack_early ~kname =
  let plan =
    [ Kput (3, 401); Kput (9, 402); Kdel 2; Kput (10, 403); Kput (3, 404);
      Kdel 99; Kput (2, 405); Kdel 8; Kput (7, 406); Kput (99, 407) ]
  in
  assert (
    List.for_all
      (fun k -> Service.Kv.shard_of ~shards:2 k = 0)
      (universe_of ~preload:[] ~plan));
  kv_sweep
    { kv_default with
      kname;
      slack = 4096 + (1024 * window);
      preload = [ (2, 141); (3, 142); (7, 143); (8, 144) ];
      plan;
      prefix = Some "kv-batched";
      backup =
        Some { batch = window; repl_window = 32; ack_early } }

let scn_kv_batched_put ?(window = 4) () =
  scn_kv_batched ~window ~ack_early:false ~kname:"kv-batched-put"

let scn_kv_batched_broken () =
  scn_kv_batched ~window:4 ~ack_early:true ~kname:"kv-batched-broken"

(* ---------- magazine-cache sweep (lib/tcache) ---------- *)

(* Allocator-level census for the cached-allocation sweeps: after heap
   recovery (which frees every ledger-leased block) AND service replay
   (which resolves the in-flight chunk), every live block of the
   value class must be referenced by exactly one present key — the
   recovered store itself is the reference model, so the oracle holds
   at every crash point regardless of where the sweep cut.  A cache
   that recycles a freed block before its reclaim lease persisted
   orphans a value block here (block count > present keys): the
   failure mode the [tcache-broken] scenario plants. *)
let kv_value_census_oracle ~value_size ~universe () =
  { oname = "value-census";
    check =
      (fun env ->
        let inst = Poseidon.instance env.heap in
        match Service.Kv.attach inst with
        | exception e ->
          Error ("service recovery raised: " ^ Printexc.to_string e)
        | s2, _recovery ->
          let present =
            List.fold_left
              (fun a k -> if Service.Kv.get s2 ~key:k <> None then a + 1 else a)
              0 universe
          in
          let rsize = round_up value_size in
          let blocks = ref 0 in
          H.iter_subheaps env.heap (fun sh ->
              Poseidon.Subheap.iter_blocks sh
                (fun ~off:_ ~size ~rec_addr:_ ~status ->
                  if status = Poseidon.Layout.st_alloc && size = rsize then
                    incr blocks));
          if !blocks = present then Ok ()
          else
            Error
              (Printf.sprintf
                 "%d live %d-byte value block(s) for %d present key(s): a \
                  freed block was recycled before its reclaim persisted \
                  (leak), or a refilled block leaked its lease"
                 !blocks rsize present)) }

(* The kv-put/delete/overwrite mix again, allocated through a magazine
   cache (mag 4): refills carve 4-block batches under ledger leases,
   puts pop volatile bins and publish at the commit fence, frees stash
   a reclaim lease and recycle.  Slack widened: the durability ledger
   snapshots [live_bytes] with bins resident (leased blocks are live
   until crash recovery frees them), so up to 2 x mag blocks of each
   cached class (64 B values, 512 B tree nodes) plus one in-flight
   carve sit between the snapshot and the recovered heap. *)
let kv_tcache ~kname ~wrap ~preload ~plan =
  kv_sweep
    { kv_default with
      kname;
      wrap;
      slack = 12288;
      preload;
      plan;
      extra =
        [ kv_value_census_oracle ~value_size:64
            ~universe:(universe_of ~preload ~plan) () ] }

let magazine inst = fst (Tcache.wrap ~mag:4 inst)

let scn_kv_tcache_put () =
  kv_tcache ~kname:"kv-tcache-put" ~wrap:magazine
    ~preload:[ (1, 161); (2, 162); (3, 163); (4, 164); (5, 165); (6, 166) ]
    ~plan:
      [ Kput (3, 601); Kput (9, 602); Kdel 2; Kput (10, 603); Kput (3, 604);
        Kdel 5; Kput (11, 605); Kput (9, 606) ]

(* The seeded cache bug, in the cache surface under the magazine: the
   allocator remembers the size of every block it carves, and a free
   of such a block is answered with lease -1 and nothing written, so
   the block recycles into a bin with no reclaim lease and no
   persistent free.  A crash between the store dropping its reference
   and the recycled copy's new reference persisting orphans the block.
   The wrap keeps its leaseless blocks to itself: a publish drops
   them, and a flush frees them one by one through the allocator's
   plain [free].  The checker MUST flag this — the mutation gate in
   scripts/check.sh fails CI if it does not. *)
let leaseless_stash inner =
  let (Alloc_intf.Instance ((module I), h)) = inner in
  let carved = Hashtbl.create 64 in
  let at (p : Alloc_intf.nvmptr) = (p.subheap, p.off) in
  let leased (b : Alloc_intf.cache_block) = b.cb_lease >= 0 in
  let module W = struct
    include I

    let cache_ops h =
      Option.map
        (fun (ops : Alloc_intf.cache_ops) ->
          { ops with
            cache_carve =
              (fun ~size ~count ->
                let blocks = ops.cache_carve ~size ~count in
                List.iter
                  (fun b -> Hashtbl.replace carved (at b.Alloc_intf.cb_ptr) size)
                  blocks;
                blocks);
            cache_publish =
              (fun blocks -> ops.cache_publish (List.filter leased blocks));
            cache_stash =
              (fun p ->
                match Hashtbl.find_opt carved (at p) with
                | Some size -> Some (-1, size)
                | None -> ops.cache_stash p);
            cache_reclaim =
              (fun blocks ->
                let kept, leaseless = List.partition leased blocks in
                ops.cache_reclaim kept;
                List.iter (fun b -> I.free h b.Alloc_intf.cb_ptr) leaseless) })
        (I.cache_ops h)
  end in
  Alloc_intf.Instance ((module W), h)

(* Twelve preloaded values are three whole carves, so the 64 B bin is
   empty when the deletes start; the ninth delete's leaseless stash
   takes it past twice the magazine, and the flush frees five
   leaseless blocks through the wrap's plain [free]. *)
let scn_kv_tcache_broken () =
  kv_tcache ~kname:"tcache-broken"
    ~wrap:(fun inst -> magazine (leaseless_stash inst))
    ~preload:(List.init 12 (fun i -> (i + 1, 171 + i)))
    ~plan:(List.init 9 (fun i -> Kdel (i + 1)))

(* Every built-in scenario by name: the correct ones in sweep order,
   then the seeded bugs ([true]), which [all_scenarios] leaves out. *)
let scenarios =
  [ ("alloc", scn_alloc, false);
    ("free", scn_free, false);
    ("tx-commit", scn_tx_commit, false);
    ("tx-abort", scn_tx_abort, false);
    ("extend", scn_extend, false);
    ("kv-put", scn_kv_put, false);
    ("kv-delete", scn_kv_delete, false);
    ("kv-shift", scn_kv_shift, false);
    ("kv-split", scn_kv_split, false);
    ("kv-append-split", scn_kv_append_split, false);
    ("kv-txn", scn_kv_txn, false);
    ("kv-snapshot", scn_kv_snapshot, false);
    ("kv-rcache-put", scn_kv_rcache_put, false);
    ("kv-replicated-put", scn_kv_replicated_put, false);
    ("kv-batched-put", (fun () -> scn_kv_batched_put ()), false);
    ("kv-tcache-put", scn_kv_tcache_put, false);
    ("carve", scn_carve, false);
    ("carve-tombstones", scn_carve_tombstones, false);
    ("broken", scn_broken_missing_flush, true);
    ("kv-commit-broken", scn_kv_commit_broken, true);
    ("kv-ack-broken", scn_kv_ack_broken, true);
    ("kv-txn-broken", scn_kv_txn_broken, true);
    ("kv-coord-broken", scn_kv_coord_broken, true);
    ("mvcc-broken", scn_mvcc_broken, true);
    ("rcache-broken", scn_rcache_broken, true);
    ("kv-batched-broken", scn_kv_batched_broken, true);
    ("tcache-broken", scn_kv_tcache_broken, true) ]

let all_scenarios () =
  List.filter_map
    (fun (_, mk, seeded_bug) -> if seeded_bug then None else Some (mk ()))
    scenarios

let scenario_by_name name =
  List.find_map
    (fun (n, mk, _) -> if n = name then Some (mk ()) else None)
    scenarios
