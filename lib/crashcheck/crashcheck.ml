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
  let c name = Obs.Metrics.counter ~scope:"crashcheck" name in
  let c_points = c "points_explored"
  and c_subsets = c "subsets_tried"
  and c_verified = c "recoveries_verified"
  and c_cex = c "counterexamples" in
  let fences_total = measure scn in
  (* +1: the point past the last fence crashes after [op] completed *)
  let points = stride_sample (fences_total + 1) max_points in
  let subsets = ref 0 and verified = ref 0 and cexs = ref [] in
  List.iter
    (fun point ->
      Obs.Metrics.incr c_points;
      let modes =
        Dirty_lost_all
        :: List.init subsets_per_point (fun s ->
               Dirty_subset (subset_seed ~seed ~point s))
      in
      List.iter
        (fun mode ->
          (match mode with
           | Dirty_subset _ ->
             incr subsets;
             Obs.Metrics.incr c_subsets
           | Dirty_lost_all -> ());
          match check_point scn ~point ~mode with
          | None ->
            incr verified;
            Obs.Metrics.incr c_verified
          | Some cx ->
            Obs.Metrics.incr c_cex;
            cexs := cx :: !cexs)
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

(* A magazine refill split into runs: set-up leaves a three-block
   (192 B) hole bounded by a live right neighbour, so one carve of
   eight 64 B blocks takes the whole hole as one run, relinking the
   neighbour's [prev], and the rest as a second run off the
   wilderness.  Until the publish starts the ledger allows no slack:
   a crash anywhere in the carve must recover to the pre-carve live
   bytes, every lease reclaimed. *)
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
    op =
      (fun env ->
        let ops = Option.get (H.cache_ops env.heap) in
        let blocks = ops.Alloc_intf.cache_carve ~size:64 ~count:8 in
        (* the lease clears share one fence, so a crash may persist
           any subset of them *)
        let bytes = 64 * List.length blocks in
        env.ledger.slack <- bytes;
        ops.Alloc_intf.cache_publish blocks;
        env.ledger.durable <- env.ledger.durable + bytes;
        env.ledger.slack <- 0);
    extra_oracles =
      [ { oname = "ledger-reclaimed";
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
                  (Printf.sprintf
                     "%d reclaim-ledger lease(s) still armed after recovery"
                     !armed)) } ] }

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

(* Recovery oracle shared by the local and the replicated KV sweeps:
   re-attach the *service* on [env]'s surviving heap — running the
   slot redo/rollback — then check four things: the allocator is still
   sane after replay mutated it, no tree names a freed block, the
   store matches the acked prefix of [plan] applied over [preload]
   exactly, and the one in-flight operation is atomic (its key reads
   as either the pre- or the post-state, never a torn value).

   [window] (default 1) generalizes the prefix rule to group commit:
   with up to [window] ops in flight beyond the acked prefix, the
   recovered store must equal the plan-prefix state for SOME length
   m ∈ [acked, acked + window] — a crash mid-batch may lose any
   suffix of the unacked window, but never an acked op and never
   anything beyond the window.  (Chunks apply in plan order, so every
   legal crash state IS such a prefix.) *)
let kv_prefix_oracle ?(window = 1) ~oname ~preload ~plan ~acked () =
  { oname;
    check =
      (fun env ->
        let inst = Poseidon.instance env.heap in
        match Service.Kv.attach inst with
        | exception e ->
          Error ("service recovery raised: " ^ Printexc.to_string e)
        | s2, _recovery -> (
          (* replay mutated the heap; it must still be self-consistent *)
          match H.check_invariants env.heap with
          | exception Poseidon.Subheap.Invariant_violation m ->
            Error ("post-replay invariants: " ^ m)
          | () ->
            if not (H.logs_quiescent env.heap) then
              Error "post-replay logs not quiescent"
            else begin
              let live = (H.stats env.heap).H.live_bytes
              and free = (H.stats env.heap).H.free_bytes
              and cap = H.data_capacity env.heap in
              let dangling = dangling_value env s2 in
              if live + free <> cap then
                Error
                  (Printf.sprintf
                     "post-replay leak: live %d + free %d <> capacity %d"
                     live free cap)
              else if Option.is_some dangling then
                Error ("dangling value: " ^ Option.get dangling)
              else if window > 1 then begin
                Service.Kv.check s2;
                let universe = Hashtbl.create 32 in
                List.iter (fun (k, _) -> Hashtbl.replace universe k ()) preload;
                List.iter
                  (function
                    | Kput (k, _) | Kdel k -> Hashtbl.replace universe k ()
                    | Ktxn ops ->
                      List.iter
                        (fun o -> Hashtbl.replace universe (txn_op_key o) ())
                        ops)
                  plan;
                let cks vs = Service.Kv.value_checksum s2 ~vseed:vs in
                let matches m =
                  let tbl = Hashtbl.create 32 in
                  List.iter (fun (k, vs) -> Hashtbl.replace tbl k vs) preload;
                  List.iteri (fun i o -> if i < m then apply_kv tbl o) plan;
                  Hashtbl.fold
                    (fun k () ok ->
                      ok
                      && Service.Kv.get s2 ~key:k
                         = Option.map cks (Hashtbl.find_opt tbl k))
                    universe true
                in
                let lo = !acked
                and hi = min (List.length plan) (!acked + window) in
                let rec any m = m <= hi && (matches m || any (m + 1)) in
                if any lo then Ok ()
                else
                  Error
                    (Printf.sprintf
                       "recovered store matches no plan prefix in [%d, %d]: \
                        an acked op was lost or more than the batch window \
                        leaked"
                       lo hi)
              end
              else begin
                Service.Kv.check s2;
                let pre = Hashtbl.create 32 in
                List.iter (fun (k, vs) -> Hashtbl.replace pre k vs) preload;
                List.iteri
                  (fun i o -> if i < !acked then apply_kv pre o)
                  plan;
                let in_flight =
                  if !acked < List.length plan then
                    Some (List.nth plan !acked)
                  else None
                in
                let post = Hashtbl.copy pre in
                Option.iter (apply_kv post) in_flight;
                let in_flight_keys =
                  match in_flight with
                  | Some (Kput (k, _)) | Some (Kdel k) -> [ k ]
                  | Some (Ktxn ops) -> List.map txn_op_key ops
                  | None -> []
                in
                let keys = Hashtbl.create 32 in
                Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) pre;
                Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) post;
                List.iter (fun k -> Hashtbl.replace keys k ()) in_flight_keys;
                let cks vs = Service.Kv.value_checksum s2 ~vseed:vs in
                let err = ref None in
                (* settled keys read exactly the acked-prefix state *)
                Hashtbl.iter
                  (fun k () ->
                    if !err = None && not (List.mem k in_flight_keys)
                    then begin
                      let got = Service.Kv.get s2 ~key:k in
                      let want = Option.map cks (Hashtbl.find_opt pre k) in
                      if got <> want then
                        err :=
                          Some
                            (Printf.sprintf
                               "key %d: recovered store disagrees with the \
                                acked-prefix ledger (%d op(s) acked)"
                               k !acked)
                    end)
                  keys;
                (* the in-flight op is atomic as a unit: EVERY key it
                   touches reads as pre-state, or EVERY key as
                   post-state — for a cross-shard transaction this is
                   exactly whole-transaction atomicity, ruling out a
                   half-applied commit *)
                if !err = None && in_flight_keys <> [] then begin
                  let gots =
                    List.map
                      (fun k -> (k, Service.Kv.get s2 ~key:k))
                      in_flight_keys
                  in
                  let matches tbl =
                    List.for_all
                      (fun (k, got) ->
                        got = Option.map cks (Hashtbl.find_opt tbl k))
                      gots
                  in
                  if not (matches pre || matches post) then
                    err :=
                      Some
                        (Printf.sprintf
                           "in-flight op torn across its %d key(s) (%d \
                            op(s) acked): neither all-pre nor all-post"
                           (List.length in_flight_keys)
                           !acked)
                end;
                match !err with Some m -> Error m | None -> Ok ()
              end
            end)) }

(* Drive the KV store's write path through the sweep.  The ledger
   snapshots [live_bytes] after each completed operation, so [slack]
   only has to cover the single in-flight op: one value block, one
   possible tree-node split and one not-yet-freed old value. *)
let scn_kv ?(slack = 4096) ?(wrap = fun (i : Alloc_intf.instance) -> i)
    ?(extra = []) ?(tweak = fun (_ : Service.Kv.t) -> ()) ~sname ~preload
    ~plan () =
  let svc = ref None in
  let acked = ref 0 in
  let value_size = 64 in
  let setup () =
    let env = mk_env () in
    env.ledger.slack <- slack;
    let inst = wrap (Poseidon.instance env.heap) in
    let s = Service.Kv.create inst ~shards:2 ~value_size in
    List.iter
      (fun (k, vs) ->
        if not (Service.Kv.put s ~key:k ~vseed:vs) then
          failwith "kv scenario: preload put failed")
      preload;
    tweak s;
    svc := Some s;
    acked := 0;
    env.ledger.durable <- (H.stats env.heap).H.live_bytes;
    finish_setup env
  in
  let op env =
    let s = Option.get !svc in
    List.iter
      (fun o ->
        (match o with
         | Kput (k, vs) -> ignore (Service.Kv.put s ~key:k ~vseed:vs)
         | Kdel k -> ignore (Service.Kv.delete s ~key:k)
         | Ktxn ops -> ignore (Service.Kv.txn s ops));
        incr acked;
        env.ledger.durable <- (H.stats env.heap).H.live_bytes)
      plan
  in
  let o_kv = kv_prefix_oracle ~oname:"kv-store" ~preload ~plan ~acked () in
  { sname; setup; op; extra_oracles = o_kv :: extra }

let kv_put_preload = [ (1, 101); (2, 102); (3, 103); (4, 104); (5, 105); (6, 106) ]

let kv_put_plan =
  [ Kput (3, 201); Kput (9, 202); Kput (4, 203); Kput (10, 204);
    Kput (3, 205); Kput (11, 206) ]

let scn_kv_put () =
  scn_kv ~sname:"kv-put" ~preload:kv_put_preload ~plan:kv_put_plan ()

let scn_kv_delete () =
  scn_kv ~sname:"kv-delete"
    ~preload:
      [ (1, 111); (2, 112); (3, 113); (4, 114); (5, 115); (6, 116);
        (7, 117); (8, 118) ]
    ~plan:[ Kdel 2; Kdel 5; Kput (5, 222); Kdel 7; Kdel 99; Kdel 3; Kdel 5 ]
    ()

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

let universe_of ~preload ~plan =
  List.sort_uniq compare
    (List.map fst preload
    @ List.concat_map
        (function
          | Kput (k, _) | Kdel k -> [ k ]
          | Ktxn ops -> List.map txn_op_key ops)
        plan)

(* A FAST shift across a whole leaf: 20 keys on one shard, a put below
   all of them (every entry shifts right) and its delete (every entry
   shifts back).  A crash inside either shift leaves an adjacent
   duplicate, which recovery must repair before it redoes the op. *)
let scn_kv_shift () =
  let keys = shard0_keys 21 in
  let preload = List.map (fun k -> (k, 800 + k)) (List.tl keys) in
  let k0 = List.hd keys in
  let plan = [ Kput (k0, 901); Kdel k0 ] in
  scn_kv ~sname:"kv-shift" ~preload ~plan
    ~extra:[ kv_delete_all_oracle ~universe:(universe_of ~preload ~plan) () ]
    ()

(* A FAIR split: a full leaf (31 keys on one shard) and a put into its
   middle.  A crash between the sibling link and the left count shrink
   leaves the left leaf holding the entries it copied right. *)
let scn_kv_split () =
  let keys = shard0_keys 32 in
  let mid = List.nth keys 16 in
  let preload =
    List.filter_map (fun k -> if k = mid then None else Some (k, 850 + k)) keys
  in
  let plan = [ Kput (mid, 951) ] in
  scn_kv ~sname:"kv-split" ~preload ~plan
    ~extra:[ kv_delete_all_oracle ~universe:(universe_of ~preload ~plan) () ]
    ()

(* Cross-shard transactions through the 2PC coordinator-record
   protocol.  Key shard map for [shards:2]: keys 2, 3, 7, 8, 9, 10 and
   99 hash to shard 0; keys 1, 4, 5, 6 and 11 to shard 1 — asserted
   below so a hash change cannot silently de-fang the plan.  The plan
   crosses shards in every transaction and covers: a 2-put commit, a
   mixed delete+put commit with a two-op slot on one shard, a strict
   delete abort ([Tdel 99] — key absent, so the whole transaction must
   vanish), interleaved with single ops so the commit slots and the
   participant slots coexist at crash points. *)
let kv_txn_plan () =
  let s0 k = assert (Service.Kv.shard_of ~shards:2 k = 0)
  and s1 k = assert (Service.Kv.shard_of ~shards:2 k = 1) in
  List.iter s0 [ 2; 3; 7; 9; 99 ];
  List.iter s1 [ 1; 4; 5; 6; 11 ];
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
    Kdel 6 ]

let kv_txn_preload =
  [ (1, 121); (2, 122); (3, 123); (4, 124); (5, 125); (6, 126) ]

let scn_kv_txn () =
  scn_kv ~sname:"kv-txn" ~slack:8192 ~preload:kv_txn_preload
    ~plan:(kv_txn_plan ()) ()

(* The seeded 2PC bug: the coordinator forgets to flush the decision
   record, so a crash between the participant applies can surface half
   a transaction.  The checker MUST find a counterexample here — the
   mutation gate in scripts/check.sh fails CI if it does not. *)
let scn_kv_txn_broken () =
  scn_kv ~sname:"kv-txn-broken" ~slack:8192
    ~tweak:Service.Kv.txn_break_decision_persist ~preload:kv_txn_preload
    ~plan:(kv_txn_plan ()) ()

(* The seeded commit-slot bug: the chunk's decided word rides its
   slot's fence, so it is durable before the allocator commit.  A
   crash between the two redoes a slot whose value blocks the heap's
   replay has just freed: every value still reads right, so only the
   no-dangling check in the prefix oracle can flag it — the mutation
   gate in scripts/check.sh fails CI if it does not. *)
let scn_kv_commit_broken () =
  scn_kv ~sname:"kv-commit-broken" ~tweak:Service.Kv.txn_break_decision_persist
    ~preload:kv_put_preload ~plan:kv_put_plan ()

(* MVCC read-path sweep: the kv-put/delete/txn op mix again, but on a
   store with a version window, and after every completed operation the
   driver mints a snapshot and audits it against the completed-prefix
   model — every key in the universe via [snapshot_get] and the whole
   keyspace via one multi-shard [snapshot_scan].  A stale, torn or
   phantom read is recorded as a violation and surfaces through the
   [snapshot-reads] oracle at every crash point past the offending op,
   naming that op.  Recovery is still checked by the standard prefix
   oracle: version chains are volatile DRAM, so a crash must leave the
   re-attached store indistinguishable from the no-MVCC sweeps. *)
let scn_kv_snapshot () =
  let preload =
    [ (1, 151); (2, 152); (3, 153); (4, 154); (5, 155); (6, 156) ]
  in
  let plan =
    [ Kput (3, 501); Kput (9, 502); Kdel 2;
      Ktxn
        [ Service.Kv.Tput { key = 5; vseed = 503 };
          Service.Kv.Tput { key = 7; vseed = 504 } ];
      Kput (3, 505); Kdel 5; Kput (10, 506) ]
  in
  let universe = universe_of ~preload ~plan in
  let svc = ref None in
  let acked = ref 0 in
  let violations = ref [] in
  let setup () =
    let env = mk_env () in
    env.ledger.slack <- 8192;
    let inst = Poseidon.instance env.heap in
    let s = Service.Kv.create ~mvcc_window:4 inst ~shards:2 ~value_size:64 in
    List.iter
      (fun (k, vs) ->
        if not (Service.Kv.put s ~key:k ~vseed:vs) then
          failwith "kv-snapshot scenario: preload put failed")
      preload;
    svc := Some s;
    acked := 0;
    violations := [];
    env.ledger.durable <- (H.stats env.heap).H.live_bytes;
    finish_setup env
  in
  let op env =
    let s = Option.get !svc in
    let model = Hashtbl.create 32 in
    List.iter (fun (k, vs) -> Hashtbl.replace model k vs) preload;
    let cks vs = Service.Kv.value_checksum s ~vseed:vs in
    let audit i =
      let ts = Service.Kv.snapshot s in
      List.iter
        (fun k ->
          let got = Service.Kv.snapshot_get s ~ts ~key:k
          and want = Option.map cks (Hashtbl.find_opt model k) in
          if got <> want then
            violations :=
              Printf.sprintf
                "after op %d: snapshot_get key %d disagrees with the \
                 completed-prefix model"
                i k
              :: !violations)
        universe;
      let want_scan =
        Hashtbl.fold (fun k vs acc -> (k, cks vs) :: acc) model []
        |> List.sort compare
      and got_scan = ref [] in
      let n =
        Service.Kv.snapshot_scan s ~ts ~from_key:1 ~n:64 (fun k d ->
            got_scan := (k, d) :: !got_scan)
      in
      if List.rev !got_scan <> want_scan || n <> List.length want_scan then
        violations :=
          Printf.sprintf
            "after op %d: snapshot_scan visited %d entr(ies), model has %d, \
             or contents/order differ"
            i n (List.length want_scan)
          :: !violations
    in
    List.iteri
      (fun i o ->
        (match o with
         | Kput (k, vs) -> ignore (Service.Kv.put s ~key:k ~vseed:vs)
         | Kdel k -> ignore (Service.Kv.delete s ~key:k)
         | Ktxn ops -> ignore (Service.Kv.txn s ops));
        apply_kv model o;
        incr acked;
        env.ledger.durable <- (H.stats env.heap).H.live_bytes;
        audit i)
      plan
  in
  let o_snap =
    { oname = "snapshot-reads";
      check =
        (fun _env ->
          match List.rev !violations with
          | [] -> Ok ()
          | v :: _ ->
            Error
              (Printf.sprintf "%d stale/torn snapshot read(s), first: %s"
                 (List.length !violations)
                 v)) }
  in
  let o_kv = kv_prefix_oracle ~oname:"kv-store" ~preload ~plan ~acked () in
  { sname = "kv-snapshot"; setup; op; extra_oracles = [ o_snap; o_kv ] }

(* The seeded MVCC bug: {!Service.Kv.mvcc_break_early_publish} makes
   every prepare publish the transaction's versions before any
   decision record exists.  The driver stages prepare → observes a
   snapshot → decides → applies; the observation between prepare and
   decide reads values no committed history contains, so the
   [snapshot-reads] oracle must produce counterexamples — the mutation
   gate in scripts/check.sh fails CI when the checker stays green. *)
let scn_mvcc_broken () =
  let preload = [ (3, 161); (4, 162); (5, 163) ] in
  let plan =
    [ Ktxn
        [ Service.Kv.Tput { key = 3; vseed = 601 };
          Service.Kv.Tput { key = 4; vseed = 602 } ];
      Ktxn
        [ Service.Kv.Tput { key = 5; vseed = 603 };
          Service.Kv.Tput { key = 7; vseed = 604 } ] ]
  in
  let svc = ref None in
  let acked = ref 0 in
  let violations = ref [] in
  let setup () =
    let env = mk_env () in
    env.ledger.slack <- 8192;
    let inst = Poseidon.instance env.heap in
    let s = Service.Kv.create ~mvcc_window:4 inst ~shards:2 ~value_size:64 in
    List.iter
      (fun (k, vs) ->
        if not (Service.Kv.put s ~key:k ~vseed:vs) then
          failwith "mvcc-broken scenario: preload put failed")
      preload;
    Service.Kv.mvcc_break_early_publish s;
    svc := Some s;
    acked := 0;
    violations := [];
    env.ledger.durable <- (H.stats env.heap).H.live_bytes;
    finish_setup env
  in
  let op env =
    let s = Option.get !svc in
    let model = Hashtbl.create 32 in
    List.iter (fun (k, vs) -> Hashtbl.replace model k vs) preload;
    let cks vs = Service.Kv.value_checksum s ~vseed:vs in
    List.iteri
      (fun i o ->
        let ops = match o with Ktxn ops -> ops | _ -> assert false in
        (match Service.Kv.txn_prepare s ops with
         | Error _ -> failwith "mvcc-broken scenario: prepare aborted"
         | Ok prepared ->
           (* the transaction is prepared but undecided: no snapshot may
              see its writes yet — with the bug armed, it does *)
           let ts = Service.Kv.snapshot s in
           List.iter
             (fun top ->
               let k = txn_op_key top in
               let got = Service.Kv.snapshot_get s ~ts ~key:k
               and want = Option.map cks (Hashtbl.find_opt model k) in
               if got <> want then
                 violations :=
                   Printf.sprintf
                     "txn %d: snapshot observed undecided write to key %d"
                     i k
                   :: !violations)
             ops;
           ignore (Service.Kv.txn_decide s prepared);
           Service.Kv.txn_apply s prepared);
        apply_kv model o;
        incr acked;
        env.ledger.durable <- (H.stats env.heap).H.live_bytes)
      plan
  in
  let o_snap =
    { oname = "snapshot-reads";
      check =
        (fun _env ->
          match List.rev !violations with
          | [] -> Ok ()
          | v :: _ ->
            Error
              (Printf.sprintf "%d uncommitted-read violation(s), first: %s"
                 (List.length !violations)
                 v)) }
  in
  { sname = "mvcc-broken"; setup; op; extra_oracles = [ o_snap ] }

(* DRAM read-cache sweep: the kv-snapshot op mix on a store with both a
   version window and a read cache ([rcache_entries:4] per shard —
   smaller than the plan's per-shard keyspace, so the audits force CLOCK
   evictions).  After every completed operation the driver audits the
   completed-prefix model twice: every key in the universe through the
   cached plain-[get] path (the first audit after a mutation reads
   through and re-fills; the cache must never answer with a digest the
   store no longer holds) and again through a fresh snapshot, which may
   answer from the cache only when the cached version's timestamp admits
   it.  A stale cached digest is recorded as a violation and surfaces
   through the [cached-reads] oracle at every crash point past the
   offending op.  Recovery is still checked by the standard prefix
   oracle: the cache is volatile DRAM, so a crash must leave the
   re-attached store indistinguishable from the uncached sweeps. *)
let scn_kv_rcache ?(break = false) ~sname () =
  let preload =
    [ (1, 171); (2, 172); (3, 173); (4, 174); (5, 175); (6, 176) ]
  in
  let plan =
    [ Kput (3, 701); Kput (9, 702); Kdel 2;
      Ktxn
        [ Service.Kv.Tput { key = 5; vseed = 703 };
          Service.Kv.Tput { key = 7; vseed = 704 } ];
      Kput (3, 705); Kdel 5; Kput (10, 706); Kput (9, 707) ]
  in
  let universe = universe_of ~preload ~plan in
  let svc = ref None in
  let acked = ref 0 in
  let violations = ref [] in
  let setup () =
    let env = mk_env () in
    env.ledger.slack <- 8192;
    let inst = Poseidon.instance env.heap in
    let s =
      Service.Kv.create ~mvcc_window:4 ~rcache_entries:4 inst ~shards:2
        ~value_size:64
    in
    List.iter
      (fun (k, vs) ->
        if not (Service.Kv.put s ~key:k ~vseed:vs) then
          failwith "kv-rcache scenario: preload put failed")
      preload;
    if break then Service.Kv.rcache_break_late_invalidate s;
    svc := Some s;
    acked := 0;
    violations := [];
    env.ledger.durable <- (H.stats env.heap).H.live_bytes;
    finish_setup env
  in
  let op env =
    let s = Option.get !svc in
    let model = Hashtbl.create 32 in
    List.iter (fun (k, vs) -> Hashtbl.replace model k vs) preload;
    let cks vs = Service.Kv.value_checksum s ~vseed:vs in
    let audit i =
      List.iter
        (fun k ->
          let got = Service.Kv.get s ~key:k
          and want = Option.map cks (Hashtbl.find_opt model k) in
          if got <> want then
            violations :=
              Printf.sprintf
                "after op %d: cached get of key %d disagrees with the \
                 completed-prefix model"
                i k
              :: !violations)
        universe;
      let ts = Service.Kv.snapshot s in
      List.iter
        (fun k ->
          let got = Service.Kv.snapshot_get s ~ts ~key:k
          and want = Option.map cks (Hashtbl.find_opt model k) in
          if got <> want then
            violations :=
              Printf.sprintf
                "after op %d: snapshot_get of key %d disagrees with the \
                 completed-prefix model (cache admitted a wrong version)"
                i k
              :: !violations)
        universe
    in
    List.iteri
      (fun i o ->
        (match o with
         | Kput (k, vs) -> ignore (Service.Kv.put s ~key:k ~vseed:vs)
         | Kdel k -> ignore (Service.Kv.delete s ~key:k)
         | Ktxn ops -> ignore (Service.Kv.txn s ops));
        apply_kv model o;
        incr acked;
        env.ledger.durable <- (H.stats env.heap).H.live_bytes;
        audit i)
      plan
  in
  let o_rcache =
    { oname = "cached-reads";
      check =
        (fun _env ->
          match List.rev !violations with
          | [] -> Ok ()
          | v :: _ ->
            Error
              (Printf.sprintf "%d stale cached read(s), first: %s"
                 (List.length !violations)
                 v)) }
  in
  let o_kv = kv_prefix_oracle ~oname:"kv-store" ~preload ~plan ~acked () in
  { sname; setup; op; extra_oracles = [ o_rcache; o_kv ] }

let scn_kv_rcache_put () = scn_kv_rcache ~sname:"kv-rcache-put" ()

(* The seeded cache bug: {!Service.Kv.rcache_break_late_invalidate}
   defers every invalidation until the NEXT mutation starts, so between
   a mutation's return and the following one the cache still serves the
   overwritten (or deleted) digest.  The audits between ops read exactly
   that window, so the [cached-reads] oracle must produce
   counterexamples — the mutation gate in scripts/check.sh fails CI when
   the checker stays green. *)
let scn_rcache_broken () = scn_kv_rcache ~break:true ~sname:"rcache-broken" ()

(* Sweep the full sync-replication pipeline: primary local persist →
   ship over the link → backup apply/persist → cumulative ack.  Two
   machines (two devices — the primary's rides in [aux_devs], so its
   fences interleave into the same point space), one {!Cluster.Link},
   the real {!Replica} shipper/applier.  The whole cluster loses power
   at each point; recovery attaches the BACKUP ([env.mach]) — primary
   loss is the failure replication exists for — and the oracle asserts
   the backup store equals the acked prefix: any write acked in sync
   mode survives the primary's death, and the in-flight record is
   atomic (pre- or post-state, never torn). *)
let scn_kv_replicated_put () =
  let preload = [ (1, 131); (2, 132); (3, 133); (4, 134) ] in
  let plan =
    [ Kput (3, 301);
      Kput (9, 302);
      Kdel 2;
      (* a committed cross-shard transaction rides the same streams as
         a Txn_prepare + Txn_decide pair per participant shard *)
      Ktxn
        [ Service.Kv.Tput { key = 5; vseed = 304 };
          Service.Kv.Tput { key = 7; vseed = 305 } ];
      Kput (10, 303) ]
  in
  let state = ref None in
  let acked = ref 0 in
  let setup () =
    (* backup first: it is the env the sweep recovers and checks *)
    let env = mk_env () in
    env.ledger.slack <- 4096;
    let svc_b =
      Service.Kv.create (Poseidon.instance env.heap) ~shards:2 ~value_size:64
    in
    let penv = mk_env () in
    let svc_p =
      Service.Kv.create (Poseidon.instance penv.heap) ~shards:2 ~value_size:64
    in
    List.iter
      (fun (k, vs) ->
        if
          not
            (Service.Kv.put svc_p ~key:k ~vseed:vs
            && Service.Kv.put svc_b ~key:k ~vseed:vs)
        then failwith "kv-replicated scenario: preload put failed")
      preload;
    let link = Cluster.Link.create () in
    let rcfg = { Replica.default_config with Replica.window = 8 } in
    let shipper = Replica.Shipper.create rcfg ~shards:2 ~link in
    let applier =
      Replica.Applier.create rcfg ~shards:2 ~link
        ~apply:(Service.Kv.apply_replicated svc_b)
    in
    state := Some (svc_p, shipper, applier, link);
    acked := 0;
    env.aux_devs <- [ Machine.dev penv.mach ];
    Memdev.drain (Machine.dev penv.mach);
    env.ledger.durable <- (H.stats env.heap).H.live_bytes;
    finish_setup env
  in
  let op env =
    let svc_p, shipper, applier, link = Option.get !state in
    (* 3. backup applies + persists; 4. wait for every record's ack *)
    let pump_until_acked seqs =
      Replica.Applier.pump applier ~until:(fun () ->
          Cluster.Link.pending link ~ep:Replica.backup_ep = 0);
      Replica.Shipper.poll_acks shipper;
      List.iter
        (fun (shard, seq) ->
          if Replica.Shipper.acked shipper ~shard < seq then
            failwith "kv-replicated scenario: sync ack lost on clean run")
        seqs
    in
    List.iter
      (fun o ->
        (* 1. primary local persist; 2. ship *)
        (match o with
         | Kput (k, vs) ->
           ignore (Service.Kv.put svc_p ~key:k ~vseed:vs);
           let shard = Service.Kv.shard_of_key svc_p k in
           let seq =
             Replica.Shipper.ship shipper ~shard
               (Replica.Put { key = k; vseed = vs })
           in
           pump_until_acked [ (shard, seq) ]
         | Kdel k ->
           ignore (Service.Kv.delete svc_p ~key:k);
           let shard = Service.Kv.shard_of_key svc_p k in
           let seq =
             Replica.Shipper.ship shipper ~shard (Replica.Del { key = k })
           in
           pump_until_acked [ (shard, seq) ]
         | Ktxn ops ->
           let seqs = ref [] in
           ignore
             (Service.Kv.txn svc_p ops ~on_commit:(fun res ->
                  let nparts = List.length res.Service.Kv.participants in
                  List.iter
                    (fun (s, sops) ->
                      ignore
                        (Replica.Shipper.ship shipper ~shard:s
                           (Replica.Txn_prepare
                              { txn = res.Service.Kv.txn_id; ops = sops }));
                      let q =
                        Replica.Shipper.ship shipper ~shard:s
                          (Replica.Txn_decide
                             { txn = res.Service.Kv.txn_id; commit = true;
                               nparts })
                      in
                      seqs := (s, q) :: !seqs)
                    res.Service.Kv.participants));
           pump_until_acked !seqs);
        incr acked;
        env.ledger.durable <- (H.stats env.heap).H.live_bytes)
      plan
  in
  let o_kv = kv_prefix_oracle ~oname:"kv-replica" ~preload ~plan ~acked () in
  { sname = "kv-replicated-put"; setup; op; extra_oracles = [ o_kv ] }

(* Sweep the batched pipeline end to end: queue → group commit (one
   covering persist chain per chunk) → doorbell-batched ship (one
   frame per chunk) → batched cumulative ack.  Same two-machine,
   correlated-crash setup as [scn_kv_replicated_put]; [acked] advances
   a whole group at a time, only after the group's covering flush is
   acked, so the windowed prefix oracle asserts the loss bound: a
   crash mid-group loses at most the unacked window, never an acked
   op.  [premature_ack] is the seeded bug for the mutation gate: the
   driver claims the group durable BEFORE executing/flushing it —
   acks ahead of the covering flush — which the checker must flag. *)
let scn_kv_batched ?(window = 4) ?(premature_ack = false) ~sname () =
  (* all keys on shard 0 of 2 (asserted below): a commit group is a
     single-shard run by construction, mirroring the server's
     per-shard inbox *)
  let preload = [ (2, 141); (3, 142); (7, 143); (8, 144) ] in
  let plan =
    [ Kput (3, 401); Kput (9, 402); Kdel 2; Kput (10, 403); Kput (3, 404);
      Kdel 99; Kput (2, 405); Kdel 8; Kput (7, 406); Kput (99, 407) ]
  in
  List.iter
    (fun o ->
      let k = match o with Kput (k, _) | Kdel k -> k | Ktxn _ -> assert false in
      assert (Service.Kv.shard_of ~shards:2 k = 0))
    plan;
  let state = ref None in
  let acked = ref 0 in
  let setup () =
    let env = mk_env () in
    env.ledger.slack <- 4096 + (1024 * window);
    let svc_b =
      Service.Kv.create (Poseidon.instance env.heap) ~shards:2 ~value_size:64
    in
    let penv = mk_env () in
    let svc_p =
      Service.Kv.create (Poseidon.instance penv.heap) ~shards:2 ~value_size:64
    in
    List.iter
      (fun (k, vs) ->
        if
          not
            (Service.Kv.put svc_p ~key:k ~vseed:vs
            && Service.Kv.put svc_b ~key:k ~vseed:vs)
        then failwith "kv-batched scenario: preload put failed")
      preload;
    let link = Cluster.Link.create () in
    let rcfg = { Replica.default_config with Replica.window = 32 } in
    let shipper = Replica.Shipper.create rcfg ~shards:2 ~link in
    let applier =
      Replica.Applier.create rcfg ~shards:2 ~link ~ack_batch:true
        ~apply:(Service.Kv.apply_replicated svc_b)
        ~apply_group:(Service.Kv.apply_replicated_group svc_b)
    in
    state := Some (svc_p, shipper, applier, link);
    acked := 0;
    env.aux_devs <- [ Machine.dev penv.mach ];
    Memdev.drain (Machine.dev penv.mach);
    env.ledger.durable <- (H.stats env.heap).H.live_bytes;
    finish_setup env
  in
  let op env =
    let svc_p, shipper, applier, link = Option.get !state in
    let rec groups = function
      | [] -> []
      | ops ->
        let rec take n = function
          | o :: rest when n > 0 ->
            let g, rest' = take (n - 1) rest in
            (o :: g, rest')
          | rest -> ([], rest)
        in
        let g, rest = take window ops in
        g :: groups rest
    in
    List.iter
      (fun gops ->
        if premature_ack then acked := !acked + List.length gops;
        let last = ref (-1) in
        let kv_ops =
          List.map
            (function
              | Kput (k, vs) -> Service.Kv.Tput { key = k; vseed = vs }
              | Kdel k -> Service.Kv.Tdel { key = k }
              | Ktxn _ -> assert false)
            gops
        in
        ignore
          (Service.Kv.group_commit svc_p ~shard:0 kv_ops
             ~on_chunk:(fun ~fin:_ cops ->
               List.iter
                 (fun op ->
                   let rop =
                     match op with
                     | Service.Kv.Tput { key; vseed } ->
                       Replica.Put { key; vseed }
                     | Service.Kv.Tdel { key } -> Replica.Del { key }
                   in
                   last := Replica.Shipper.ship_buffered shipper ~shard:0 rop)
                 cops;
               ignore (Replica.Shipper.flush shipper)));
        if !last >= 0 then begin
          Replica.Applier.pump applier ~until:(fun () ->
              Cluster.Link.pending link ~ep:Replica.backup_ep = 0);
          Replica.Shipper.poll_acks shipper;
          if Replica.Shipper.acked shipper ~shard:0 < !last then
            failwith "kv-batched scenario: ack lost on clean run"
        end;
        if not premature_ack then acked := !acked + List.length gops;
        env.ledger.durable <- (H.stats env.heap).H.live_bytes)
      (groups plan)
  in
  let o_kv =
    kv_prefix_oracle ~window ~oname:"kv-batched" ~preload ~plan ~acked ()
  in
  { sname; setup; op; extra_oracles = [ o_kv ] }

let scn_kv_batched_put ?window ?premature_ack () =
  scn_kv_batched ?window ?premature_ack ~sname:"kv-batched-put" ()

let scn_kv_batched_broken () =
  scn_kv_batched ~premature_ack:true ~sname:"kv-batched-broken" ()

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
let tcache_preload =
  [ (1, 161); (2, 162); (3, 163); (4, 164); (5, 165); (6, 166) ]

let tcache_plan =
  [ Kput (3, 601); Kput (9, 602); Kdel 2; Kput (10, 603); Kput (3, 604);
    Kdel 5; Kput (11, 605); Kput (9, 606) ]

let scn_kv_tcache ?(break = false) ~sname () =
  let universe = universe_of ~preload:tcache_preload ~plan:tcache_plan in
  scn_kv ~sname ~slack:12288
    ~wrap:(fun inst ->
      let wrapped, h = Tcache.wrap ~mag:4 inst in
      if break then Tcache.break_recycle h;
      wrapped)
    ~extra:[ kv_value_census_oracle ~value_size:64 ~universe () ]
    ~preload:tcache_preload ~plan:tcache_plan ()

let scn_kv_tcache_put () = scn_kv_tcache ~sname:"kv-tcache-put" ()

(* The seeded cache bug: frees recycle into the bins with no reclaim
   lease and no persistent free.  The checker MUST flag this — the
   mutation gate in scripts/check.sh fails CI if it does not. *)
let scn_kv_tcache_broken () =
  scn_kv_tcache ~break:true ~sname:"tcache-broken" ()

let all_scenarios () =
  [ scn_alloc (); scn_free (); scn_tx_commit (); scn_tx_abort ();
    scn_extend (); scn_kv_put (); scn_kv_delete (); scn_kv_shift ();
    scn_kv_split (); scn_kv_txn ();
    scn_kv_snapshot (); scn_kv_rcache_put (); scn_kv_replicated_put ();
    scn_kv_batched_put (); scn_kv_tcache_put (); scn_carve () ]

let scenario_by_name = function
  | "alloc" -> Some (scn_alloc ())
  | "free" -> Some (scn_free ())
  | "tx-commit" -> Some (scn_tx_commit ())
  | "tx-abort" -> Some (scn_tx_abort ())
  | "extend" -> Some (scn_extend ())
  | "kv-put" -> Some (scn_kv_put ())
  | "kv-delete" -> Some (scn_kv_delete ())
  | "kv-shift" -> Some (scn_kv_shift ())
  | "kv-split" -> Some (scn_kv_split ())
  | "kv-commit-broken" -> Some (scn_kv_commit_broken ())
  | "kv-txn" -> Some (scn_kv_txn ())
  | "kv-txn-broken" -> Some (scn_kv_txn_broken ())
  | "kv-snapshot" -> Some (scn_kv_snapshot ())
  | "mvcc-broken" -> Some (scn_mvcc_broken ())
  | "kv-rcache-put" -> Some (scn_kv_rcache_put ())
  | "rcache-broken" -> Some (scn_rcache_broken ())
  | "kv-replicated-put" -> Some (scn_kv_replicated_put ())
  | "kv-batched-put" -> Some (scn_kv_batched_put ())
  | "kv-batched-broken" -> Some (scn_kv_batched_broken ())
  | "kv-tcache-put" -> Some (scn_kv_tcache_put ())
  | "tcache-broken" -> Some (scn_kv_tcache_broken ())
  | "carve" -> Some (scn_carve ())
  | "broken" -> Some (scn_broken_missing_flush ())
  | _ -> None
