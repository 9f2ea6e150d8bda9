(** Offline heap checker ("fsck" for Poseidon heaps).

    Walks a heap read-only and produces a structured report: per
    sub-heap block populations, fragmentation, size-class histograms,
    hash-table occupancy, log states — plus every invariant violation
    {!Subheap.check_invariants} would raise, collected instead of
    thrown.  Intended for post-mortem inspection and for the
    `poseidon-repro fsck`-style tooling; the test suite uses it to
    assert statistics match ground truth. *)

type subheap_report = {
  index : int;
  cpu : int;
  data_size : int;
  live_blocks : int;
  live_bytes : int;
  free_blocks : int;
  free_bytes : int;
  largest_free : int;
  class_histogram : (int * int) array; (** (class, free blocks) for non-empty classes *)
  hash_levels : int;
  hash_live : int;
  hash_capacity : int;
  undo_log_empty : bool;
  micro_log_entries : int;
  violations : string list;
}

type report = {
  heap_id : int;
  subheaps : subheap_report list;
  root_set : bool;
  total_live_bytes : int;
  total_free_bytes : int;
  total_violations : int;
}

let check_subheap (sh : Subheap.t) =
  let mach = sh.Subheap.mach in
  let live_blocks = ref 0 and live_bytes = ref 0 in
  let free_blocks = ref 0 and free_bytes = ref 0 in
  let largest_free = ref 0 in
  let per_class = Array.make Layout.num_classes 0 in
  let violations = ref [] in
  (* a corrupted heap can take the walkers anywhere: treat any escape
     (invalid address, bounds failure) as a reported violation *)
  let guarded f =
    try f () with
    | Subheap.Invariant_violation msg | Failure msg ->
      violations := msg :: !violations
    | exn -> violations := Printexc.to_string exn :: !violations
  in
  guarded (fun () ->
      Subheap.iter_blocks sh (fun ~off:_ ~size ~rec_addr:_ ~status ->
          if status = Layout.st_alloc then begin
            incr live_blocks;
            live_bytes := !live_bytes + size
          end
          else begin
            incr free_blocks;
            free_bytes := !free_bytes + size;
            if size > !largest_free then largest_free := size;
            let cls = Layout.class_of_size size in
            per_class.(cls) <- per_class.(cls) + 1
          end));
  guarded (fun () -> Subheap.check_invariants sh);
  let levels = Hashtable.levels sh.Subheap.ht in
  let hash_live = ref 0 in
  for level = 0 to levels - 1 do
    hash_live := !hash_live + Hashtable.level_live sh.Subheap.ht level
  done;
  let capacity = ref 0 in
  for level = 0 to levels - 1 do
    capacity := !capacity + Hashtable.level_buckets sh.Subheap.ht level
  done;
  { index = sh.Subheap.index;
    cpu = sh.Subheap.cpu;
    data_size = sh.Subheap.data_size;
    live_blocks = !live_blocks;
    live_bytes = !live_bytes;
    free_blocks = !free_blocks;
    free_bytes = !free_bytes;
    largest_free = !largest_free;
    class_histogram =
      Array.of_list
        (List.filter_map
           (fun cls ->
             if per_class.(cls) > 0 then Some (cls, per_class.(cls)) else None)
           (List.init Layout.num_classes Fun.id));
    hash_levels = levels;
    hash_live = !hash_live;
    hash_capacity = !capacity;
    undo_log_empty =
      Persist.Pundo.is_empty mach
        ~count_addr:(Layout.undo_count sh.Subheap.meta_base);
    micro_log_entries =
      List.length
        (Persist.Plog.entries mach (Layout.micro_area sh.Subheap.meta_base));
    violations = List.rev !violations }

let run heap =
  let subheaps = ref [] in
  Heap.iter_subheaps heap (fun sh -> subheaps := check_subheap sh :: !subheaps);
  let subheaps = List.rev !subheaps in
  { heap_id = Heap.heap_id heap;
    subheaps;
    root_set = not (Alloc_intf.is_null (Heap.get_root heap));
    total_live_bytes = List.fold_left (fun a r -> a + r.live_bytes) 0 subheaps;
    total_free_bytes = List.fold_left (fun a r -> a + r.free_bytes) 0 subheaps;
    total_violations =
      List.fold_left (fun a r -> a + List.length r.violations) 0 subheaps }

let is_clean report = report.total_violations = 0

let pp ppf report =
  Format.fprintf ppf "heap %d: %d sub-heap(s), root %s@\n" report.heap_id
    (List.length report.subheaps)
    (if report.root_set then "set" else "null");
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  sub-heap %d (cpu %d): %d live blocks / %d B, %d free blocks / %d \
         B (largest %d B)@\n"
        r.index r.cpu r.live_blocks r.live_bytes r.free_blocks r.free_bytes
        r.largest_free;
      Format.fprintf ppf
        "    hash: %d level(s), %d live records / %d buckets (%.1f%%)@\n"
        r.hash_levels r.hash_live r.hash_capacity
        (100.0 *. float_of_int r.hash_live
         /. float_of_int (max 1 r.hash_capacity));
      if r.class_histogram <> [||] then begin
        Format.fprintf ppf "    free classes:";
        Array.iter
          (fun (cls, n) ->
            Format.fprintf ppf " %d B x%d" (Layout.min_block lsl cls) n)
          r.class_histogram;
        Format.fprintf ppf "@\n"
      end;
      if not r.undo_log_empty then
        Format.fprintf ppf "    WARNING: undo log not empty@\n";
      if r.micro_log_entries > 0 then
        Format.fprintf ppf "    WARNING: %d uncommitted tx allocation(s)@\n"
          r.micro_log_entries;
      List.iter (Format.fprintf ppf "    VIOLATION: %s@\n") r.violations)
    report.subheaps;
  Format.fprintf ppf "totals: %d live B, %d free B, %d violation(s)@\n"
    report.total_live_bytes report.total_free_bytes report.total_violations
