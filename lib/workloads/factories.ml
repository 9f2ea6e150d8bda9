(** Allocator factories: one way to build a fresh machine plus a heap
    of each allocator under test, so every workload can sweep all
    three (paper §7: Poseidon vs PMDK vs Makalu). *)

type factory = {
  name : string;
  make : ?cfg:Machine.Config.t -> unit -> Machine.t * Alloc_intf.instance;
}

let heap_base = 1 lsl 30
let default_window = 1 lsl 38 (* virtual: backing is sparse *)

(** A Poseidon heap on an {e existing} machine — the multi-machine
    (cluster) case, where the caller owns machine creation so that all
    members share one engine. *)
let poseidon_on ?(sub_data_size = 128 * 1024 * 1024) ?(window = default_window)
    ?(protected = true) mach =
  let heap =
    Poseidon.Heap.create mach ~base:heap_base ~size:window ~heap_id:1
      ~sub_data_size ~protected ()
  in
  Poseidon.instance heap

let poseidon ?sub_data_size ?window ?protected () =
  { name = "Poseidon";
    make =
      (fun ?cfg () ->
        let mach = Machine.create ?cfg () in
        (mach, poseidon_on ?sub_data_size ?window ?protected mach)) }

let pmdk ?(window = default_window) ?(canary = false) () =
  { name = "PMDK";
    make =
      (fun ?cfg () ->
        let mach = Machine.create ?cfg () in
        let heap =
          Pmdk_sim.Heap.create mach ~base:heap_base ~size:window ~heap_id:1
            ~canary ()
        in
        (mach, Pmdk_sim.instance heap)) }

let makalu ?(window = default_window) () =
  { name = "Makalu";
    make =
      (fun ?cfg () ->
        let mach = Machine.create ?cfg () in
        let heap =
          Makalu_sim.Heap.create mach ~base:heap_base ~size:window ~heap_id:1
        in
        (mach, Makalu_sim.instance heap)) }

(** The three allocators of the paper's evaluation, Poseidon first. *)
let all ?sub_data_size () =
  [ poseidon ?sub_data_size (); pmdk (); makalu () ]

(** One allocation + free on every measurement thread, outside the
    timed region: first-touch pool setup (Poseidon's sub-heap
    creation, PMDK's chunk carving, Makalu's carve chunks) is paid
    here rather than polluting the measurement — benchmarks on real
    hardware warm their pools the same way. *)
let warmup mach inst ~threads =
  ignore
    (Machine.parallel mach ~threads (fun _ ->
         match Alloc_intf.i_alloc inst 64 with
         | Some p -> Alloc_intf.i_free inst p
         | None -> ()))
