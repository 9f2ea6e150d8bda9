(** Poseidon: safe, fast and scalable persistent memory allocator —
    public entry point.

    This module re-exports the allocator's components and provides the
    {!Alloc_intf.S} implementation used by the workloads and
    benchmarks.  See [Heap] for the full API (Fig. 5 of the paper) and
    DESIGN.md for the architecture. *)

module Layout = Layout
module Record = Record
module Hashtable = Hashtable
module Buddy = Buddy
module Subheap = Subheap
module Superblock = Superblock
module Heap = Heap
module Fsck = Fsck
module Exthash = Exthash

let allocator_name = "Poseidon"

(** Poseidon packaged as a first-class allocator instance. *)
let instance heap =
  Alloc_intf.Instance
    ( (module struct
        type heap = Heap.t

        let allocator_name = allocator_name

        let create mach ~base ~size ~heap_id =
          Heap.create mach ~base ~size ~heap_id ()

        let attach mach ~base = Heap.attach mach ~base ()
        let finish = Heap.finish
        let alloc = Heap.alloc
        let tx_alloc = Heap.tx_alloc
        let tx_commit = Heap.tx_commit
        let free = Heap.free
        let get_rawptr = Heap.get_rawptr
        let get_nvmptr = Heap.get_nvmptr
        let get_root = Heap.get_root
        let set_root = Heap.set_root
        let machine = Heap.machine
        let cache_ops = Heap.cache_ops
      end : Alloc_intf.S
        with type heap = Heap.t),
      heap )
