(** PMDK-like baseline allocator — public entry point.

    A from-scratch re-implementation of the libpmemobj allocator design
    analysed in §3 of the paper, with its in-place metadata and global
    structures, used as the comparison baseline for every experiment.
    See [Heap] for the implementation and DESIGN.md for the fidelity
    argument. *)

module Avl = Avl
module Layout = Layout
module Chunk_index = Chunk_index
module Heap = Heap

type heap = Heap.t

let allocator_name = "PMDK"

(* nvmptr encoding for this allocator: a single logical sub-heap 0,
   offset relative to the pool base. *)
let to_ptr (h : heap) raw : Alloc_intf.nvmptr =
  { Alloc_intf.heap_id = Heap.heap_id h; subheap = 0; off = raw - h.Heap.base }

let of_ptr (h : heap) (p : Alloc_intf.nvmptr) =
  if Alloc_intf.is_null p then invalid_arg "Pmdk_sim: null pointer";
  if p.Alloc_intf.heap_id <> Heap.heap_id h || p.Alloc_intf.subheap <> 0 then
    invalid_arg "Pmdk_sim: foreign pointer";
  h.Heap.base + p.Alloc_intf.off

let instance heap =
  Alloc_intf.Instance
    ( (module struct
        type nonrec heap = heap

        let allocator_name = allocator_name

        let create mach ~base ~size ~heap_id =
          Heap.create mach ~base ~size ~heap_id ()

        let attach mach ~base = Heap.attach mach ~base ()
        let finish = Heap.finish
        let alloc h size = Option.map (to_ptr h) (Heap.alloc h size)

        let tx_alloc h size ~is_end =
          Option.map (to_ptr h) (Heap.tx_alloc h size ~is_end)

        let tx_commit = Heap.tx_commit
        let free h p = Heap.free h (of_ptr h p)
        let get_rawptr = of_ptr
        let get_nvmptr = to_ptr

        let get_root h =
          Alloc_intf.unpack ~heap_id:(Heap.heap_id h) (Heap.get_root_packed h)

        let set_root h p = Heap.set_root_packed h (Alloc_intf.pack p)
        let machine = Heap.machine
        let cache_ops _ = None
      end : Alloc_intf.S
        with type heap = heap),
      heap )
