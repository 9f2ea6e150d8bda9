(** Makalu-like baseline allocator — public entry point.

    From-scratch re-implementation of the Makalu design the paper
    compares against (thread-local free lists + global reclaim list,
    global chunk list above 400 B, GC-based recovery instead of
    logging).  See [Heap] and DESIGN.md. *)

module Layout = Layout
module Heap = Heap

type heap = Heap.t

let allocator_name = "Makalu"

let to_ptr (h : heap) raw : Alloc_intf.nvmptr =
  { Alloc_intf.heap_id = Heap.heap_id h; subheap = 0; off = raw - h.Heap.base }

let of_ptr (h : heap) (p : Alloc_intf.nvmptr) =
  if Alloc_intf.is_null p then invalid_arg "Makalu_sim: null pointer";
  if p.Alloc_intf.heap_id <> Heap.heap_id h || p.Alloc_intf.subheap <> 0 then
    invalid_arg "Makalu_sim: foreign pointer";
  h.Heap.base + p.Alloc_intf.off

let instance heap =
  Alloc_intf.Instance
    ( (module struct
        type nonrec heap = heap

        let allocator_name = allocator_name

        let create mach ~base ~size ~heap_id =
          Heap.create mach ~base ~size ~heap_id

        let attach mach ~base = Heap.attach mach ~base
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
