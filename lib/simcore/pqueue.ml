type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array; (* heap.(0) unused when size = 0 *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = max 16 (2 * Array.length t.heap) in
  if cap > Array.length t.heap then begin
    let fresh = Array.make cap t.heap.(0) in
    Array.blit t.heap 0 fresh 0 t.size;
    t.heap <- fresh
  end

let push t ~time payload =
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 && Array.length t.heap = 0 then t.heap <- Array.make 16 entry;
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  (* sift up *)
  let i = ref (t.size - 1) in
  while !i > 0 && less t.heap.(!i) t.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
        if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.heap.(!smallest) in
          t.heap.(!smallest) <- t.heap.(!i);
          t.heap.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some (top.time, top.payload)
  end

let length t = t.size
let is_empty t = t.size = 0
