(* Arena-backed visited set; see the interface for the contract.

   Hot-path functions use [while] loops over local refs rather than
   local recursive functions: without flambda a closure capturing its
   environment is heap-allocated on every call. *)

(* A vector that does not fit what is left of a chunk starts the next
   one; one larger than a chunk gets a chunk of its own. *)
let chunk_bytes = 1 lsl 20

type t = {
  mutable chunks : Bytes.t array;
  mutable n_chunks : int;
  mutable fill : int;  (** bytes used in the last chunk *)
  mutable locs : int array;
      (** per id: [chunk lsl 32 lor offset lsl 1 lor wide], where
          [wide = 1] marks eight bytes per slot *)
  mutable lens : int array;
  mutable count : int;
  mutable slots : int array;  (** open addressing, linear probing; -1 = empty *)
  mutable hashes : int array;  (** the hash of the id in the same slot *)
}

let create () =
  {
    chunks = [||];
    n_chunks = 0;
    fill = 0;
    locs = Array.make 1024 0;
    lens = Array.make 1024 0;
    count = 0;
    slots = Array.make 2048 (-1);
    hashes = Array.make 2048 0;
  }

let count t = t.count
let length t id = t.lens.(id)

let hash vec keep n =
  let h = ref 0x811c9dc5 in
  for i = 0 to n - 1 do
    let x = if keep.(i) then vec.(i) else 0 in
    h := (!h lxor x) * 0x100000001b3
  done;
  let h = !h in
  (h lxor (h lsr 31)) land max_int

let get b wide off i =
  if wide then Int64.to_int (Bytes.get_int64_le b (off + (8 * i)))
  else Bytes.get_int8 b (off + i)

let matches t id vec keep n =
  t.lens.(id) = n
  &&
  let loc = t.locs.(id) in
  let b = t.chunks.(loc lsr 32) in
  let off = (loc lsr 1) land 0x7fff_ffff in
  let wide = loc land 1 = 1 in
  let i = ref 0 in
  while !i < n && ((not keep.(!i)) || get b wide off !i = vec.(!i)) do
    incr i
  done;
  !i = n

let find t ~hash vec keep n =
  let mask = Array.length t.slots - 1 in
  let i = ref (hash land mask) in
  let found = ref (-2) in
  while !found = -2 do
    let id = t.slots.(!i) in
    if id < 0 then found := -1
    else if t.hashes.(!i) = hash && matches t id vec keep n then found := id
    else i := (!i + 1) land mask
  done;
  !found

let place slots hashes hash id =
  let mask = Array.length slots - 1 in
  let i = ref (hash land mask) in
  while slots.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  slots.(!i) <- id;
  hashes.(!i) <- hash

let grow_table t =
  let size = 2 * Array.length t.slots in
  let slots = Array.make size (-1) and hashes = Array.make size 0 in
  Array.iteri
    (fun i id -> if id >= 0 then place slots hashes t.hashes.(i) id)
    t.slots;
  t.slots <- slots;
  t.hashes <- hashes

let grow a len =
  let b = Array.make (2 * len) 0 in
  Array.blit a 0 b 0 len;
  b

(* Start a new chunk unless [need] bytes fit in the last one. *)
let reserve t need =
  if t.n_chunks = 0 || t.fill + need > Bytes.length t.chunks.(t.n_chunks - 1)
  then begin
    if t.n_chunks = Array.length t.chunks then begin
      let bigger = Array.make (max 8 (2 * t.n_chunks)) Bytes.empty in
      Array.blit t.chunks 0 bigger 0 t.n_chunks;
      t.chunks <- bigger
    end;
    t.chunks.(t.n_chunks) <- Bytes.create (max need chunk_bytes);
    t.n_chunks <- t.n_chunks + 1;
    t.fill <- 0
  end;
  let off = t.fill in
  t.fill <- off + need;
  off

let add t ~hash vec n =
  let narrow = ref true in
  for i = 0 to n - 1 do
    let x = vec.(i) in
    if x < -128 || x > 127 then narrow := false
  done;
  let off = reserve t (if !narrow then n else 8 * n) in
  let b = t.chunks.(t.n_chunks - 1) in
  if !narrow then
    for i = 0 to n - 1 do
      Bytes.set_int8 b (off + i) vec.(i)
    done
  else
    for i = 0 to n - 1 do
      Bytes.set_int64_le b (off + (8 * i)) (Int64.of_int vec.(i))
    done;
  let id = t.count in
  if id = Array.length t.locs then begin
    t.locs <- grow t.locs id;
    t.lens <- grow t.lens id
  end;
  t.locs.(id) <-
    ((t.n_chunks - 1) lsl 32) lor (off lsl 1) lor if !narrow then 0 else 1;
  t.lens.(id) <- n;
  t.count <- id + 1;
  if 2 * t.count > Array.length t.slots then grow_table t;
  place t.slots t.hashes hash id;
  id

let blit t id buf =
  let loc = t.locs.(id) in
  let b = t.chunks.(loc lsr 32) in
  let off = (loc lsr 1) land 0x7fff_ffff in
  let wide = loc land 1 = 1 in
  for i = 0 to t.lens.(id) - 1 do
    buf.(i) <- get b wide off i
  done
