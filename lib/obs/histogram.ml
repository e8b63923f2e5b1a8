(* Fixed-memory HDR-style histogram.

   This structure keeps [sub_count] linear sub-buckets per
   power-of-two octave, so any quantile bound is within [1/sub_count]
   (3.125%) of a recorded value, still with a fixed ~1.9k-slot
   footprint regardless of population or value range.

   Values v <= 0 land in a dedicated underflow cell; exact count, sum,
   min and max are tracked alongside, so summary statistics never lose
   precision to the bucketing. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 linear sub-buckets per octave *)

(* Highest index: msb(max_int) = 62, so (62-5+1)*32 + 31. *)
let slots = ((62 - sub_bits + 1) * sub_count) + sub_count

(* Index of the bucket holding v > 0: small values map to themselves
   (exact); larger values keep their top [sub_bits+1] bits. *)
let index_of v =
  if v < sub_count then v
  else begin
    let msb =
      let m = ref 0 and x = ref v in
      while !x > 1 do
        incr m;
        x := !x lsr 1
      done;
      !m
    in
    let shift = msb - sub_bits in
    ((shift + 1) * sub_count) + ((v lsr shift) - sub_count)
  end

(* Inclusive [lo, hi] value range of bucket [i]. *)
let bounds i =
  if i < sub_count then (i, i)
  else begin
    let b = i / sub_count and s = i mod sub_count in
    let shift = b - 1 in
    let lo = (sub_count + s) lsl shift in
    (lo, lo + (1 lsl shift) - 1)
  end

type t = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  mutable h_underflow : int;
}

let create () =
  {
    buckets = Array.make slots 0;
    h_count = 0;
    h_sum = 0;
    h_min = max_int;
    h_max = min_int;
    h_underflow = 0;
  }

let record t v =
  if v <= 0 then t.h_underflow <- t.h_underflow + 1
  else begin
    let i = index_of v in
    t.buckets.(i) <- t.buckets.(i) + 1
  end;
  t.h_count <- t.h_count + 1;
  t.h_sum <- t.h_sum + v;
  if v < t.h_min then t.h_min <- v;
  if v > t.h_max then t.h_max <- v

let count t = t.h_count
let sum t = t.h_sum
let min_value t = if t.h_count = 0 then 0 else t.h_min
let max_value t = if t.h_count = 0 then 0 else t.h_max

(* -- snapshots ---------------------------------------------------------- *)

type snapshot = {
  s_count : int;
  s_sum : int;
  s_min : int;  (** 0 when empty *)
  s_max : int;  (** 0 when empty *)
  s_underflow : int;
  s_buckets : (int * int) list;
      (** sparse [(index, population)], strictly increasing indices,
          populations > 0 *)
}

let empty =
  { s_count = 0; s_sum = 0; s_min = 0; s_max = 0; s_underflow = 0; s_buckets = [] }

let snapshot t =
  let cells = ref [] in
  for i = slots - 1 downto 0 do
    if t.buckets.(i) > 0 then cells := (i, t.buckets.(i)) :: !cells
  done;
  {
    s_count = t.h_count;
    s_sum = t.h_sum;
    s_min = min_value t;
    s_max = max_value t;
    s_underflow = t.h_underflow;
    s_buckets = !cells;
  }

(* Sorted-merge of two sparse bucket lists, adding populations. *)
let rec merge_cells a b =
  match a, b with
  | [], rest | rest, [] -> rest
  | (ia, na) :: ra, (ib, nb) :: rb ->
    if ia < ib then (ia, na) :: merge_cells ra b
    else if ib < ia then (ib, nb) :: merge_cells a rb
    else (ia, na + nb) :: merge_cells ra rb

(* Populations add; min/max combine with empty-population guards so
   [empty] is a unit — the same commutative/associative algebra as
   {!Metrics.merge}, property-tested in test_obs. *)
let merge a b =
  {
    s_count = a.s_count + b.s_count;
    s_sum = a.s_sum + b.s_sum;
    s_min =
      (if a.s_count = 0 then b.s_min
       else if b.s_count = 0 then a.s_min
       else min a.s_min b.s_min);
    s_max =
      (if a.s_count = 0 then b.s_max
       else if b.s_count = 0 then a.s_max
       else max a.s_max b.s_max);
    s_underflow = a.s_underflow + b.s_underflow;
    s_buckets = merge_cells a.s_buckets b.s_buckets;
  }

(* Fold a snapshot into a live histogram (the {!Metrics.absorb}
   counterpart): bucket populations add directly, no re-record loop. *)
let absorb t snap =
  List.iter (fun (i, n) -> t.buckets.(i) <- t.buckets.(i) + n) snap.s_buckets;
  t.h_underflow <- t.h_underflow + snap.s_underflow;
  t.h_count <- t.h_count + snap.s_count;
  t.h_sum <- t.h_sum + snap.s_sum;
  if snap.s_count > 0 then begin
    if snap.s_min < t.h_min then t.h_min <- snap.s_min;
    if snap.s_max > t.h_max then t.h_max <- snap.s_max
  end

(* Upper bound of the bucket holding the requested rank, clamped into
   [s_min, s_max] so p100 is the exact maximum.  For any recorded order
   statistic x the returned bound q satisfies x <= q <= x + x/sub_count. *)
let quantile snap p =
  if snap.s_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int snap.s_count)) in
      max 1 (min snap.s_count r)
    in
    let bound =
      if snap.s_underflow >= rank then 0
      else begin
        let cum = ref snap.s_underflow and result = ref snap.s_max in
        (try
           List.iter
             (fun (i, n) ->
               cum := !cum + n;
               if !cum >= rank then begin
                 result := snd (bounds i);
                 raise Exit
               end)
             snap.s_buckets
         with Exit -> ());
        !result
      end
    in
    max snap.s_min (min bound snap.s_max)
  end

let mean snap =
  if snap.s_count = 0 then 0.0
  else float_of_int snap.s_sum /. float_of_int snap.s_count

let to_json snap =
  Json.Obj
    [
      ("type", Json.Str "hdr");
      ("count", Json.Int snap.s_count);
      ("sum", Json.Int snap.s_sum);
      ("min", Json.Int snap.s_min);
      ("max", Json.Int snap.s_max);
      ("mean", Json.Float (mean snap));
      ("p50", Json.Int (quantile snap 50.0));
      ("p90", Json.Int (quantile snap 90.0));
      ("p99", Json.Int (quantile snap 99.0));
      ("underflow", Json.Int snap.s_underflow);
      ( "buckets",
        Json.List
          (List.map
             (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ])
             snap.s_buckets) );
    ]
