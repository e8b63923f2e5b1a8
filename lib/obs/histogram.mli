(** Fixed-memory HDR-style histogram.

    Log-bucketed with [sub_count] linear sub-buckets per power-of-two
    octave: every quantile bound is within a relative [1/sub_count]
    (3.125%) of a recorded value, at a fixed ~1.9k-slot footprint
    independent of population and value range.  Count, sum, min and max are exact.

    Registered in the metrics registry via {!Metrics.hdr}; snapshots
    carry sparse bucket lists and obey the same commutative/associative
    merge algebra as {!Metrics.merge} / {!Metrics.absorb}. *)

type t

val sub_count : int
(** Linear sub-buckets per octave (32): the quantile precision
    denominator. *)

val create : unit -> t

val record : t -> int -> unit
(** O(1), allocation-free.  Values [v <= 0] are tallied in a dedicated
    underflow cell (and still contribute to count/sum/min/max). *)

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** Exact minimum recorded value; 0 when empty (same for
    {!max_value}). *)

val max_value : t -> int

(** {2 Snapshots} *)

type snapshot = {
  s_count : int;
  s_sum : int;
  s_min : int;  (** 0 when empty *)
  s_max : int;  (** 0 when empty *)
  s_underflow : int;  (** records with [v <= 0] *)
  s_buckets : (int * int) list;
      (** sparse [(bucket index, population)] cells, strictly increasing
          indices, populations > 0 *)
}

val empty : snapshot
(** The unit of {!merge}. *)

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Populations (count, sum, underflow, per-bucket tallies) add; min and
    max combine ignoring empty sides.  Commutative and associative with
    {!empty} as unit — property-tested — so fan-ins may fold snapshots
    in any order. *)

val absorb : t -> snapshot -> unit
(** Fold a snapshot into a live histogram with the {!merge} rules:
    [snapshot t] after [absorb t s] equals [merge (snapshot t) s]. *)

val quantile : snapshot -> float -> int
(** [quantile s p] is an upper bound of the p-th percentile order
    statistic, clamped into [[s_min, s_max]] (so [quantile s 100.0] is
    the exact maximum).  For the exact order statistic [x] at rank p:
    [x <= quantile s p <= x + x/sub_count].  0 when empty. *)

val mean : snapshot -> float
val to_json : snapshot -> Json.t

val bounds : int -> int * int
(** Inclusive [(lo, hi)] value range of a bucket index (exposed for
    tests). *)

val index_of : int -> int
(** Bucket index of a positive value (exposed for tests). *)
