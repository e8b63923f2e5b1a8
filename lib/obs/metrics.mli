(** Metrics registry: named counters, gauges and HDR histograms.

    Hot-path discipline: resolve an instrument handle once (a hash
    lookup) and update through it thereafter — every update is a plain
    [int] field write, no allocation, so instrumentation can stay
    enabled unconditionally.  [snapshot] freezes a registry for
    rendering, merging across runs, or JSON export. *)

type t

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create.  Raises [Invalid_argument] if [name] already names
    an instrument of another kind (same for [gauge]/[hdr]). *)

val gauge : t -> string -> gauge

val hdr : t -> string -> Histogram.t
(** Find-or-create a fine-grained {!Histogram} (HDR-style, 3.125%
    quantile precision) registered under [name]: it appears in
    snapshots as {!Hdr} and participates in {!merge}/{!absorb} with the
    {!Histogram.merge} algebra. *)

val inc : ?by:int -> counter -> unit
val count : counter -> int

val set : gauge -> int -> unit
(** Sets the last value and raises the peak if exceeded. *)

val set_peak : gauge -> int -> unit
(** Raises the peak only; the last value is untouched. *)

val last : gauge -> int
val peak : gauge -> int

(** {2 Snapshots} *)

type value =
  | Counter of int
  | Gauge of { last_value : int; peak_value : int }
  | Hdr of Histogram.snapshot

type snapshot = (string * value) list
(** Sorted by instrument name (names are unique, so the order — and the
    key order of {!to_json} — is deterministic). *)

val snapshot : t -> snapshot

val find : snapshot -> string -> value option
val counter_value : snapshot -> string -> int option

val merge : snapshot -> snapshot -> snapshot
(** Counters and histogram populations (count, sum, per-bucket tallies,
    via {!Histogram.merge}) add;
    gauges keep the element-wise maximum of [last] and [peak].
    Gauges deliberately do {e not} use a last-writer rule: merged
    snapshots typically come from concurrently-running scopes (e.g. one
    registry per worker domain in parallel exploration) where no global
    write order exists, and taking the maximum is what keeps [merge]
    commutative and associative — both property-tested — so a fan-in can
    fold snapshots in any order.  A merged high-water mark is still a
    high-water mark.  Raises [Invalid_argument] when a name maps to
    different instrument kinds. *)

val absorb : t -> snapshot -> unit
(** Fold a snapshot into a live registry, creating instruments as
    needed, with the same combination rules as {!merge} (counters and
    histogram populations add, gauges keep the maximum).  This is how a
    parallel fan-out returns per-domain registries to the caller's
    registry: [snapshot (absorb parent s)] equals [merge (snapshot
    parent) s] for instruments the parent already holds. *)

val render : snapshot -> string
(** Text exposition, one instrument per line. *)

val to_json : snapshot -> Json.t
