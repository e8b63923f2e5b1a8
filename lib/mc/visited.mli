(** The explorer's visited set and state store in one.

    Every stored state vector lives once, in an arena of 1 MiB [Bytes]
    chunks the collector neither scans nor moves (a larger vector gets a
    chunk of its own): one byte per slot when every slot of the vector
    fits a signed byte, eight otherwise.  An open-addressing table of
    ids indexes the vectors by a caller-given hash, so looking up a
    candidate reads it straight from the caller's buffer and allocates
    nothing.

    Equality is taken under a keep-mask: a stored vector [v] matches a
    candidate [vec] of length [n] when they have the same length and
    [v.(i) = vec.(i)] wherever [keep.(i)].  Callers whose masks are a
    function of a vector's structure slots (never masked themselves)
    get the equality of the masked vectors this way, comparing the
    stored concrete vector directly. *)

type t

val create : unit -> t

val count : t -> int
(** Stored vectors; their ids are [0 .. count - 1] in insertion order. *)

val hash : int array -> bool array -> int -> int
(** FNV-1a over the first [n] slots, masked slots read as 0. *)

val find : t -> hash:int -> int array -> bool array -> int -> int
(** [find t ~hash vec keep n]: the id of a stored vector that was added
    with [hash] and matches [vec] (length [n]) under [keep], or [-1]. *)

val add : t -> hash:int -> int array -> int -> int
(** [add t ~hash vec n] stores [vec.(0 .. n - 1)] and returns its id.
    The caller has checked that {!find} answers [-1]. *)

val length : t -> int -> int

val blit : t -> int -> int array -> unit
(** [blit t id buf] copies vector [id] into [buf], which holds at least
    [length t id] slots. *)
