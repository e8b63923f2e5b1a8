(** The mutable global state of the composed network, for {!Explore}.

    One compiled VM per machine instance, a bounded mailbox per
    instance, and the remaining timer and environment budgets.  A
    mailbox is a ring of messages, each a global signal id, an argument
    count and a slice of argument tag codes and values (the tag codes
    of {!Efsm.Compiled.var_tag}).  Encoding writes the whole state as a
    flat int vector, decoding restores it, and a step dispatches and
    routes by id; none of the three allocates, except for the effect
    values a firing machine itself produces.

    Vector layout, per instance in index order: control-state id, a
    (tag, value) pair per variable slot, mailbox length, then per
    queued message from the head: signal id, argument count and a
    (tag, value) pair per argument.  Then every instance's timer budget
    and every environment input's injection budget.  Signal ids, counts
    and state ids are {e structure} slots: they fix where every later
    slot sits and are never masked. *)

type t

exception Overflow of int * int
(** [(dest, gsig)]: delivering [gsig] would exceed [dest]'s capacity. *)

val create :
  ?coi:Coi.t -> Net.t -> capacity:int -> timer_budget:int -> env_budget:int -> t
(** A world whose VMs are fresh (before initial entry), with empty
    mailboxes and full budgets.  [coi] decides the keep-mask {!encode}
    writes: without it every slot is kept. *)

val init : t -> unit
(** Run every instance's initial entry actions and completions, in
    instance order, routing what they send.  Raises {!Overflow}. *)

(** {2 Steps} *)

type step =
  | S_deliver of int  (** instance delivers its queue head *)
  | S_timer of int  (** instance's armed timer fires *)
  | S_inject of int
      (** environment input injects its signal with the canonical zero
          payload *)

(** On the search's hot path a step travels as an int code, built by
    these three and read back by {!step_of_code}. *)

val deliver : int -> int
val timer : int -> int
val inject : int -> int
val step_of_code : int -> step

val apply : t -> int -> int
(** Execute a step given by its code.  For a delivery or timer step the
    result is the declaration index of the transition that fired, -1
    after a discard; -1 for an injection.  Raises {!Overflow} when an emission exceeds a
    mailbox's capacity (the world is then partially updated). *)

val queue_length : t -> int -> int

val head_signal : t -> int -> int
(** Global signal id of a non-empty mailbox's head. *)

val timer_enabled : t -> int -> bool
(** The instance has timer budget left and its state arms a timer. *)

val env_left : t -> int -> int
val state_id : t -> int -> int

(** {2 Vectors} *)

val encode : t -> int
(** Write the state to {!vector}, with its keep-mask in {!keep}, and
    return its length. *)

val vector : t -> int array
(** The buffer {!encode} last wrote; valid until the next [encode]. *)

val keep : t -> bool array
(** [keep.(i)] is false where the cone of influence masks slot [i]. *)

val decode : t -> int array -> unit
(** Restore a state from a vector {!encode} wrote (its first slots). *)
