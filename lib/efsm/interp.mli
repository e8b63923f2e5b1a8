(** EFSM interpreter.

    One {!t} is a running instance of a {!Machine.t}: current state plus a
    mutable variable environment.  The interpreter is *reactive* — the
    surrounding runtime owns time, queues and timers; it calls
    {!dispatch} / {!fire_timer} / {!run_completions} and receives the
    effects (signal emissions, computation costs) each step produced. *)

type t

type step = {
  fired : Machine.transition option;
      (** [None] when the event was discarded (no enabled transition) *)
  effects : Action.effect list;
}

val create : Machine.t -> t
(** Fresh instance in the initial state with initial variable values. *)

val state : t -> string
val variables : t -> (string * Action.value) list
val read_var : t -> string -> Action.value option

val dispatch : t -> signal:string -> args:(string * Action.value) list -> step
(** Consume one signal event.  The first enabled [On_signal] transition
    (declaration order) from the current state fires; the event is
    discarded if none is enabled, matching the asynchronous
    discard-on-no-reception semantics of UML 2.0 statecharts.  A firing
    transition's effects are: source exit actions, transition actions,
    target entry actions (external-transition semantics, also for
    self-transitions). *)

val fire_timer : t -> entered_state:string -> step
(** Fire an [After] transition if the instance is still in
    [entered_state] and such a transition is enabled; otherwise the stale
    timer is discarded.  Only transitions whose delay equals the armed
    delay ({!timer_request}, the state's minimum) are considered — a
    longer [After] is not due yet when a shorter one expires. *)

val initial_entry : t -> Action.effect list
(** Execute the initial state's entry actions (call once, before any
    dispatch; the runtime does this at start-of-world). *)

val run_completions : t -> Action.effect list
(** Fire enabled [Completion] transitions to quiescence (bounded; raises
    [Action.Type_error] on a completion livelock). *)

val timer_request : t -> int option
(** Delay of the earliest [After] transition leaving the current state,
    if any — the runtime should arm a timer for the current state. *)

val reset : t -> unit
(** Back to the initial state and initial variable values. *)

val max_completion_chain : int
(** Bound on chained [Completion] transitions per step; exceeding it
    raises [Action.Type_error] {!completion_livelock_message}.  Shared
    with {!Compiled} so both engines livelock identically. *)

val completion_livelock_message : string
