(** Compiled EFSM engine.

    A {!Machine.t} is compiled once ({!compile}) into integer-indexed
    dispatch tables: interned states/signals/variables/parameters,
    per-(state, signal) candidate transition arrays in declaration
    order, and guards/actions flattened into a small stack bytecode
    executed over preallocated arrays.  An instance ({!t}) then steps
    without allocating: effects go to a flat int buffer, and only the
    [Interp.step]-returning entry points box them as [Action.effect]
    lists.

    Observable behaviour is bit-identical to {!Interp} — same firing
    choices, same effect order, same [Action.Type_error] messages in the
    same evaluation order, same loop/completion bounds.  The
    differential suite (test/test_sim_compiled.ml) enforces this under
    fuzzing; a single compiled {!program} can be shared by many
    instances (one per process in a network). *)

type program
(** Immutable compiled form of one machine; shareable across instances. *)

type t
(** Running instance: current state id, variable slots, parameter slots. *)

val compile : Machine.t -> program
(** Validate nothing (callers run {!Machine.check} first, like they do
    for {!Interp.create}) and flatten the machine.  O(states x signals +
    code size); call once per machine, not per instance. *)

val create : program -> t
(** Fresh instance in the initial state with initial variable values. *)

val of_machine : Machine.t -> t
(** [create (compile m)] — convenience for single-instance use. *)

val machine : program -> Machine.t
val program : t -> program
val state : t -> string
val variables : t -> (string * Action.value) list
val read_var : t -> string -> Action.value option

val dispatch :
  t -> signal:string -> args:(string * Action.value) list -> Interp.step
(** Same contract as {!Interp.dispatch}: first enabled [On_signal]
    transition in declaration order fires (exit, actions, entry, then
    chained completions); the event is discarded if none is enabled. *)

val fire_timer : t -> entered_state:string -> Interp.step
(** Same contract as {!Interp.fire_timer}: fires an enabled [After]
    transition whose delay equals the armed ({!timer_request}) delay,
    discarding stale timers. *)

val initial_entry : t -> Action.effect list
(** Same contract as {!Interp.initial_entry}. *)

val run_completions : t -> Action.effect list
(** Same contract as {!Interp.run_completions}. *)

val timer_request : t -> int option
(** Same contract as {!Interp.timer_request}. *)

(** {2 Allocation-free dispatch}

    The [Interp.step]-returning entry points above materialise the
    fired transition and the effect list per event — fine for tests
    and replay, measurable on the simulation hot path.  The [_raw]
    variants below return the fired transition's declaration index and
    leave the effects in the instance's buffer.  Effect [i] is read
    there without allocating through {!effect_site}, {!effect_argc},
    {!effect_arg} and {!effect_arg_tag}; {!effect_at} boxes it.  Every
    reader is valid below {!effect_count} (raising [Invalid_argument]
    otherwise) and only until the next dispatch, {!initial_entry} or
    {!run_completions} on this instance, all of which refill the same
    buffer.  {!Host} puts the same cursor in front of both engines. *)

val effect_count : t -> int
(** Number of effects produced by the last step that fired. *)

val effect_at : t -> int -> Action.effect
(** The [i]th effect, in execution order, as the [Interp.step] API
    returns it (allocated on every call). *)

val effect_site : t -> int -> int
(** Send-site id ({!send_sites}) of the [i]th effect, [-1] for a
    compute effect. *)

val effect_argc : t -> int -> int
(** Argument count of the [i]th effect: its site's [s_argc] for a send,
    [1] for a compute effect (whose one argument is its cycle count). *)

val effect_arg : t -> int -> int -> int
(** [effect_arg t i k] is the raw value of argument [k] of the [i]th
    effect (0/1 for a boolean), like {!var_int}.  Raises
    [Invalid_argument] unless [0 <= k < effect_argc t i]. *)

val effect_arg_tag : t -> int -> int -> int
(** Tag code of argument [k] of the [i]th effect, like {!var_tag}. *)

val dispatch_raw :
  t ->
  sid:int ->
  pids:int array ->
  argt:int array ->
  argv:int array ->
  off:int ->
  argc:int ->
  int
(** {!dispatch} by dispatch-table id ({!signal_id_of_name}; [sid = -1]
    discards) with positional parameters read from int slices:
    argument [k < min argc (Array.length pids)] binds parameter slot
    [pids.(k)] ({!param_id_of_name}, [-1] = never read) to tag code
    [argt.(off + k)] (see {!var_tag}; 0 = absent, binds nothing) and
    value [argv.(off + k)].  The first binding of a slot wins, as with
    named arguments.  Returns the declaration index (in
    [Machine.transitions]) of the fired transition, [-1] when none
    fired; completion transitions chained behind it do not count. *)

val fire_timer_raw : t -> int
(** {!fire_timer} for the current state, returning the fired
    transition's declaration index like {!dispatch_raw}. *)

(** {2 Introspection and direct state access}

    Used by the model checker to encode global states as flat
    id-indexed vectors without boxing a value.  The persistent cross-step state of an instance
    is exactly its state id plus its variable slots — parameter slots,
    loop counters and the effect accumulator are per-step. *)

val n_states : program -> int
val n_vars : program -> int
val state_name_of_id : program -> int -> string
val var_name_of_id : program -> int -> string
val state_id_of_name : program -> string -> int option

val signal_id_of_name : program -> string -> int option
(** Consumed signals only; [None] means a dispatch of this signal is
    discarded without looking at the state. *)

val param_id_of_name : program -> string -> int option
(** Parameter slot of a name some guard or action reads. *)

type send_site = { s_port : string; s_signal : string; s_argc : int }

val send_sites : program -> send_site array
(** Every [Send] statement, indexed by the site ids {!effect_site}
    reports. *)

val after_min_of : program -> int -> int
(** Earliest [After] delay out of the given state id, [-1] when the
    state has no timer transition (mirrors {!timer_request}). *)

val state_id : t -> int
val set_state_id : t -> int -> unit

val var_tag : t -> int -> int
(** Tag code of a variable slot: 0 unbound, 1 integer, 2 boolean. *)

val var_int : t -> int -> int
(** Raw value of a variable slot (0/1 for a boolean); meaningless when
    the slot is unbound. *)

val set_var_raw : t -> int -> tag:int -> value:int -> unit
(** Inverse of {!var_tag}/{!var_int}. *)
