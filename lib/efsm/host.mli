(** The one EFSM host surface, engine-neutral and id-level.

    Every host of an automaton — the co-simulation runtime, the WLAN
    fleet and the model checker's counterexample replayer — steps a
    {!t} through the functions below, whichever engine runs it.  Both
    engines implement the identical reactive contract ({!Interp}
    documents it; {!Compiled} mirrors it bit for bit), so whatever a host
    builds on a step — traces, flows, faults — cannot drift between them.

    A host builds one {!table} per compiled program: its inputs (signals
    with positional parameter names) become dispatch ids and parameter
    slots, and its send statements become {e sites}, one per distinct
    (port, signal) pair.  A step ({!dispatch} on an input id with
    positional raw arguments, {!fire_timer}, {!initial_entry},
    {!run_completions}) leaves its effects behind one cursor.

    Under [Compiled] the cursor reads the VM's flat effect buffer and
    nothing is boxed.  Under [Reference] the interpreter computes every
    step and the host only translates the boxed step into the cursor (a
    send to its site by (port, signal), a value to its tag and raw
    value): the compiled program is used for its tables only. *)

type kind =
  | Reference  (** the tree-walking {!Interp}: the semantics oracle *)
  | Compiled  (** {!Compiled} bytecode over interned dispatch tables *)

(** {2 Input tables} *)

type table

val table : Compiled.program -> inputs:(string * string array) array -> table
(** Input [i] is signal [fst inputs.(i)]; its positional argument [k]
    binds parameter [(snd inputs.(i)).(k)], and arguments past the
    names bind nothing.  Build once per program and share it between
    the program's instances. *)

val sites : table -> (string * string) array
(** [(port, signal)] of every site, indexed by the ids {!effect_site}
    reports. *)

val site : table -> port:string -> signal:string -> int option
(** The site of a (port, signal) pair, [None] when no send uses it. *)

val input_sid : table -> int -> int
(** {!Compiled.signal_id_of_name} of input [i], [-1] when the machine
    never consumes it; with {!input_pids}, the arguments
    {!Compiled.dispatch_raw} takes for a host that drives a VM itself. *)

val input_pids : table -> int -> int array
(** Parameter slot of each positional argument of input [i], [-1] when
    no guard or action reads it. *)

val site_of_vm_site : table -> int -> int
(** The site of a {!Compiled.send_sites} index. *)

(** {2 Instances} *)

type t

val create : kind -> table -> t
(** A fresh instance, before initial entry, of the table's machine. *)

val state_id : t -> int
(** Current state, as a {!Compiled.state_id_of_name} id of the table's
    program under either engine. *)

val state : t -> string
val read_var : t -> string -> Action.value option

val timer_request : t -> int option
(** {!Interp.timer_request}. *)

val dispatch :
  t -> input:int -> argt:int array -> argv:int array -> off:int -> argc:int -> int
(** Consume one event of input [input] ({!Interp.dispatch}) whose
    argument [k < argc] has tag code [argt.(off + k)] (1 integer,
    2 boolean, 0 absent) and raw value [argv.(off + k)].  Returns the
    declaration index of the fired transition, [-1] after a discard. *)

val fire_timer : t -> int
(** Fire the armed timer in the current state ({!Interp.fire_timer});
    the result reads like {!dispatch}'s. *)

val initial_entry : t -> unit
(** The initial state's entry actions; call once, before any step. *)

val run_completions : t -> unit
(** Completion transitions to quiescence. *)

(** {2 The effect cursor}

    The effects of the last step that fired a transition (or of the
    last {!initial_entry} or {!run_completions}), in execution order;
    a discard leaves the cursor as it was.  Readers raise
    [Invalid_argument] outside [0 <= i < effect_count]. *)

val effect_count : t -> int

val effect_site : t -> int -> int
(** Site ({!sites}) of the [i]th effect, [-1] for a compute effect. *)

val effect_argc : t -> int -> int
(** Argument count of the [i]th effect; a compute effect has one, its
    cycle count. *)

val effect_arg : t -> int -> int -> int
(** Raw value of argument [k] of the [i]th effect (0/1 for a boolean). *)

val effect_arg_tag : t -> int -> int -> int
(** Tag code of argument [k] of the [i]th effect: 1 integer, 2 boolean. *)
