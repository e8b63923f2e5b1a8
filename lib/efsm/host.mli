(** The one place the EFSM engine choice lives.

    Every host of an automaton — the co-simulation runtime, the WLAN
    fleet and the model checker's counterexample replayer — holds a
    {!t} and steps it through the forwarders below.  Both engines
    implement the identical reactive contract ({!Interp} documents it;
    {!Compiled} mirrors it bit for bit), so whatever a host builds on a
    step — traces, flows, faults — cannot drift between engines.

    The constructors are exposed so a hot path can match [Vm] directly
    and use {!Compiled}'s allocation-free id dispatch; the forwarders
    here are the cold paths. *)

type kind =
  | Reference  (** the tree-walking {!Interp}: the semantics oracle *)
  | Compiled  (** {!Compiled} bytecode over interned dispatch tables *)

type t = Interp of Interp.t | Vm of Compiled.t

val create : kind -> program:(Machine.t -> Compiled.program) -> Machine.t -> t
(** A fresh instance of the machine on the chosen engine.  [program] is
    asked for the machine's compiled form only under [Compiled], so
    hosts can share one program across many instances. *)

val state : t -> string
val read_var : t -> string -> Action.value option

val dispatch : t -> signal:string -> args:(string * Action.value) list -> Interp.step
(** {!Interp.dispatch} / {!Compiled.dispatch}. *)

val fire_timer : t -> entered_state:string -> Interp.step
val initial_entry : t -> Action.effect list
val run_completions : t -> Action.effect list
val timer_request : t -> int option
