(** Explicit-state exploration of the composed EFSM network.

    Breadth- or depth-first search over global states (every machine
    instance's control state and variables, every bounded mailbox, the
    remaining budgets), with partial-order reduction and a
    cone-of-influence state key.  Finds reachable global deadlocks and
    queue overflows with the schedule that reaches them, and reports
    control states and triggered transitions the search never covered. *)

type order = Dfs | Bfs

type budget = {
  max_states : int;
  max_depth : int;  (** 0 = unlimited *)
  queue_capacity : int;
  env_budget : int;  (** injections per environment input *)
  timer_budget : int;  (** timer fires per instance *)
}

val default_budget : budget
(** 200k states, unlimited depth, capacity 8, one injection per
    environment input, two timer fires per instance: the reference
    TUTMAC network is exhausted in well under a second. *)

type config = {
  order : order;
  budget : budget;
  por : bool;  (** partial-order reduction *)
  coi : bool;  (** cone-of-influence state key ({!Coi}) *)
  check_deadlock : bool;
  check_overflow : bool;
}

val default_config : config
(** BFS, {!default_budget}, POR and COI on, both properties checked. *)

type step = World.step =
  | S_deliver of int  (** instance delivers its queue head *)
  | S_timer of int  (** instance's armed timer fires *)
  | S_inject of int  (** environment input injects its signal *)

type violation =
  | V_deadlock of { members : int list }
      (** detected at the end of the returned schedule *)
  | V_overflow of { dest : int; gsig : int }
      (** the schedule's last step enqueues past capacity at [dest] *)

type stats = {
  states : int;
  steps : int;  (** global transitions executed *)
  dedup : int;  (** successors merged into an already-visited state *)
  frontier_peak : int;
  exhausted : bool;
}

type result = {
  stats : stats;
  violation : (violation * step list) option;
      (** with the schedule reaching it from the initial state *)
  unreached_states : (string * string) list;  (** (instance path, state) *)
  unfired_transitions : (string * int) list;
      (** (instance path, index into the machine's transition list);
          [On_signal]/[After] transitions only — completions are
          tracked through state coverage *)
  caveats : string list;
}

val run : ?config:config -> Net.t -> result
(** Explore from the initial global state until the frontier empties, a
    checked property is violated, or [max_states] is reached.  Raises
    [Efsm.Action.Type_error] when a guard or action fails. *)
