type t = {
  machine : Machine.t;
  mutable state : string;
  mutable env : Action.env;
}

type step = {
  fired : Machine.transition option;
  effects : Action.effect list;
}

let create machine =
  {
    machine;
    state = machine.Machine.initial;
    env = Action.env_of_bindings machine.Machine.variables;
  }

let state t = t.state
let variables t = Action.env_bindings t.env
let read_var t name = Action.lookup t.env name

let guard_holds t ~params tr =
  match tr.Machine.guard with
  | None -> true
  | Some expr -> Action.eval_bool t.env ~params expr

(* UML external-transition semantics: exit actions of the source, then
   the transition's own actions, then entry actions of the target (also
   on self-transitions, which exit and re-enter). *)
let fire t ~params tr =
  let exit_effects =
    Action.exec t.env ~params (Machine.exit_of t.machine t.state)
  in
  let action_effects = Action.exec t.env ~params tr.Machine.actions in
  t.state <- tr.Machine.target;
  let entry_effects =
    Action.exec t.env ~params (Machine.entry_of t.machine t.state)
  in
  exit_effects @ action_effects @ entry_effects

(* Completion transitions chain (state A -completion-> B -completion-> C);
   bound the chain so a guard that is always true cannot livelock. *)
let max_completion_chain = 1_000
let completion_livelock_message = "completion transition livelock"

let run_completions t =
  let rec loop count acc =
    if count > max_completion_chain then
      raise (Action.Type_error completion_livelock_message);
    let enabled =
      List.find_opt
        (fun tr ->
          match tr.Machine.trigger with
          | Machine.Completion -> guard_holds t ~params:[] tr
          | Machine.On_signal _ | Machine.After _ -> false)
        (Machine.outgoing t.machine t.state)
    in
    match enabled with
    | None -> List.concat (List.rev acc)
    | Some tr -> loop (count + 1) (fire t ~params:[] tr :: acc)
  in
  loop 0 []

let dispatch t ~signal ~args =
  let enabled =
    List.find_opt
      (fun tr ->
        match tr.Machine.trigger with
        | Machine.On_signal s -> s = signal && guard_holds t ~params:args tr
        | Machine.After _ | Machine.Completion -> false)
      (Machine.outgoing t.machine t.state)
  in
  match enabled with
  | None -> { fired = None; effects = [] }
  | Some tr ->
    let effects = fire t ~params:args tr in
    let completions = run_completions t in
    { fired = Some tr; effects = effects @ completions }

let timer_request t =
  let delays =
    List.filter_map
      (fun tr ->
        match tr.Machine.trigger with
        | Machine.After delay -> Some delay
        | Machine.On_signal _ | Machine.Completion -> None)
      (Machine.outgoing t.machine t.state)
  in
  match List.sort compare delays with [] -> None | d :: _ -> Some d

(* The runtime arms one timer per state, for the earliest [After] delay
   ({!timer_request}).  When it fires, only transitions with exactly
   that delay are due — a longer [After] declared earlier must not fire
   at the shorter transition's expiry (it used to; see test_efsm's
   "timer fires the armed delay, not the first declared After"). *)
let fire_timer t ~entered_state =
  if t.state <> entered_state then { fired = None; effects = [] }
  else
    match timer_request t with
    | None -> { fired = None; effects = [] }
    | Some armed ->
      let enabled =
        List.find_opt
          (fun tr ->
            match tr.Machine.trigger with
            | Machine.After delay -> delay = armed && guard_holds t ~params:[] tr
            | Machine.On_signal _ | Machine.Completion -> false)
          (Machine.outgoing t.machine t.state)
      in
      (match enabled with
      | None -> { fired = None; effects = [] }
      | Some tr ->
        let effects = fire t ~params:[] tr in
        let completions = run_completions t in
        { fired = Some tr; effects = effects @ completions })

let initial_entry t =
  Action.exec t.env ~params:[] (Machine.entry_of t.machine t.machine.Machine.initial)

let reset t =
  t.state <- t.machine.Machine.initial;
  t.env <- Action.env_of_bindings t.machine.Machine.variables
