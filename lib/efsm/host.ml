type kind = Reference | Compiled

type t = Interp of Interp.t | Vm of Compiled.t

let create kind ~program machine =
  match kind with
  | Reference -> Interp (Interp.create machine)
  | Compiled -> Vm (Compiled.create (program machine))

let state = function
  | Interp i -> Interp.state i
  | Vm c -> Compiled.state c

let read_var e name =
  match e with
  | Interp i -> Interp.read_var i name
  | Vm c -> Compiled.read_var c name

let dispatch e ~signal ~args =
  match e with
  | Interp i -> Interp.dispatch i ~signal ~args
  | Vm c -> Compiled.dispatch c ~signal ~args

let fire_timer e ~entered_state =
  match e with
  | Interp i -> Interp.fire_timer i ~entered_state
  | Vm c -> Compiled.fire_timer c ~entered_state

let initial_entry = function
  | Interp i -> Interp.initial_entry i
  | Vm c -> Compiled.initial_entry c

let run_completions = function
  | Interp i -> Interp.run_completions i
  | Vm c -> Compiled.run_completions c

let timer_request = function
  | Interp i -> Interp.timer_request i
  | Vm c -> Compiled.timer_request c
