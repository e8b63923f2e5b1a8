type kind = Reference | Compiled

type table = {
  prog : Compiled.program;
  inputs : (string * string array) array;  (** as given to {!table} *)
  sids : int array;  (** input -> dispatch-table id, -1 = never consumed *)
  pids : int array array;  (** input -> parameter slot per position *)
  sites : (string * string) array;  (** site -> (port, signal) *)
  site_of_vm : int array;  (** compiled send-site id -> site *)
}

let table prog ~inputs =
  let or_none = Option.value ~default:(-1) in
  (* Sites in order of first appearance; [found] is reversed, so its
     head is the latest site. *)
  let found = ref [] in
  let site_of_vm =
    Array.map
      (fun (s : Compiled.send_site) ->
        let port = s.Compiled.s_port and signal = s.Compiled.s_signal in
        let n = List.length !found in
        let rec find i = function
          | [] ->
            found := (port, signal) :: !found;
            n
          | (p, g) :: rest ->
            if String.equal p port && String.equal g signal then i
            else find (i - 1) rest
        in
        find (n - 1) !found)
      (Compiled.send_sites prog)
  in
  {
    prog;
    inputs;
    sids =
      Array.map
        (fun (name, _) -> or_none (Compiled.signal_id_of_name prog name))
        inputs;
    pids =
      Array.map
        (fun (_, params) ->
          Array.map (fun p -> or_none (Compiled.param_id_of_name prog p)) params)
        inputs;
    sites = Array.of_list (List.rev !found);
    site_of_vm;
  }

let sites tbl = tbl.sites
let input_sid tbl input = tbl.sids.(input)
let input_pids tbl input = tbl.pids.(input)
let site_of_vm_site tbl site = tbl.site_of_vm.(site)

(* The interpreter computes every step; the cursor reads its boxed
   effects, each as a site and an argument array. *)
type reference = {
  interp : Interp.t;
  transitions : Machine.transition array;  (** declaration order *)
  mutable state_id : int;
  mutable effect_sites : int array;  (** -1 for a compute effect *)
  mutable effect_args : Action.value array array;
}

type t = Vm of { tbl : table; vm : Compiled.t } | Ref of { tbl : table; r : reference }

let create kind tbl =
  match kind with
  | Compiled -> Vm { tbl; vm = Compiled.create tbl.prog }
  | Reference ->
    let machine = Compiled.machine tbl.prog in
    Ref
      {
        tbl;
        r =
          {
            interp = Interp.create machine;
            transitions = Array.of_list machine.Machine.transitions;
            state_id =
              Option.get
                (Compiled.state_id_of_name tbl.prog machine.Machine.initial);
            effect_sites = [||];
            effect_args = [||];
          };
      }

let state_id = function
  | Vm { vm; _ } -> Compiled.state_id vm
  | Ref { r; _ } -> r.state_id

let state = function
  | Vm { vm; _ } -> Compiled.state vm
  | Ref { r; _ } -> Interp.state r.interp

let read_var h name =
  match h with
  | Vm { vm; _ } -> Compiled.read_var vm name
  | Ref { r; _ } -> Interp.read_var r.interp name

let timer_request = function
  | Vm { vm; _ } -> Compiled.timer_request vm
  | Ref { r; _ } -> Interp.timer_request r.interp

let site tbl ~port ~signal =
  let rec find i =
    if i = Array.length tbl.sites then None
    else
      let p, g = tbl.sites.(i) in
      if String.equal p port && String.equal g signal then Some i else find (i + 1)
  in
  find 0

(* After a reference step that fired (a compiled discard leaves its
   buffer alone too): refresh the state id and the effects. *)
let settle tbl r effects =
  r.state_id <-
    Option.get (Compiled.state_id_of_name tbl.prog (Interp.state r.interp));
  let effects = Array.of_list effects in
  r.effect_sites <-
    Array.map
      (function
        | Action.Eff_compute _ -> -1
        | Action.Eff_send { port; signal; _ } -> Option.get (site tbl ~port ~signal))
      effects;
  r.effect_args <-
    Array.map
      (function
        | Action.Eff_compute cycles -> [| Action.V_int cycles |]
        | Action.Eff_send { args; _ } -> Array.of_list args)
      effects

let fired_index tbl r (step : Interp.step) =
  match step.Interp.fired with
  | None -> -1
  | Some tr ->
    settle tbl r step.Interp.effects;
    let rec find i = if r.transitions.(i) == tr then i else find (i + 1) in
    find 0

let dispatch h ~input ~argt ~argv ~off ~argc =
  match h with
  | Vm { tbl; vm } ->
    Compiled.dispatch_raw vm ~sid:tbl.sids.(input) ~pids:tbl.pids.(input) ~argt
      ~argv ~off ~argc
  | Ref { tbl; r } ->
    let signal, params = tbl.inputs.(input) in
    let rec named k =
      if k >= min argc (Array.length params) then []
      else
        let v = argv.(off + k) in
        match argt.(off + k) with
        | 0 -> named (k + 1)
        | 1 -> (params.(k), Action.V_int v) :: named (k + 1)
        | _ -> (params.(k), Action.V_bool (v <> 0)) :: named (k + 1)
    in
    fired_index tbl r (Interp.dispatch r.interp ~signal ~args:(named 0))

let fire_timer = function
  | Vm { vm; _ } -> Compiled.fire_timer_raw vm
  | Ref { tbl; r } ->
    fired_index tbl r
      (Interp.fire_timer r.interp ~entered_state:(Interp.state r.interp))

let initial_entry = function
  | Vm { vm; _ } -> ignore (Compiled.initial_entry vm)
  | Ref { tbl; r } -> settle tbl r (Interp.initial_entry r.interp)

let run_completions = function
  | Vm { vm; _ } -> ignore (Compiled.run_completions vm)
  | Ref { tbl; r } -> settle tbl r (Interp.run_completions r.interp)

(* ---- the effect cursor ---------------------------------------------- *)

let effect_count = function
  | Vm { vm; _ } -> Compiled.effect_count vm
  | Ref { r; _ } -> Array.length r.effect_sites

let effect_site h i =
  match h with
  | Vm { tbl; vm } ->
    let site = Compiled.effect_site vm i in
    if site < 0 then site else tbl.site_of_vm.(site)
  | Ref { r; _ } -> r.effect_sites.(i)

let effect_argc h i =
  match h with
  | Vm { vm; _ } -> Compiled.effect_argc vm i
  | Ref { r; _ } -> Array.length r.effect_args.(i)

let effect_arg h i k =
  match h with
  | Vm { vm; _ } -> Compiled.effect_arg vm i k
  | Ref { r; _ } -> (
    match r.effect_args.(i).(k) with Action.V_int n -> n | Action.V_bool b -> Bool.to_int b)

let effect_arg_tag h i k =
  match h with
  | Vm { vm; _ } -> Compiled.effect_arg_tag vm i k
  | Ref { r; _ } -> (
    match r.effect_args.(i).(k) with Action.V_int _ -> 1 | Action.V_bool _ -> 2)
