(* Differential testing of the compiled execution path against the
   reference one, at every layer:

   - machine level: random EFSMs (nested guards, random actions,
     hierarchical machines flattened with Efsm.Hsm) driven in lockstep
     through Efsm.Interp and Efsm.Compiled — states, variables, fired
     transitions, effects, timer requests and error messages must agree
     on every step;
   - network level: random process networks (self-sends, fan-out
     bindings, local and HIBI-routed signals) run under both
     Codegen.Runtime engines — the simulation traces must be
     byte-identical, event for event;
   - scenario level: the TUTMAC case study (fault-free, fault-injected,
     flow-traced) under both engines with full-trace diffs;
   - queue level: QCheck properties driving Sim.Engine's calendar
     queue in lockstep with its binary-heap backend and a sorted model
     through schedule_at_ns / cancel / rearm_ns / step: the exact
     (time, seq) total order, FIFO within a timestamp, ordering across
     buckets, lazy dead-entry dropping, resize behaviour, in-place
     re-arming, and the same pending count throughout. *)

open Efsm

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* -- machine-level lockstep ------------------------------------------ *)

(* Same action-language generators as test_efsm's notation round-trips:
   they produce ill-typed programs on purpose, so the differential also
   covers Type_error parity (message and evaluation order). *)

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        let leaf =
          oneof
            [
              map (fun n -> Action.Int n) (int_range 0 1000);
              map (fun b -> Action.Bool b) bool;
              map (fun s -> Action.Var s) (oneofl [ "x"; "y"; "count" ]);
              map (fun s -> Action.Param s) (oneofl [ "seq"; "frag" ]);
            ]
        in
        if size <= 1 then leaf
        else
          oneof
            [
              leaf;
              map (fun e -> Action.Neg e) (self (size / 2));
              map (fun e -> Action.Not e) (self (size / 2));
              (let* op =
                 oneofl
                   [
                     Action.Add; Action.Sub; Action.Mul; Action.Div; Action.Mod;
                     Action.Eq; Action.Ne; Action.Lt; Action.Le; Action.Gt;
                     Action.Ge; Action.And; Action.Or;
                   ]
               in
               let* a = self (size / 2) in
               let* b = self (size / 2) in
               return (Action.Bin (op, a, b)));
            ]))

let gen_stmt =
  QCheck.Gen.(
    sized @@ fix (fun self size ->
        let leaf =
          oneof
            [
              (let* name = oneofl [ "x"; "y" ] in
               let* e = gen_expr in
               return (Action.Assign (name, e)));
              (let* port = oneofl [ "out"; "dp" ] in
               let* signal = oneofl [ "Sig"; "Data" ] in
               let* n = int_range 0 2 in
               let* args = list_repeat n gen_expr in
               return (Action.Send { port; signal; args }));
              map (fun e -> Action.Compute e) gen_expr;
            ]
        in
        if size <= 1 then leaf
        else
          oneof
            [
              leaf;
              (let* cond = gen_expr in
               let* nthen = int_range 1 2 in
               let* then_ = list_repeat nthen (self (size / 2)) in
               let* nelse = int_range 0 2 in
               let* else_ = list_repeat nelse (self (size / 2)) in
               return (Action.If (cond, then_, else_)));
              (let* cond = gen_expr in
               let* n = int_range 1 2 in
               let* body = list_repeat n (self (size / 2)) in
               return (Action.While (cond, body)));
            ]))

let gen_transition states =
  QCheck.Gen.(
    let* src = oneofl states in
    let* dst = oneofl states in
    let* trigger =
      oneof
        [
          map (fun s -> Machine.On_signal s) (oneofl [ "go"; "stop"; "tick" ]);
          map (fun n -> Machine.After n) (int_range 1 100_000);
          return Machine.Completion;
        ]
    in
    let* has_guard = bool in
    let* guard = gen_expr in
    let* n_actions = int_range 0 2 in
    let* actions = list_repeat n_actions gen_stmt in
    return
      (Machine.transition
         ?guard:(if has_guard then Some guard else None)
         ~actions ~src ~dst trigger))

let gen_machine =
  QCheck.Gen.(
    let states = [ "s0"; "s1"; "s2" ] in
    let* n_transitions = int_range 0 8 in
    let* transitions = list_repeat n_transitions (gen_transition states) in
    let* variables =
      let* vx = int_range (-50) 50 in
      let* vb = bool in
      return [ ("x", Action.V_int vx); ("done_", Action.V_bool vb) ]
    in
    let gen_state_actions =
      let* with_actions = bool in
      if not with_actions then return []
      else
        let* state = oneofl states in
        let* n = int_range 1 2 in
        let* stmts = list_repeat n gen_stmt in
        return [ (state, stmts) ]
    in
    let* entry_actions = gen_state_actions in
    let* exit_actions = gen_state_actions in
    return
      (Machine.make ~name:"gen" ~states ~initial:"s0" ~variables ~entry_actions
         ~exit_actions transitions))

(* Hierarchical machines: a fixed two-level shape (composite [c] with
   substates, one optionally nested composite) with random transitions
   over all state names, flattened to a flat machine.  Flattening is the
   interesting part — inherited transitions, inner-first priority and
   initial-chain entry all end up as ordinary declaration-order
   transitions both engines must read identically. *)
let gen_hsm_machine =
  QCheck.Gen.(
    let* nested = bool in
    let inner =
      if nested then
        Hsm.composite ~name:"c2" ~initial:"d1" [ Hsm.simple "d1"; Hsm.simple "d2" ]
      else Hsm.simple "c2"
    in
    let states =
      [
        Hsm.simple "a";
        Hsm.composite ~name:"c" ~initial:"c1" [ Hsm.simple "c1"; inner ];
        Hsm.simple "b";
      ]
    in
    let names =
      [ "a"; "b"; "c"; "c1"; "c2" ] @ if nested then [ "d1"; "d2" ] else []
    in
    let* n_transitions = int_range 1 8 in
    let* transitions = list_repeat n_transitions (gen_transition names) in
    let* vx = int_range (-50) 50 in
    let hsm =
      {
        Hsm.name = "hgen";
        states;
        initial = "a";
        variables = [ ("x", Action.V_int vx); ("done_", Action.V_bool false) ];
        transitions;
      }
    in
    match Hsm.check hsm with
    | [] -> (
      match Hsm.flatten hsm with Ok m -> return (Some m) | Error _ -> return None)
    | _ -> return None)

type op =
  | Op_dispatch of string * (string * Action.value) list
  | Op_timer of bool  (** [true]: entered_state is the current state *)
  | Op_completions

let gen_op =
  QCheck.Gen.(
    oneof
      [
        (let* signal = oneofl [ "go"; "stop"; "tick"; "other" ] in
         let* n_args = int_range 0 3 in
         let* args =
           list_repeat n_args
             (let* name = oneofl [ "seq"; "frag"; "seq" ] in
              let* value =
                oneof
                  [
                    map (fun n -> Action.V_int n) (int_range (-5) 20);
                    map (fun b -> Action.V_bool b) bool;
                  ]
              in
              return (name, value))
         in
         return (Op_dispatch (signal, args)));
        map (fun valid -> Op_timer valid) bool;
        return Op_completions;
      ])

let gen_ops = QCheck.Gen.(list_size (int_range 1 25) gen_op)

let print_op = function
  | Op_dispatch (s, args) ->
    Printf.sprintf "dispatch %s(%s)" s
      (String.concat ","
         (List.map
            (fun (n, v) ->
              Printf.sprintf "%s=%s" n
                (match v with
                | Action.V_int i -> string_of_int i
                | Action.V_bool b -> string_of_bool b))
            args))
  | Op_timer valid -> if valid then "timer" else "stale-timer"
  | Op_completions -> "completions"

type outcome =
  | O_step of Machine.transition option * Action.effect list
  | O_effects of Action.effect list
  | O_error of string

(* Run one op on either engine, funnelled through the same outcome type
   so the comparison is a structural equality. *)
let catching f = try f () with Action.Type_error m -> O_error m

let interp_op inst op =
  catching (fun () ->
      match op with
      | Op_dispatch (signal, args) ->
        let st = Interp.dispatch inst ~signal ~args in
        O_step (st.Interp.fired, st.Interp.effects)
      | Op_timer valid ->
        let entered = if valid then Interp.state inst else "__stale__" in
        let st = Interp.fire_timer inst ~entered_state:entered in
        O_step (st.Interp.fired, st.Interp.effects)
      | Op_completions -> O_effects (Interp.run_completions inst))

let compiled_op inst op =
  catching (fun () ->
      match op with
      | Op_dispatch (signal, args) ->
        let st = Compiled.dispatch inst ~signal ~args in
        O_step (st.Interp.fired, st.Interp.effects)
      | Op_timer valid ->
        let entered = if valid then Compiled.state inst else "__stale__" in
        let st = Compiled.fire_timer inst ~entered_state:entered in
        O_step (st.Interp.fired, st.Interp.effects)
      | Op_completions -> O_effects (Compiled.run_completions inst))

let sorted_vars l = List.sort compare l

let pp_outcome = function
  | O_error m -> "error: " ^ m
  | O_step (fired, effects) ->
    Printf.sprintf "step fired=%s effects=%d"
      (match fired with None -> "-" | Some t -> t.Machine.source ^ "->" ^ t.Machine.target)
      (List.length effects)
  | O_effects effects -> Printf.sprintf "effects=%d" (List.length effects)

(* Position of [tr] in the machine's declaration order. *)
let decl_index machine tr =
  let rec find i = function
    | [] -> -1
    | t :: rest -> if t == tr then i else find (i + 1) rest
  in
  find 0 machine.Machine.transitions

(* Drive both engines through [ops] in lockstep; true iff every step
   agrees.  Stops at the first error (the instance state after an
   exception is unspecified, but the message must match). *)
let lockstep machine ops =
  let ri = Interp.create machine in
  let ci = Compiled.of_machine machine in
  let fail op_label a b =
    QCheck.Test.fail_reportf "engines diverge on %s:\n  reference: %s\n  compiled:  %s\n%s"
      op_label (pp_outcome a) (pp_outcome b)
      (Notation.print_machine machine)
  in
  let agree op_label a b =
    if a <> b then fail op_label a b;
    match (a, b) with O_error _, _ -> false | _ -> true
  in
  let sync op_label =
    if Interp.state ri <> Compiled.state ci then
      QCheck.Test.fail_reportf "state diverges after %s: %s vs %s\n%s" op_label
        (Interp.state ri) (Compiled.state ci)
        (Notation.print_machine machine);
    if sorted_vars (Interp.variables ri) <> sorted_vars (Compiled.variables ci)
    then
      QCheck.Test.fail_reportf "variables diverge after %s\n%s" op_label
        (Notation.print_machine machine);
    if Interp.timer_request ri <> Compiled.timer_request ci then
      QCheck.Test.fail_reportf "timer request diverges after %s\n%s" op_label
        (Notation.print_machine machine)
  in
  let init_r = catching (fun () -> O_effects (Interp.initial_entry ri)) in
  let init_c = catching (fun () -> O_effects (Compiled.initial_entry ci)) in
  if agree "initial entry" init_r init_c then begin
    sync "initial entry";
    let rec go = function
      | [] -> ()
      | op :: rest ->
        let label = print_op op in
        let outcome = interp_op ri op in
        if agree label outcome (compiled_op ci op) then begin
          sync label;
          go rest
        end
    in
    go ops
  end;
  true

let prop_lockstep_flat =
  QCheck.Test.make ~name:"lockstep: random flat machines" ~count:300
    (QCheck.make
       ~print:(fun (m, ops) ->
         Notation.print_machine m ^ "\nops: "
         ^ String.concat "; " (List.map print_op ops))
       QCheck.Gen.(pair gen_machine gen_ops))
    (fun (machine, ops) -> lockstep machine ops)

let prop_lockstep_hsm =
  QCheck.Test.make ~name:"lockstep: flattened hierarchical machines" ~count:200
    (QCheck.make
       ~print:(fun (m, ops) ->
         (match m with
         | Some m -> Notation.print_machine m
         | None -> "<ill-formed hsm>")
         ^ "\nops: "
         ^ String.concat "; " (List.map print_op ops))
       QCheck.Gen.(pair gen_hsm_machine gen_ops))
    (fun (machine, ops) ->
      match machine with None -> true | Some m -> lockstep m ops)

(* -- id-level surface ------------------------------------------------- *)

(* The raw readers of effect [k] rebuild [values] exactly: the count,
   every tag code and every raw value. *)
let raw_args_match ci k values =
  Compiled.effect_argc ci k = List.length values
  && List.for_all2
       (fun a value ->
         let tag = Compiled.effect_arg_tag ci k a
         and raw = Compiled.effect_arg ci k a in
         match value with
         | Action.V_int n -> tag = 1 && raw = n
         | Action.V_bool b -> tag = 2 && raw = if b then 1 else 0)
       (List.init (List.length values) Fun.id)
       values

(* Every effect in the buffer names its send site: the site's port,
   signal and arity match the effect, and compute effects name none.
   The allocation-free readers agree with the boxed effect: a send's
   arguments, a compute effect's one argument (its cycle count). *)
let sites_match ci =
  let sites = Compiled.send_sites (Compiled.program ci) in
  List.for_all
    (fun k ->
      match (Compiled.effect_at ci k, Compiled.effect_site ci k) with
      | Action.Eff_compute cycles, site ->
        site = -1 && raw_args_match ci k [ Action.V_int cycles ]
      | Action.Eff_send { port; signal; args }, site ->
        site >= 0
        &&
        let s = sites.(site) in
        s.Compiled.s_port = port && s.Compiled.s_signal = signal
        && s.Compiled.s_argc = List.length args
        && raw_args_match ci k args)
    (List.init (Compiled.effect_count ci) Fun.id)

let effect_sites machine ops =
  let ci = Compiled.of_machine machine in
  let fail label =
    QCheck.Test.fail_reportf "effect sites disagree after %s\n%s" label
      (Notation.print_machine machine)
  in
  match Compiled.initial_entry ci with
  | exception Action.Type_error _ -> true
  | _ ->
    if not (sites_match ci) then fail "initial entry";
    let rec go = function
      | [] -> true
      | op :: rest -> (
        match compiled_op ci op with
        | O_error _ -> true
        | O_step (None, _) -> go rest
        | O_step (Some _, _) | O_effects _ ->
          if not (sites_match ci) then fail (print_op op);
          go rest)
    in
    go ops

let prop_effect_sites =
  QCheck.Test.make ~name:"effect sites name the sending statement" ~count:300
    (QCheck.make
       ~print:(fun (m, ops) ->
         Notation.print_machine m ^ "\nops: "
         ^ String.concat "; " (List.map print_op ops))
       QCheck.Gen.(pair gen_machine gen_ops))
    (fun (machine, ops) -> effect_sites machine ops)

(* Positional payloads: a signal's parameter names, in order, with a
   repeated name so first-binding-wins is exercised. *)
let positional = [ "seq"; "frag"; "seq" ]

let sid_of prog signal =
  Option.value ~default:(-1) (Compiled.signal_id_of_name prog signal)

let gen_raw_op =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          let* signal = oneofl [ "go"; "stop"; "tick"; "other" ] in
          let* n = int_range 0 3 in
          let* values =
            list_repeat n
              (oneof
                 [
                   map (fun n -> Action.V_int n) (int_range (-5) 20);
                   map (fun b -> Action.V_bool b) bool;
                 ])
          in
          return
            (Op_dispatch
               (signal, List.combine (List.filteri (fun i _ -> i < n) positional) values))
        );
        (1, map (fun valid -> Op_timer valid) bool);
        (1, return Op_completions);
      ])

(* Named arguments as positional int slices at a non-zero offset. *)
let raw_args args =
  let off = 2 in
  let argt = Array.make (off + 3) 0 and argv = Array.make (off + 3) 0 in
  List.iteri
    (fun k (_, value) ->
      match value with
      | Action.V_int n ->
        argt.(off + k) <- 1;
        argv.(off + k) <- n
      | Action.V_bool b ->
        argt.(off + k) <- 2;
        argv.(off + k) <- (if b then 1 else 0))
    args;
  (argt, argv, off, List.length args)

(* One step of an [Efsm.Host], read back through its cursor: the fired
   index, the state id and every effect row (site, argc, (tag, value)
   per argument). *)
type host_outcome =
  | H_step of int * int * (int * int * (int * int) list) list
  | H_skip
  | H_error of string

let host_rows h =
  List.init (Host.effect_count h) (fun i ->
      let argc = Host.effect_argc h i in
      ( Host.effect_site h i,
        argc,
        List.init argc (fun k -> (Host.effect_arg_tag h i k, Host.effect_arg h i k)) ))

let host_step h fired =
  H_step (fired, Host.state_id h, if fired >= 0 then host_rows h else [])

let raw_signals = [ "go"; "stop"; "tick"; "other" ]

let host_op h op =
  try
    match op with
    | Op_dispatch (signal, args) ->
      let argt, argv, off, argc = raw_args args in
      let rec input_of i = function
        | s :: rest -> if s = signal then i else input_of (i + 1) rest
        | [] -> assert false
      in
      host_step h
        (Host.dispatch h ~input:(input_of 0 raw_signals) ~argt ~argv ~off ~argc)
    | Op_timer true -> host_step h (Host.fire_timer h)
    | Op_timer false -> H_skip
    | Op_completions ->
      Host.run_completions h;
      host_step h 0
  with Action.Type_error m -> H_error m

(* [dispatch] on named arguments and [dispatch_raw] on the same values
   laid out as int slices (at a non-zero offset) must fire the same
   transition with the same effects and leave the same state; the
   declaration index [dispatch_raw] and [fire_timer_raw] return must be
   that of the transition the reference interpreter fired.  The same ops
   also step [Efsm.Host] under both engines, which must agree row for
   row through the cursor. *)
let raw_lockstep machine ops =
  let reference = Interp.create machine in
  let named = Compiled.of_machine machine in
  let raw = Compiled.of_machine machine in
  let prog = Compiled.program raw in
  let pids =
    Array.of_list
      (List.map
         (fun name ->
           Option.value ~default:(-1) (Compiled.param_id_of_name prog name))
         positional)
  in
  let buffer ci = List.init (Compiled.effect_count ci) (Compiled.effect_at ci) in
  let index = ref None in
  let step i =
    index := Some i;
    if i < 0 then O_step (None, [])
    else O_step (Some (List.nth machine.Machine.transitions i), buffer raw)
  in
  let raw_op op =
    index := None;
    catching (fun () ->
        match op with
        | Op_dispatch (signal, args) ->
          let argt, argv, off, argc = raw_args args in
          step
            (Compiled.dispatch_raw raw ~sid:(sid_of prog signal) ~pids ~argt ~argv
               ~off ~argc)
        | Op_timer true -> step (Compiled.fire_timer_raw raw)
        | Op_timer false | Op_completions -> compiled_op raw op)
  in
  let table =
    Host.table prog
      ~inputs:(Array.of_list (List.map (fun s -> (s, Array.of_list positional)) raw_signals))
  in
  let host_ref = Host.create Host.Reference table in
  let host_vm = Host.create Host.Compiled table in
  let hosts_agree label a b =
    if a <> b then
      QCheck.Test.fail_reportf "Host engines diverge on %s\n%s" label
        (Notation.print_machine machine)
  in
  let host_init h =
    try
      Host.initial_entry h;
      host_step h 0
    with Action.Type_error m -> H_error m
  in
  let init_ref = catching (fun () -> O_effects (Interp.initial_entry reference)) in
  let init_n = catching (fun () -> O_effects (Compiled.initial_entry named)) in
  let init_r = catching (fun () -> O_effects (Compiled.initial_entry raw)) in
  hosts_agree "initial entry" (host_init host_ref) (host_init host_vm);
  let rec go = function
    | [] -> true
    | op :: rest ->
      let r = interp_op reference op in
      let a = compiled_op named op and b = raw_op op in
      let ha = host_op host_ref op and hb = host_op host_vm op in
      if a <> b then
        QCheck.Test.fail_reportf "dispatch_raw diverges on %s:\n  named: %s\n  raw:   %s\n%s"
          (print_op op) (pp_outcome a) (pp_outcome b)
          (Notation.print_machine machine);
      hosts_agree (print_op op) ha hb;
      (match (!index, r) with
      | Some i, O_step (fired, _) ->
        let expected =
          match fired with None -> -1 | Some tr -> decl_index machine tr
        in
        if i <> expected then
          QCheck.Test.fail_reportf "fired index %d, reference fired #%d on %s\n%s" i
            expected (print_op op)
            (Notation.print_machine machine);
        (match ha with
        | H_step (h, _, _) when h <> expected ->
          QCheck.Test.fail_reportf "Host fired index %d, reference fired #%d on %s\n%s"
            h expected (print_op op)
            (Notation.print_machine machine)
        | H_step _ | H_skip | H_error _ -> ())
      | _ -> ());
      if Compiled.state named <> Compiled.state raw
         || Compiled.variables named <> Compiled.variables raw
      then
        QCheck.Test.fail_reportf "state diverges after %s\n%s" (print_op op)
          (Notation.print_machine machine);
      (match a with O_error _ -> true | _ -> go rest)
  in
  init_ref = init_n && init_n = init_r
  && (match init_n with O_error _ -> true | _ -> go ops)

(* One step with twelve sends outgrows the initial effect buffer (eight
   slots): every effect must still name its site.  The payload repeats
   [seq] positionally, and its first value must be the one bound. *)
let test_raw_burst () =
  let sends =
    List.init 12 (fun k ->
        Action.send ~port:(Printf.sprintf "p%d" (k mod 3)) (Printf.sprintf "s%d" k)
          ~args:[ Action.p "seq" ])
  in
  let machine =
    let open Action in
    Machine.make ~name:"burst" ~states:[ "a"; "b" ] ~initial:"a"
      ~variables:[ ("x", V_int 0) ]
      [
        Machine.transition ~src:"a" ~dst:"b" (Machine.On_signal "go")
          ~actions:(assign "x" (p "seq") :: sends);
      ]
  in
  let ci = Compiled.of_machine machine in
  ignore (Compiled.initial_entry ci);
  let pids =
    Array.of_list
      (List.map
         (fun name ->
           Option.value ~default:(-1)
             (Compiled.param_id_of_name (Compiled.program ci) name))
         positional)
  in
  let fired =
    Compiled.dispatch_raw ci ~sid:(sid_of (Compiled.program ci) "go") ~pids
      ~argt:[| 0; 1; 1; 1 |] ~argv:[| 0; 4; 5; 6 |] ~off:1 ~argc:3
  in
  check int_t "declaration index" 0 fired;
  check int_t "effects" 12 (Compiled.effect_count ci);
  check bool_t "every effect names its site" true (sites_match ci);
  check bool_t "first binding wins" true
    (Compiled.read_var ci "x" = Some (Action.V_int 4))

(* One step whose effect count (20 > 8) and argument total (40 > 16)
   both outgrow the initial buffers, mixing int and boolean arguments
   with compute effects: the raw readers must agree with the boxed
   effects, which must equal the reference interpreter's. *)
let test_raw_readers_past_buffers () =
  let body =
    List.concat
      (List.init 10 (fun k ->
           let even = k mod 2 = 0 and cost = k + 1 in
           let open Action in
           [
             send ~port:"out" (Printf.sprintf "s%d" k)
               ~args:[ v "x" + i k; i k < i 5; Bool even ];
             Compute (v "x" + i cost);
           ]))
  in
  let machine =
    let open Action in
    Machine.make ~name:"wide" ~states:[ "a"; "b" ] ~initial:"a"
      ~variables:[ ("x", V_int 7) ]
      [ Machine.transition ~src:"a" ~dst:"b" (Machine.On_signal "go") ~actions:body ]
  in
  let reference = Interp.create machine in
  let ci = Compiled.of_machine machine in
  ignore (Interp.initial_entry reference);
  ignore (Compiled.initial_entry ci);
  let expected = (Interp.dispatch reference ~signal:"go" ~args:[]).Interp.effects in
  check int_t "fired" 0
    (Compiled.dispatch_raw ci ~sid:(sid_of (Compiled.program ci) "go") ~pids:[||]
       ~argt:[||] ~argv:[||] ~off:0 ~argc:0);
  check int_t "effects" 20 (Compiled.effect_count ci);
  check bool_t "boxed effects equal the reference's" true
    (List.init 20 (Compiled.effect_at ci) = expected);
  check bool_t "raw readers agree with the boxed effects" true (sites_match ci);
  check int_t "third argument of the last send (k = 9, odd)" 0
    (Compiled.effect_arg ci 18 2);
  check int_t "its tag is boolean" 2 (Compiled.effect_arg_tag ci 18 2);
  check int_t "last compute's cycles" 17 (Compiled.effect_arg ci 19 0);
  let host_rows_of kind =
    let h = Host.create kind (Host.table (Compiled.program ci) ~inputs:[| ("go", [||]) |]) in
    Host.initial_entry h;
    check int_t "Host fired" 0 (Host.dispatch h ~input:0 ~argt:[||] ~argv:[||] ~off:0 ~argc:0);
    host_rows h
  in
  check bool_t "Host cursor rows agree across engines" true
    (host_rows_of Host.Reference = host_rows_of Host.Compiled);
  match Compiled.effect_arg ci 19 1 with
  | _ -> Alcotest.fail "a compute effect has one argument"
  | exception Invalid_argument _ -> ()

let prop_dispatch_raw =
  QCheck.Test.make ~name:"dispatch_raw fires like dispatch" ~count:300
    (QCheck.make
       ~print:(fun (m, ops) ->
         Notation.print_machine m ^ "\nops: "
         ^ String.concat "; " (List.map print_op ops))
       QCheck.Gen.(pair gen_machine (list_size (int_range 1 25) gen_raw_op)))
    (fun (machine, ops) -> raw_lockstep machine ops)

(* -- network-level differential -------------------------------------- *)

(* Random well-typed process networks: three processes on one or two
   PEs, each emitting its own signal on timer loops; random binding
   fan-out (a signal may go to several destinations, including the
   sender itself — self-sends and TUTMAC-fragmentation-like fan-out).
   Receives update variables; completions are guarded counters.  Both
   runtimes execute the same Ir.system and the traces must be
   byte-identical. *)

let net_machine ~name ~sends ~receives ~recv_in_s1 ~use_completion ~after1
    ~after2 ~cost ~limit ~guard_recv =
  let half_cost = cost / 2 in
  let open Action in
  let send_all = List.map (fun (port, s) -> send ~port s ~args:[ v "n" ]) sends in
  let recv_handler src =
    List.map
      (fun signal ->
        Machine.transition ~src ~dst:src (Machine.On_signal signal)
          ?guard:(if guard_recv then Some (v "n" < i 1_000_000) else None)
          ~actions:[ assign "n" (v "n" + p "k") ])
      receives
  in
  Machine.make ~name ~states:[ "s0"; "s1" ] ~initial:"s0"
    ~variables:[ ("n", V_int 0); ("c", V_int 0) ]
    ([
       Machine.transition ~src:"s0" ~dst:"s1" (Machine.After after1)
         ~actions:((compute (i cost) :: send_all) @ [ assign "n" (v "n" + i 1) ]);
       Machine.transition ~src:"s1" ~dst:"s0" (Machine.After after2)
         ~actions:(send_all @ [ compute (i half_cost) ]);
     ]
    @ recv_handler "s0"
    @ (if recv_in_s1 then recv_handler "s1" else [])
    @
    if use_completion then
      [
        Machine.transition ~src:"s1" ~dst:"s1" Machine.Completion
          ~guard:(v "c" < i limit)
          ~actions:[ assign "c" (v "c" + i 1) ];
      ]
    else [])

let gen_system =
  QCheck.Gen.(
    let proc_names = [| "net.p0"; "net.p1"; "net.p2" |] in
    let signal_of = [| "S0"; "S1"; "S2" |] in
    let gen_dsts =
      let* a = bool in
      let* b = bool in
      let* c = bool in
      let picked =
        List.concat
          [
            (if a then [ 0 ] else []);
            (if b then [ 1 ] else []);
            (if c then [ 2 ] else []);
          ]
      in
      if picked = [] then map (fun x -> [ x ]) (int_range 0 2) else return picked
    in
    let* dsts = array_repeat 3 gen_dsts in
    let* pe_of = array_repeat 3 (oneofl [ "pe0"; "pe1" ]) in
    let* scheduling = oneofl [ Codegen.Ir.Fifo; Codegen.Ir.Priority_preemptive ] in
    let gen_proc i =
      let receives =
        List.filter_map
          (fun j -> if List.mem i dsts.(j) then Some signal_of.(j) else None)
          [ 0; 1; 2 ]
      in
      let* recv_in_s1 = bool in
      let* use_completion = bool in
      let* after1 = int_range 5_000 60_000 in
      let* after2 = int_range 5_000 60_000 in
      let* cost = int_range 20 400 in
      let* limit = int_range 2 30 in
      let* guard_recv = bool in
      return
        {
          Codegen.Ir.proc_name = proc_names.(i);
          machine =
            net_machine ~name:("M" ^ string_of_int i)
              ~sends:[ ("io", signal_of.(i)) ]
              ~receives ~recv_in_s1 ~use_completion ~after1 ~after2 ~cost ~limit
              ~guard_recv;
          priority = i + 1;
          pe = Some pe_of.(i);
          group = Some "g";
        }
    in
    let* procs = flatten_l (List.map gen_proc [ 0; 1; 2 ]) in
    let bindings =
      List.concat_map
        (fun j ->
          List.map
            (fun d ->
              {
                Codegen.Ir.b_src = proc_names.(j);
                b_port = "io";
                b_signal = signal_of.(j);
                b_dst = proc_names.(d);
              })
            dsts.(j))
        [ 0; 1; 2 ]
    in
    let pe name =
      { Codegen.Ir.pe_name = name; frequency_mhz = 100; perf_factor = 1.0; scheduling }
    in
    let wrapper name agent address =
      Codegen.Ir.Agent_wrapper
        {
          name;
          agent;
          address;
          segment = "seg";
          buffer_size = 8;
          max_time = 100;
          bus_priority = address;
        }
    in
    return
      {
        Codegen.Ir.sys_name = "net";
        procs;
        bindings;
        pes = [ pe "pe0"; pe "pe1" ];
        segments =
          [
            {
              Codegen.Ir.seg_name = "seg";
              data_width_bits = 32;
              seg_frequency_mhz = 100;
              arbitration = Codegen.Ir.Priority;
              max_send_size = 16;
            };
          ];
        wrappers = [ wrapper "w0" "pe0" 1; wrapper "w1" "pe1" 2 ];
        signal_words = [ ("S0", 1); ("S1", 2); ("S2", 1) ];
        signal_params = [ ("S0", [ "k" ]); ("S1", [ "k" ]); ("S2", [ "k" ]) ];
        dispatch_overhead_cycles = 10;
      })

let run_network engine sys ~until_ns =
  match Codegen.Runtime.create ~engine sys with
  | Error problems ->
    QCheck.Test.fail_reportf "runtime create failed: %s"
      (String.concat "; " problems)
  | Ok rt ->
    Codegen.Runtime.start rt;
    ignore (Codegen.Runtime.run rt ~until_ns);
    let final =
      List.map
        (fun p ->
          let name = p.Codegen.Ir.proc_name in
          ( name,
            Codegen.Runtime.process_state rt name,
            Codegen.Runtime.process_var rt name "n",
            Codegen.Runtime.process_var rt name "c" ))
        sys.Codegen.Ir.procs
    in
    (Sim.Trace.to_lines (Codegen.Runtime.trace rt), final,
     Codegen.Runtime.runtime_errors rt)

let first_diff la lb =
  let rec go i = function
    | [], [] -> None
    | a :: _, [] -> Some (i, a, "<end of trace>")
    | [], b :: _ -> Some (i, "<end of trace>", b)
    | a :: ra, b :: rb -> if a <> b then Some (i, a, b) else go (i + 1) (ra, rb)
  in
  go 0 (la, lb)

let prop_network_differential =
  QCheck.Test.make ~name:"network traces bit-identical across engines"
    ~count:120
    (QCheck.make
       ~print:(fun sys -> Format.asprintf "%a" Codegen.Ir.pp sys)
       gen_system)
    (fun sys ->
      if Codegen.Ir.check sys <> [] then
        QCheck.Test.fail_reportf "generated system fails Ir.check: %s"
          (String.concat "; " (Codegen.Ir.check sys));
      let lr, fr, er = run_network Codegen.Runtime.Reference sys ~until_ns:1_000_000L in
      let lc, fc, ec = run_network Codegen.Runtime.Compiled sys ~until_ns:1_000_000L in
      (match first_diff lr lc with
      | Some (i, a, b) ->
        QCheck.Test.fail_reportf
          "traces diverge at event %d:\n  reference: %s\n  compiled:  %s" i a b
      | None -> ());
      if fr <> fc then QCheck.Test.fail_reportf "final process states diverge";
      if er <> ec then QCheck.Test.fail_reportf "runtime errors diverge";
      true)

(* An argument past the receiver signal's declared parameters binds as
   [arg<k>]: the sender passes (5, 7) to [Ping], which declares only
   [a]; the receiver's guard reads [arg1].  Both engines must take the
   guarded transition and see both values. *)
let test_surplus_argument () =
  let sender =
    let open Action in
    Machine.make ~name:"Snd" ~states:[ "s0"; "s1" ] ~initial:"s0" ~variables:[]
      [
        Machine.transition ~src:"s0" ~dst:"s1" (Machine.After 1_000)
          ~actions:[ send ~port:"out" "Ping" ~args:[ i 5; i 7 ] ];
      ]
  in
  let receiver =
    let open Action in
    Machine.make ~name:"Rcv" ~states:[ "idle"; "got"; "wrong" ] ~initial:"idle"
      ~variables:[ ("x", V_int 0); ("y", V_int 0) ]
      [
        Machine.transition ~src:"idle" ~dst:"got" (Machine.On_signal "Ping")
          ~guard:(p "arg1" = i 7)
          ~actions:[ assign "x" (p "arg1"); assign "y" (p "a") ];
        Machine.transition ~src:"idle" ~dst:"wrong" (Machine.On_signal "Ping")
          ~actions:[];
      ]
  in
  let proc name machine =
    { Codegen.Ir.proc_name = name; machine; priority = 1; pe = Some "pe0"; group = Some "g" }
  in
  let sys =
    {
      Codegen.Ir.sys_name = "surplus";
      procs = [ proc "s.snd" sender; proc "s.rcv" receiver ];
      bindings =
        [ { Codegen.Ir.b_src = "s.snd"; b_port = "out"; b_signal = "Ping"; b_dst = "s.rcv" } ];
      pes =
        [
          {
            Codegen.Ir.pe_name = "pe0";
            frequency_mhz = 100;
            perf_factor = 1.0;
            scheduling = Codegen.Ir.Fifo;
          };
        ];
      segments = [];
      wrappers = [];
      signal_words = [ ("Ping", 1) ];
      signal_params = [ ("Ping", [ "a" ]) ];
      dispatch_overhead_cycles = 10;
    }
  in
  List.iter
    (fun (label, engine) ->
      match Codegen.Runtime.create ~engine sys with
      | Error problems -> Alcotest.failf "create: %s" (String.concat "; " problems)
      | Ok rt ->
        Codegen.Runtime.start rt;
        ignore (Codegen.Runtime.run rt ~until_ns:1_000_000L);
        check (Alcotest.option string_t) (label ^ ": guard on arg1 held")
          (Some "got")
          (Codegen.Runtime.process_state rt "s.rcv");
        check bool_t (label ^ ": arg1 bound") true
          (Codegen.Runtime.process_var rt "s.rcv" "x" = Some (Action.V_int 7));
        check bool_t (label ^ ": declared parameter bound") true
          (Codegen.Runtime.process_var rt "s.rcv" "y" = Some (Action.V_int 5));
        check (Alcotest.list string_t) (label ^ ": no runtime errors") []
          (Codegen.Runtime.runtime_errors rt))
    [ ("reference", Codegen.Runtime.Reference); ("compiled", Codegen.Runtime.Compiled) ]

(* -- scenario-level differential (TUTMAC case study) ------------------ *)

let scenario_trace ?obs ?flows config =
  match Tutmac.Scenario.run ?obs ?flows config with
  | Error e -> Alcotest.failf "scenario run failed: %s" e
  | Ok result ->
    ( Sim.Trace.to_lines result.Tutmac.Scenario.trace,
      Profiler.Report.render result.Tutmac.Scenario.report )

let check_traces_equal name (lr, rr) (lc, rc) =
  (match first_diff lr lc with
  | Some (i, a, b) ->
    Alcotest.failf "%s: traces diverge at event %d:\n  reference: %s\n  compiled:  %s"
      name i a b
  | None -> ());
  check int_t (name ^ ": same event count") (List.length lr) (List.length lc);
  check string_t (name ^ ": same report") rr rc

let engine_config engine duration_ns =
  { Tutmac.Scenario.default with Tutmac.Scenario.duration_ns; engine }

let test_scenario_differential () =
  let d = 50_000_000L in
  check_traces_equal "fault-free"
    (scenario_trace (engine_config Codegen.Runtime.Reference d))
    (scenario_trace (engine_config Codegen.Runtime.Compiled d))

let fault_plan =
  {
    Fault.Plan.specs =
      [
        Fault.Plan.Hibi_drop
          { segment = "*"; rate = 0.05; window = Fault.Plan.always };
        Fault.Plan.Hibi_corrupt
          { segment = "*"; rate = 0.03; max_flips = 2; window = Fault.Plan.always };
        Fault.Plan.Signal_dup
          { process = "*"; rate = 0.02; window = Fault.Plan.always };
      ];
    recovery = Fault.Plan.default_recovery;
  }

let test_scenario_differential_faults () =
  let config engine =
    {
      (engine_config engine 50_000_000L) with
      Tutmac.Scenario.faults = fault_plan;
      fault_seed = 42;
    }
  in
  check_traces_equal "fault-injected"
    (scenario_trace (config Codegen.Runtime.Reference))
    (scenario_trace (config Codegen.Runtime.Compiled))

let test_scenario_differential_flows () =
  let run engine =
    let obs = Obs.Scope.create () in
    let flows = Obs.Flow.create ~metrics:(Obs.Scope.metrics obs) () in
    let t = scenario_trace ~obs ~flows (engine_config engine 50_000_000L) in
    (t, Obs.Flow.minted flows, Obs.Flow.completed flows)
  in
  let tr, mr, cr = run Codegen.Runtime.Reference in
  let tc, mc, cc = run Codegen.Runtime.Compiled in
  check_traces_equal "flow-traced" tr tc;
  check int_t "same flows minted" mr mc;
  check int_t "same flows completed" cr cc;
  check bool_t "flows were minted" true (mr > 0)

(* -- event queue properties ------------------------------------------- *)

(* The simulation kernel's own queues, driven in lockstep: one engine
   per backend receives the same operations, and every callback logs
   its (time, label) into its engine's lane.  The binary heap is the
   oracle for the calendar queue; where the operations allow it, a
   sorted model of the live events is a second one. *)
type lane = { eng : Sim.Engine.t; mutable log : (int * int) list }

let lanes () =
  Array.map
    (fun backend -> { eng = Sim.Engine.create ~backend (); log = [] })
    [| `Calendar; `Binary_heap |]

let callback lane label () =
  lane.log <- (Sim.Engine.now_ns lane.eng, label) :: lane.log

let schedule_all lanes ~time label =
  Array.map
    (fun l -> Sim.Engine.schedule_at_ns l.eng ~time (callback l label))
    lanes

let now lanes = Sim.Engine.now_ns lanes.(0).eng

let agree what f lanes =
  let calendar = f lanes.(0) and heap = f lanes.(1) in
  if calendar <> heap then
    QCheck.Test.fail_reportf "calendar and heap disagree on %s" what;
  calendar

(* Fire one event on every lane: all must fire the same one. *)
let step_all lanes =
  agree "the next event"
    (fun l ->
      if Sim.Engine.step l.eng then
        match l.log with k :: _ -> Some k | [] -> None
      else None)
    lanes

let check_pending lanes model =
  let n = agree "pending" (fun l -> Sim.Engine.pending l.eng) lanes in
  if n <> List.length model then
    QCheck.Test.fail_reportf "pending %d, model holds %d" n (List.length model)

let insert_sorted key l =
  let rec go = function
    | [] -> [ key ]
    | k :: rest -> if compare key k < 0 then key :: k :: rest else k :: go rest
  in
  go l

(* Step every lane and check the event against the head of [model]
   (the live events in (time, label) order); returns the model's rest. *)
let take lanes model =
  match (step_all lanes, model) with
  | Some got, expected :: rest ->
    if got <> expected then
      QCheck.Test.fail_reportf "pop order: got (%d,%d), expected (%d,%d)"
        (fst got) (snd got) (fst expected) (snd expected);
    rest
  | None, expected :: _ ->
    QCheck.Test.fail_reportf "nothing fired, expected (%d,%d)" (fst expected)
      (snd expected)
  | Some got, [] ->
    QCheck.Test.fail_reportf "fired (%d,%d) beyond the model" (fst got)
      (snd got)
  | None, [] -> []

(* The queue must reproduce the exact (time, seq) total order.
   [spread] controls how times map to buckets: a small spread packs
   many events (and timestamp collisions — FIFO territory) into one
   bucket; a large spread crosses buckets and laps. *)
let queue_order_prop ~spread ops =
  let lanes = lanes () in
  let model = ref [] and label = ref 0 in
  List.iter
    (fun v ->
      if v mod 5 = 0 && !model <> [] then model := take lanes !model
      else begin
        let t = now lanes + (v mod spread) in
        incr label;
        ignore (schedule_all lanes ~time:t !label);
        model := insert_sorted (t, !label) !model
      end;
      check_pending lanes !model)
    ops;
  while !model <> [] do
    model := take lanes !model
  done;
  ignore (take lanes []);
  true

let gen_queue_ops =
  QCheck.(list_of_size (Gen.int_range 1 300) (int_range 0 10_000))

let prop_calendar_fifo =
  QCheck.Test.make ~name:"calendar: FIFO within a timestamp" ~count:200
    gen_queue_ops (queue_order_prop ~spread:3)

let prop_calendar_buckets =
  QCheck.Test.make ~name:"calendar: order across buckets" ~count:200
    gen_queue_ops (queue_order_prop ~spread:9973)

(* Lazy cancellation: cancelled events never fire, the live order is
   unchanged, and [pending] counts live events only. *)
let prop_calendar_dead =
  QCheck.Test.make ~name:"calendar: dead entries are dropped" ~count:200
    gen_queue_ops (fun ops ->
      let lanes = lanes () in
      let handles = Hashtbl.create 64 in
      let model = ref [] and label = ref 0 in
      List.iter
        (fun v ->
          (match v mod 7 with
          | 0 -> if !model <> [] then model := take lanes !model
          | 1 | 2 ->
            if !label > 0 then begin
              let victim = 1 + (v mod !label) in
              Array.iter Sim.Engine.cancel (Hashtbl.find handles victim);
              model := List.filter (fun (_, l) -> l <> victim) !model
            end
          | _ ->
            let t = now lanes + (v mod 500) in
            incr label;
            Hashtbl.replace handles !label (schedule_all lanes ~time:t !label);
            model := insert_sorted (t, !label) !model);
          check_pending lanes !model)
        ops;
      while !model <> [] do
        model := take lanes !model
      done;
      ignore (take lanes []);
      true)

(* Deterministic resize stress: enough events to force bucket growth
   and a drain that forces shrinking on the way down. *)
let test_calendar_resize () =
  let lanes = lanes () in
  let lcg = ref 12345 in
  let next () =
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    !lcg
  in
  let n = 5_000 in
  for s = 1 to n do
    ignore (schedule_all lanes ~time:(next () mod 1_000_000) s)
  done;
  check int_t "all stored" n (Sim.Engine.pending lanes.(0).eng);
  let last = ref (-1, -1) in
  let popped = ref 0 in
  let rec drain () =
    match step_all lanes with
    | None -> ()
    | Some (t, s) ->
      (* labels are scheduling order, so (time, label) is (time, seq) *)
      check bool_t "strictly increasing (time,seq)" true
        (compare !last (t, s) < 0);
      last := (t, s);
      incr popped;
      drain ()
  in
  drain ();
  check int_t "all popped" n !popped;
  check int_t "none pending" 0 (Sim.Engine.pending lanes.(0).eng)

(* [rearm_ns] against the eager cancel-and-schedule of the heap: over
   random schedules, cancels, re-arms and steps on a few timer slots,
   both backends fire the same callbacks at the same times and report
   the same [pending].  The cases the calendar's in-place re-keying has
   to get right all arise: re-arming a live handle with its own
   callback, re-arming one already cancelled or fired, re-arming
   [Sim.Engine.never], and re-arming with a different callback (which
   must not re-key). *)
type rearm_op =
  | Schedule of int * int
  | Cancel of int
  | Rearm_same of int * int
  | Rearm_fresh of int * int
  | Rearm_never of int * int
  | Step

let gen_rearm_op =
  let slot = QCheck.Gen.int_range 0 3 in
  (* tiny delays make (time, seq) ties; large ones cross buckets *)
  let span = QCheck.Gen.(oneof [ int_range 0 3; int_range 0 5_000 ]) in
  QCheck.Gen.(
    frequency
      [
        (2, map2 (fun s d -> Schedule (s, d)) slot span);
        (1, map (fun s -> Cancel s) slot);
        (3, map2 (fun s d -> Rearm_same (s, d)) slot span);
        (1, map2 (fun s d -> Rearm_fresh (s, d)) slot span);
        (1, map2 (fun s d -> Rearm_never (s, d)) slot span);
        (3, return Step);
      ])

let print_rearm_op = function
  | Schedule (s, d) -> Printf.sprintf "schedule %d +%d" s d
  | Cancel s -> Printf.sprintf "cancel %d" s
  | Rearm_same (s, d) -> Printf.sprintf "rearm %d +%d" s d
  | Rearm_fresh (s, d) -> Printf.sprintf "rearm-fresh %d +%d" s d
  | Rearm_never (s, d) -> Printf.sprintf "rearm-never %d +%d" s d
  | Step -> "step"

let prop_rearm =
  QCheck.Test.make ~name:"calendar: rearm_ns fires like the heap" ~count:500
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map print_rearm_op ops))
        Gen.(list_size (int_range 1 200) gen_rearm_op))
    (fun ops ->
      let lanes = lanes () in
      let n_slots = 4 in
      (* per lane: each slot's handle and the callback it re-arms with *)
      let handles = Array.map (fun _ -> Array.make n_slots Sim.Engine.never) lanes in
      let labels = ref n_slots in
      let callbacks =
        Array.map (fun l -> Array.init n_slots (fun s -> callback l s)) lanes
      in
      let each f = Array.iteri (fun i l -> f i l) lanes in
      List.iter
        (fun op ->
          (match op with
          | Schedule (s, d) ->
            each (fun i l ->
                handles.(i).(s) <-
                  Sim.Engine.schedule_ns l.eng ~delay:d callbacks.(i).(s))
          | Cancel s -> each (fun i _ -> Sim.Engine.cancel handles.(i).(s))
          | Rearm_same (s, d) ->
            each (fun i l ->
                handles.(i).(s) <-
                  Sim.Engine.rearm_ns l.eng handles.(i).(s) ~delay:d
                    callbacks.(i).(s))
          | Rearm_fresh (s, d) ->
            let label = !labels in
            incr labels;
            each (fun i l ->
                callbacks.(i).(s) <- callback l label;
                handles.(i).(s) <-
                  Sim.Engine.rearm_ns l.eng handles.(i).(s) ~delay:d
                    callbacks.(i).(s))
          | Rearm_never (s, d) ->
            each (fun i l ->
                handles.(i).(s) <-
                  Sim.Engine.rearm_ns l.eng Sim.Engine.never ~delay:d
                    callbacks.(i).(s))
          | Step -> ignore (step_all lanes));
          ignore (agree "pending" (fun l -> Sim.Engine.pending l.eng) lanes))
        ops;
      while step_all lanes <> None do
        ()
      done;
      ignore (agree "the fired callbacks" (fun l -> l.log) lanes);
      true)

(* -- mailbox ----------------------------------------------------------- *)

let test_mailbox_fifo () =
  let mb = Sim.Mailbox.create ~capacity:4 ~dummy:0 () in
  check bool_t "empty" true (Sim.Mailbox.is_empty mb);
  (* interleave pushes and pops so head wraps around the ring while the
     buffer grows past its initial capacity *)
  let out = ref [] in
  let next_in = ref 0 in
  for round = 1 to 50 do
    for _ = 1 to round mod 7 do
      incr next_in;
      Sim.Mailbox.push mb !next_in
    done;
    for _ = 1 to round mod 3 do
      if not (Sim.Mailbox.is_empty mb) then out := Sim.Mailbox.pop mb :: !out
    done
  done;
  while not (Sim.Mailbox.is_empty mb) do
    out := Sim.Mailbox.pop mb :: !out
  done;
  let got = List.rev !out in
  check int_t "nothing lost" !next_in (List.length got);
  check bool_t "FIFO order" true (got = List.init !next_in (fun i -> i + 1));
  check bool_t "empty again" true (Sim.Mailbox.is_empty mb)

(* High-water mark: tracks the peak length across wrap-around and
   growth, and only [clear] resets it — popping to empty does not. *)
let test_mailbox_high_water () =
  let mb = Sim.Mailbox.create ~capacity:4 ~dummy:0 () in
  check int_t "starts at 0" 0 (Sim.Mailbox.high_water mb);
  for i = 1 to 3 do
    Sim.Mailbox.push mb i
  done;
  check int_t "tracks pushes" 3 (Sim.Mailbox.high_water mb);
  (* wrap the head: drain, then push enough to cross the ring boundary
     without growing (capacity rounds 4 up to the 8 minimum) *)
  while not (Sim.Mailbox.is_empty mb) do
    ignore (Sim.Mailbox.pop mb)
  done;
  check int_t "draining keeps the peak" 3 (Sim.Mailbox.high_water mb);
  for i = 1 to 2 do
    Sim.Mailbox.push mb i
  done;
  check int_t "lower refills keep the peak" 3 (Sim.Mailbox.high_water mb);
  (* grow past the backing array: peak follows the new maximum *)
  for i = 3 to 40 do
    Sim.Mailbox.push mb i
  done;
  check int_t "growth raises the peak" 40 (Sim.Mailbox.high_water mb);
  Sim.Mailbox.clear mb;
  check bool_t "clear empties" true (Sim.Mailbox.is_empty mb);
  check int_t "clear resets the peak" 0 (Sim.Mailbox.high_water mb);
  Sim.Mailbox.push mb 7;
  check int_t "peak restarts after clear" 1 (Sim.Mailbox.high_water mb)

(* The flat ring keeps its three int lanes and the payload in step
   through wrap-around and growth, and shares the high-water/clear
   contract with the boxed ring. *)
let test_mailbox_flat_lanes () =
  let mb = Sim.Mailbox.Flat.create ~capacity:4 ~dummy:"" () in
  let popped = ref [] in
  let next_in = ref 0 in
  for round = 1 to 60 do
    for _ = 1 to round mod 8 do
      incr next_in;
      let n = !next_in in
      Sim.Mailbox.Flat.push mb n (n * 2) (n * 3) (string_of_int n)
    done;
    for _ = 1 to round mod 5 do
      if not (Sim.Mailbox.Flat.is_empty mb) then begin
        let a = Sim.Mailbox.Flat.head_a mb in
        let b = Sim.Mailbox.Flat.head_b mb in
        let c = Sim.Mailbox.Flat.head_c mb in
        let payload = Sim.Mailbox.Flat.pop mb in
        popped := (a, b, c, payload) :: !popped
      end
    done
  done;
  while not (Sim.Mailbox.Flat.is_empty mb) do
    let a = Sim.Mailbox.Flat.head_a mb in
    let b = Sim.Mailbox.Flat.head_b mb in
    let c = Sim.Mailbox.Flat.head_c mb in
    let payload = Sim.Mailbox.Flat.pop mb in
    popped := (a, b, c, payload) :: !popped
  done;
  let got = List.rev !popped in
  check int_t "nothing lost" !next_in (List.length got);
  List.iteri
    (fun i (a, b, c, payload) ->
      let n = i + 1 in
      if (a, b, c, payload) <> (n, n * 2, n * 3, string_of_int n) then
        Alcotest.failf "entry %d lanes out of step: %d %d %d %s" n a b c payload)
    got;
  check bool_t "high-water saw the peak" true
    (Sim.Mailbox.Flat.high_water mb >= 8);
  Sim.Mailbox.Flat.clear mb;
  check int_t "clear resets the peak" 0 (Sim.Mailbox.Flat.high_water mb);
  check bool_t "empty after clear" true (Sim.Mailbox.Flat.is_empty mb)

let () =
  Alcotest.run "sim_compiled"
    [
      ( "lockstep",
        [
          QCheck_alcotest.to_alcotest prop_lockstep_flat;
          QCheck_alcotest.to_alcotest prop_lockstep_hsm;
        ] );
      ( "id-level",
        [
          QCheck_alcotest.to_alcotest prop_effect_sites;
          QCheck_alcotest.to_alcotest prop_dispatch_raw;
          Alcotest.test_case "raw step past the initial buffer" `Quick
            test_raw_burst;
          Alcotest.test_case "raw readers past both initial buffers" `Quick
            test_raw_readers_past_buffers;
        ] );
      ( "network",
        [
          QCheck_alcotest.to_alcotest prop_network_differential;
          Alcotest.test_case "surplus argument binds as arg<k>" `Quick
            test_surplus_argument;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "fault-free traces identical" `Slow
            test_scenario_differential;
          Alcotest.test_case "fault-injected traces identical" `Slow
            test_scenario_differential_faults;
          Alcotest.test_case "flow-traced runs identical" `Slow
            test_scenario_differential_flows;
        ] );
      ( "calendar",
        [
          QCheck_alcotest.to_alcotest prop_calendar_fifo;
          QCheck_alcotest.to_alcotest prop_calendar_buckets;
          QCheck_alcotest.to_alcotest prop_calendar_dead;
          Alcotest.test_case "resize stress" `Quick test_calendar_resize;
          QCheck_alcotest.to_alcotest prop_rearm;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "growable ring FIFO" `Quick test_mailbox_fifo;
          Alcotest.test_case "high-water marks" `Quick test_mailbox_high_water;
          Alcotest.test_case "flat ring lanes" `Quick test_mailbox_flat_lanes;
        ] );
    ]
