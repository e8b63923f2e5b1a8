(* Tests for the explicit-state model checker: exhaustive exploration
   of the seed TUTMAC network, verdict determinism across exploration
   orders and runs, partial-order-reduction soundness, mutation models
   with reachable deadlocks and queue overflows whose counterexamples
   replay byte for byte under both execution engines, coverage
   reporting, the L09 lint-oracle bridge, pinned search statistics,
   and properties of the state store and the state-vector encoding. *)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let seed_model () =
  Tut_profile.Builder.model (Tutmac.Scenario.build_model Tutmac.Scenario.default)

let machine ?variables ?entry_actions name states initial transitions =
  Efsm.Machine.make ~name ~states ~initial ?variables ?entry_actions
    transitions

let transition ?guard ?actions ~src ~dst trigger =
  Efsm.Machine.transition ?guard ?actions ~src ~dst trigger

(* A ping-pong pair: statically a textbook L09 wait-for cycle (each
   machine sits in a state it can only leave on the other's signal).
   With [bound = None] one message is always in flight, so the checker
   proves the cycle spurious; with [bound = Some n] the responder stops
   replying after [n] pings and the pair genuinely deadlocks. *)
let pingpong_model ~bound =
  (* The entry action re-fires on the self-transition, so it alone
     sustains the ping-pong: exactly one message stays in flight. *)
  let a =
    machine "Pinger" [ "W" ] "W"
      ~entry_actions:[ ("W", [ Efsm.Action.send ~port:"pa" "ping" ]) ]
      [ transition ~src:"W" ~dst:"W" (Efsm.Machine.On_signal "pong") ]
  in
  let b =
    let reply =
      [
        Efsm.Action.assign "cnt" Efsm.Action.(v "cnt" + i 1);
        Efsm.Action.send ~port:"pb" "pong";
      ]
    in
    match bound with
    | None ->
      machine "Ponger" [ "W" ] "W"
        ~variables:[ ("cnt", Efsm.Action.V_int 0) ]
        [
          transition ~src:"W" ~dst:"W" ~actions:reply
            (Efsm.Machine.On_signal "ping");
        ]
    | Some n ->
      machine "Ponger" [ "W" ] "W"
        ~variables:[ ("cnt", Efsm.Action.V_int 0) ]
        [
          transition ~src:"W" ~dst:"W"
            ~guard:Efsm.Action.(v "cnt" < i n)
            ~actions:reply
            (Efsm.Machine.On_signal "ping");
          transition ~src:"W" ~dst:"W"
            ~guard:Efsm.Action.(i n <= v "cnt")
            ~actions:
              [ Efsm.Action.assign "cnt" Efsm.Action.(v "cnt" + i 1) ]
            (Efsm.Machine.On_signal "ping");
        ]
  in
  let model = Uml.Model.empty "pp" in
  let model =
    List.fold_left Uml.Model.add_signal model
      [ Uml.Signal.make "ping"; Uml.Signal.make "pong" ]
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:a
         ~ports:
           [
             Uml.Port.make ~sends:[ "ping" ] "pa";
             Uml.Port.make ~receives:[ "pong" ] "pin";
           ]
         "Pinger")
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:b
         ~ports:
           [
             Uml.Port.make ~sends:[ "pong" ] "pb";
             Uml.Port.make ~receives:[ "ping" ] "pin";
           ]
         "Ponger")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~parts:
         [
           { Uml.Classifier.name = "a"; class_name = "Pinger" };
           { Uml.Classifier.name = "b"; class_name = "Ponger" };
         ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint ~part:"a" "pa")
             ~to_:(Uml.Connector.endpoint ~part:"b" "pin");
           Uml.Connector.make ~name:"c2"
             ~from_:(Uml.Connector.endpoint ~part:"b" "pb")
             ~to_:(Uml.Connector.endpoint ~part:"a" "pin");
         ]
       "Sys")

(* A producer that answers one environment kick with a burst of [n]
   messages to a consumer; [n] above the queue capacity overflows. *)
let burst_model ~n =
  let p =
    machine "Burster" [ "Idle" ] "Idle"
      ~variables:[ ("k", Efsm.Action.V_int 0) ]
      [
        transition ~src:"Idle" ~dst:"Idle"
          ~actions:
            [
              Efsm.Action.assign "k" (Efsm.Action.i 0);
              Efsm.Action.While
                ( Efsm.Action.(v "k" < i n),
                  [
                    Efsm.Action.send ~port:"out" "m";
                    Efsm.Action.assign "k" Efsm.Action.(v "k" + i 1);
                  ] );
            ]
          (Efsm.Machine.On_signal "kick");
      ]
  in
  let c =
    machine "Sink" [ "W" ] "W"
      [ transition ~src:"W" ~dst:"W" (Efsm.Machine.On_signal "m") ]
  in
  let model = Uml.Model.empty "burst" in
  let model =
    List.fold_left Uml.Model.add_signal model
      [ Uml.Signal.make "kick"; Uml.Signal.make "m" ]
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:p
         ~ports:
           [
             Uml.Port.make ~sends:[ "m" ] "out";
             Uml.Port.make ~receives:[ "kick" ] "pin";
           ]
         "Burster")
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:c
         ~ports:[ Uml.Port.make ~receives:[ "m" ] "pin" ]
         "Sink")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~ports:[ Uml.Port.make ~receives:[ "kick" ] "env_in" ]
       ~parts:
         [
           { Uml.Classifier.name = "p"; class_name = "Burster" };
           { Uml.Classifier.name = "c"; class_name = "Sink" };
         ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint ~part:"p" "out")
             ~to_:(Uml.Connector.endpoint ~part:"c" "pin");
           Uml.Connector.make ~name:"c2"
             ~from_:(Uml.Connector.endpoint "env_in")
             ~to_:(Uml.Connector.endpoint ~part:"p" "pin");
         ]
       "Sys")

(* One machine with an orphan state and a transition whose trigger no
   one ever produces: exhaustive exploration reports both. *)
let coverage_model () =
  let m =
    machine "Cov" [ "s0"; "s1"; "orphan" ] "s0"
      [
        transition ~src:"s0" ~dst:"s1" (Efsm.Machine.On_signal "go");
        transition ~src:"s1" ~dst:"s1" (Efsm.Machine.On_signal "never");
      ]
  in
  let model = Uml.Model.empty "cov" in
  let model =
    List.fold_left Uml.Model.add_signal model
      [ Uml.Signal.make "go"; Uml.Signal.make "never" ]
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:m
         ~ports:[ Uml.Port.make ~receives:[ "go"; "never" ] "pin" ]
         "Cov")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~ports:[ Uml.Port.make ~receives:[ "go" ] "env_in" ]
       ~parts:[ { Uml.Classifier.name = "m"; class_name = "Cov" } ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint "env_in")
             ~to_:(Uml.Connector.endpoint ~part:"m" "pin");
         ]
       "Sys")

(* A guard that reads a parameter of an environment-injected signal:
   the canonical-payload caveat (M06) must surface. *)
let env_param_model ?(guard = Efsm.Action.(i 0 < p "n")) () =
  let m =
    machine "Gate" [ "s0"; "s1" ] "s0"
      [
        transition ~src:"s0" ~dst:"s1" ~guard (Efsm.Machine.On_signal "kick");
      ]
  in
  let model = Uml.Model.empty "envp" in
  let model =
    Uml.Model.add_signal model
      (Uml.Signal.make ~params:[ ("n", Uml.Signal.P_int) ] "kick")
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:m
         ~ports:[ Uml.Port.make ~receives:[ "kick" ] "pin" ]
         "Gate")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~ports:[ Uml.Port.make ~receives:[ "kick" ] "env_in" ]
       ~parts:[ { Uml.Classifier.name = "m"; class_name = "Gate" } ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint "env_in")
             ~to_:(Uml.Connector.endpoint ~part:"m" "pin");
         ]
       "Sys")

let rules ds rule =
  List.filter (fun d -> d.Lint.Diagnostic.rule = rule) ds

let run_check ?options model =
  match Mc.Check.run ?options model with
  | Ok r -> r
  | Error e -> Alcotest.fail ("check failed: " ^ e)

(* -- seed model --------------------------------------------------------- *)

let test_seed_exhaustive () =
  let r = run_check (seed_model ()) in
  check bool_t "exhausted" true r.Mc.Check.r_stats.Mc.Explore.exhausted;
  check int_t "no errors" 0
    (List.length (Lint.Diagnostic.errors r.Mc.Check.r_diagnostics));
  check bool_t "non-trivial space" true
    (r.Mc.Check.r_stats.Mc.Explore.states > 10_000);
  check bool_t "every control state reached" true
    (r.Mc.Check.r_unreached = 0);
  (* The report renders deterministically. *)
  check string_t "render stable" (Mc.Check.render r)
    (Mc.Check.render (run_check (seed_model ())))

let explore ?(config = Mc.Explore.default_config) model =
  Mc.Explore.run ~config (Mc.Net.build model)

let test_seed_determinism () =
  let a = explore (seed_model ()) in
  let b = explore (seed_model ()) in
  check bool_t "same stats across runs" true
    (a.Mc.Explore.stats = b.Mc.Explore.stats);
  let dfs =
    explore
      ~config:{ Mc.Explore.default_config with Mc.Explore.order = Mc.Explore.Dfs }
      (seed_model ())
  in
  check int_t "states agree across orders" a.Mc.Explore.stats.Mc.Explore.states
    dfs.Mc.Explore.stats.Mc.Explore.states;
  check int_t "steps agree across orders" a.Mc.Explore.stats.Mc.Explore.steps
    dfs.Mc.Explore.stats.Mc.Explore.steps;
  check bool_t "verdicts agree across orders" true
    (Option.is_none a.Mc.Explore.violation
    = Option.is_none dfs.Mc.Explore.violation)

let test_seed_por_sound () =
  (* A budget small enough that the unreduced space stays cheap. *)
  let budget =
    { Mc.Explore.default_budget with Mc.Explore.env_budget = 1; timer_budget = 1 }
  in
  let cfg por = { Mc.Explore.default_config with Mc.Explore.budget; por } in
  let reduced = explore ~config:(cfg true) (seed_model ()) in
  let full = explore ~config:(cfg false) (seed_model ()) in
  check bool_t "both exhausted" true
    (reduced.Mc.Explore.stats.Mc.Explore.exhausted
    && full.Mc.Explore.stats.Mc.Explore.exhausted);
  check bool_t "same verdict" true
    (Option.is_none reduced.Mc.Explore.violation
    = Option.is_none full.Mc.Explore.violation);
  check bool_t "reduction is strict" true
    (reduced.Mc.Explore.stats.Mc.Explore.states
    < full.Mc.Explore.stats.Mc.Explore.states)

(* -- equivalence pins ------------------------------------------------------ *)
(* Exact search statistics of the seed network.  How states are stored,
   hashed and dispatched must not change which graph is walked or in
   which order, so any drift here is a change of semantics.  Tuples are
   (states, steps, dedup, frontier_peak, unreached, unfired). *)

let stats_t =
  Alcotest.testable
    (fun fmt (a, b, c, d, e, f) ->
      Format.fprintf fmt "(%d, %d, %d, %d, %d, %d)" a b c d e f)
    ( = )

let stats_of (s : Mc.Explore.stats) unreached unfired =
  ( s.Mc.Explore.states,
    s.Mc.Explore.steps,
    s.Mc.Explore.dedup,
    s.Mc.Explore.frontier_peak,
    unreached,
    unfired )

let check_stats name expected (r : Mc.Explore.result) =
  check stats_t name expected
    (stats_of r.Mc.Explore.stats
       (List.length r.Mc.Explore.unreached_states)
       (List.length r.Mc.Explore.unfired_transitions))

let test_pinned_matrix () =
  List.iter
    (fun (order, por, coi, expected, exhausted) ->
      let name =
        Printf.sprintf "%s por=%b coi=%b"
          (match order with Mc.Explore.Bfs -> "bfs" | Mc.Explore.Dfs -> "dfs")
          por coi
      in
      let r =
        explore
          ~config:{ Mc.Explore.default_config with Mc.Explore.order; por; coi }
          (seed_model ())
      in
      check_stats name expected r;
      check bool_t (name ^ " exhausted") exhausted
        r.Mc.Explore.stats.Mc.Explore.exhausted;
      check bool_t (name ^ " clean") true (r.Mc.Explore.violation = None))
    [
      (Mc.Explore.Bfs, true, true, (13140, 34423, 21284, 744, 0, 1), true);
      (Mc.Explore.Bfs, true, false, (16620, 40167, 23548, 926, 0, 1), true);
      (Mc.Explore.Bfs, false, true, (200000, 966303, 766303, 14657, 0, 1), false);
      (Mc.Explore.Bfs, false, false, (200000, 942473, 742473, 20986, 0, 1), false);
      (Mc.Explore.Dfs, true, true, (13140, 34423, 21284, 36, 0, 1), true);
      (Mc.Explore.Dfs, true, false, (16620, 40167, 23548, 37, 0, 1), true);
      (Mc.Explore.Dfs, false, true, (200000, 973050, 773050, 70, 0, 1), false);
      (Mc.Explore.Dfs, false, false, (200000, 938342, 738342, 70, 0, 1), false);
    ]

let step_label = function
  | Mc.Explore.S_deliver i -> Printf.sprintf "D%d" i
  | Mc.Explore.S_timer i -> Printf.sprintf "T%d" i
  | Mc.Explore.S_inject e -> Printf.sprintf "I%d" e

let verdict_label (r : Mc.Explore.result) =
  match r.Mc.Explore.violation with
  | None -> "none"
  | Some (v, schedule) ->
    let steps = String.concat " " (List.map step_label schedule) in
    (match v with
    | Mc.Explore.V_deadlock { members } ->
      Printf.sprintf "deadlock %s"
        (String.concat "," (List.map string_of_int members))
    | Mc.Explore.V_overflow { dest; gsig } ->
      Printf.sprintf "overflow %d/%d" dest gsig)
    ^ " after [" ^ steps ^ "]"

(* Instances: 5 rca, 6 mng, 7 rmng; signals: 10 PhyRx, 11 RChConfig,
   14 RMngReport; environment input 1 injects PhyRx at the rca. *)
let test_pinned_edge_budgets () =
  List.iter
    (fun (order, name, budget, expected, verdict) ->
      let name =
        (match order with Mc.Explore.Bfs -> "bfs " | Mc.Explore.Dfs -> "dfs ")
        ^ name
      in
      let r =
        explore
          ~config:{ Mc.Explore.default_config with Mc.Explore.order; budget }
          (seed_model ())
      in
      check_stats name expected r;
      check string_t (name ^ " verdict") verdict (verdict_label r);
      check bool_t (name ^ " not exhaustive") false
        r.Mc.Explore.stats.Mc.Explore.exhausted)
    (List.concat_map
       (fun order ->
         let b = Mc.Explore.default_budget in
         let bfs = order = Mc.Explore.Bfs in
         [
           (* capacity 0: the first send to a machine overflows *)
           ( order,
             "queue-capacity 0",
             { b with Mc.Explore.queue_capacity = 0 },
             (2, 2, 0, 1, 2, 18),
             "overflow 5/11 after [T6]" );
           ( order,
             "queue-capacity 1",
             { b with Mc.Explore.queue_capacity = 1 },
             (if bfs then (13, 13, 0, 7, 2, 15) else (17, 17, 0, 10, 2, 14)),
             if bfs then "overflow 5/10 after [T5 T5 T7 T7 T6 I1]"
             else "overflow 6/14 after [T5 T5 T7 T7 I3 I2 D7]" );
           ( order,
             "max-states 1",
             { b with Mc.Explore.max_states = 1 },
             (1, 1, 0, 1, 2, 18),
             "none" );
           ( order,
             "max-depth 1",
             { b with Mc.Explore.max_depth = 1 },
             (2, 2, 0, 1, 2, 18),
             "none" );
         ])
       [ Mc.Explore.Bfs; Mc.Explore.Dfs ])

let test_env_budget_two_overflow_free () =
  (* Two environment injections in flight once drove the radio
     configurator's RChConfig queue past capacity (the M02 that shipped
     with the checker).  Admission control at the rca — a window-of-one
     PduConf credit — closes it; this pins the whole env-budget-2 space
     as overflow-free so the regression cannot come back silently. *)
  let budget =
    {
      Mc.Explore.default_budget with
      Mc.Explore.env_budget = 2;
      timer_budget = 1;
      max_states = 1_000_000;
    }
  in
  let options = { Mc.Check.default_options with Mc.Check.budget } in
  let r = run_check ~options (seed_model ()) in
  check bool_t "exhausted within 1M states" true
    r.Mc.Check.r_stats.Mc.Explore.exhausted;
  check int_t "no M02 queue overflow" 0
    (List.length (rules r.Mc.Check.r_diagnostics "M02"));
  check int_t "no errors at all" 0
    (List.length (Lint.Diagnostic.errors r.Mc.Check.r_diagnostics));
  check stats_t "same graph as the name-keyed explorer"
    (243209, 716595, 473387, 11917, 0, 2)
    (stats_of r.Mc.Check.r_stats r.Mc.Check.r_unreached r.Mc.Check.r_unfired)

(* -- deadlock mutation --------------------------------------------------- *)

let test_pingpong_free () =
  let r = run_check (pingpong_model ~bound:None) in
  check bool_t "exhausted" true r.Mc.Check.r_stats.Mc.Explore.exhausted;
  check int_t "deadlock-free" 0
    (List.length (rules r.Mc.Check.r_diagnostics "M01"));
  (* The static pass still warns without the oracle... *)
  let static =
    Lint.Deadlock.pass.Lint.Pass.run
      (Lint.Pass.context_of_model (pingpong_model ~bound:None))
  in
  check int_t "static L09 fires" 1 (List.length static);
  (* ...and the checker discharges it through the oracle. *)
  let ctx =
    {
      (Lint.Pass.context_of_model (pingpong_model ~bound:None)) with
      Lint.Pass.deadlock_oracle =
        Some (Mc.Check.deadlock_oracle (pingpong_model ~bound:None));
    }
  in
  check int_t "oracle discharges L09" 0
    (List.length (Lint.Deadlock.pass.Lint.Pass.run ctx))

let replay_both model (trace : Sim.Trace.t) =
  let net = Mc.Net.build model in
  let replay engine =
    match Mc.Counterexample.replay net ~engine trace with
    | Ok s -> s
    | Error e -> Alcotest.fail ("replay failed: " ^ e)
  in
  (replay Efsm.Host.Reference, replay Efsm.Host.Compiled)

let test_pingpong_deadlock () =
  let model = pingpong_model ~bound:(Some 2) in
  let r = run_check model in
  check int_t "M01 error" 1 (List.length (rules r.Mc.Check.r_diagnostics "M01"));
  let trace =
    match r.Mc.Check.r_trace with
    | Some t -> t
    | None -> Alcotest.fail "no counterexample trace"
  in
  (* The trace survives the Sim.Trace line codec. *)
  (match Sim.Trace.of_lines (Sim.Trace.to_lines trace) with
  | Ok t2 ->
    check bool_t "line round-trip" true
      (Sim.Trace.to_lines t2 = Sim.Trace.to_lines trace)
  | Error e -> Alcotest.fail ("trace does not re-parse: " ^ e));
  (* Byte-for-byte replay under both engines, ending in the same stuck
     global state. *)
  let ref_s, comp_s = replay_both model trace in
  check bool_t "verdict is deadlock" true
    (match ref_s.Mc.Counterexample.s_verdict with
    | Mc.Counterexample.V_deadlock [ _; _ ] -> true
    | _ -> false);
  check bool_t "engines agree on the stuck state" true
    (ref_s.Mc.Counterexample.s_final = comp_s.Mc.Counterexample.s_final);
  check bool_t "all queues drained" true
    (List.for_all
       (fun (_, _, qlen) -> qlen = 0)
       ref_s.Mc.Counterexample.s_final)

let test_oracle_confirms () =
  let model = pingpong_model ~bound:(Some 2) in
  let ctx =
    {
      (Lint.Pass.context_of_model model) with
      Lint.Pass.deadlock_oracle = Some (Mc.Check.deadlock_oracle model);
    }
  in
  match Lint.Deadlock.pass.Lint.Pass.run ctx with
  | [ d ] ->
    check bool_t "upgraded to error" true
      (d.Lint.Diagnostic.severity = Lint.Diagnostic.Error);
    check bool_t "names the checker" true
      (contains d.Lint.Diagnostic.message "confirmed by the model checker")
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 diagnostic, got %d" (List.length ds))

(* -- queue overflow ------------------------------------------------------ *)

let test_overflow_counterexample () =
  let model = burst_model ~n:10 in
  let r = run_check model in
  check int_t "M02 error" 1 (List.length (rules r.Mc.Check.r_diagnostics "M02"));
  let trace = Option.get r.Mc.Check.r_trace in
  let ref_s, comp_s = replay_both model trace in
  check bool_t "verdict is overflow at the sink" true
    (match ref_s.Mc.Counterexample.s_verdict with
    | Mc.Counterexample.V_overflow (path, "m") -> contains path "/c"
    | _ -> false);
  check bool_t "engines agree" true
    (ref_s.Mc.Counterexample.s_final = comp_s.Mc.Counterexample.s_final);
  (* Below the capacity the same model is clean. *)
  let ok = run_check (burst_model ~n:3) in
  check int_t "no overflow below capacity" 0
    (List.length (rules ok.Mc.Check.r_diagnostics "M02"))

(* -- coverage and caveats ------------------------------------------------ *)

let test_coverage_reports () =
  (* Deadlock is off: the machine legitimately parks in s1 forever, and
     the point here is the coverage verdicts of an exhausted space. *)
  let options =
    { Mc.Check.default_options with Mc.Check.property = Mc.Check.P_overflow }
  in
  let r = run_check ~options (coverage_model ()) in
  check bool_t "exhausted" true r.Mc.Check.r_stats.Mc.Explore.exhausted;
  let m03 = rules r.Mc.Check.r_diagnostics "M03" in
  let m04 = rules r.Mc.Check.r_diagnostics "M04" in
  check int_t "one unreached state" 1 (List.length m03);
  check bool_t "names the orphan" true
    (contains (List.hd m03).Lint.Diagnostic.message "orphan");
  check int_t "one unfired transition" 1 (List.length m04);
  check bool_t "names the trigger" true
    (contains (List.hd m04).Lint.Diagnostic.message "on never")

let test_env_param_caveat () =
  let r = run_check (env_param_model ()) in
  check int_t "M06 caveat" 1 (List.length (rules r.Mc.Check.r_diagnostics "M06"));
  check bool_t "names the signal" true
    (contains (List.hd (rules r.Mc.Check.r_diagnostics "M06")).Lint.Diagnostic.message
       "kick")

(* A guard that reads a variable nothing assigns fails the first
   delivery: the checker reports the error and the lint oracle degrades
   to an unknown verdict instead of aborting. *)
let test_oracle_degrades () =
  let model = env_param_model ~guard:Efsm.Action.(v "ghost" < i 1) () in
  (match Mc.Check.run model with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an elaboration error");
  match Mc.Check.deadlock_oracle model ~members:[] with
  | Lint.Pass.Deadlock_unknown { states } -> check int_t "no states claimed" 0 states
  | _ -> Alcotest.fail "expected Deadlock_unknown"

(* -- seed lint end-to-end ------------------------------------------------ *)

let test_seed_lint_discharged () =
  let model = seed_model () in
  let ctx =
    {
      (Lint.Pass.context_of_model model) with
      Lint.Pass.deadlock_oracle = Some (Mc.Check.deadlock_oracle model);
    }
  in
  let ds = List.concat_map snd (Lint.Engine.run ctx) in
  check int_t "L09 discharged on the seed" 0 (List.length (rules ds "L09"));
  check int_t "errors" 0 (List.length (Lint.Diagnostic.errors ds));
  check int_t "warnings" 5 (List.length (Lint.Diagnostic.warnings ds))

(* -- the arena visited set ------------------------------------------------ *)

(* Random vectors, many repeated, mixing byte-sized slots with ones that
   force the eight-byte encoding. *)
let gen_vectors =
  QCheck.Gen.(
    let slot =
      frequency
        [
          (8, int_range (-3) 3);
          (1, int_range (-200) 200);
          (1, oneofl [ max_int; min_int; 1 lsl 40; -(1 lsl 33) ]);
        ]
    in
    let vector = map Array.of_list (list_size (int_range 0 12) slot) in
    let* pool = list_size (int_range 1 30) vector in
    list_size (int_range 1 200) (oneofl pool))

(* Insert-or-find every vector into a {!Mc.Visited.t} and a [Hashtbl]
   keyed by the masked vector; both must hand out the same ids. *)
let visited_agrees ~hash ~keep_of vectors =
  let v = Mc.Visited.create () in
  let tbl = Hashtbl.create 16 in
  List.for_all
    (fun vec ->
      let n = Array.length vec in
      let keep = keep_of n in
      let key = Array.mapi (fun i x -> if keep.(i) then x else 0) vec in
      let h = hash vec keep n in
      let got = Mc.Visited.find v ~hash:h vec keep n in
      match Hashtbl.find_opt tbl key with
      | Some id -> got = id
      | None ->
        got = -1
        &&
        let id = Mc.Visited.add v ~hash:h vec n in
        Hashtbl.add tbl key id;
        let back = Array.make n 0 in
        Mc.Visited.blit v id back;
        id = Hashtbl.length tbl - 1
        && Mc.Visited.length v id = n
        && back = vec
        && Mc.Visited.count v = Hashtbl.length tbl)
    vectors

let all_kept n = Array.make n true

(* A mask that depends only on the length, as the explorer's depends only
   on structure slots. *)
let odd_masked n = Array.init n (fun i -> i mod 2 = 0 || i = n - 1)

let prop_visited name ~hash ~keep_of =
  QCheck.Test.make ~name ~count:200
    (QCheck.make
       ~print:(fun vs ->
         String.concat "; "
           (List.map
              (fun v ->
                String.concat "," (Array.to_list (Array.map string_of_int v)))
              vs))
       gen_vectors)
    (visited_agrees ~hash ~keep_of)

(* Long vectors of eight-byte slots: the pool alone (45+ vectors of
   3,000+ slots, each stored once before the repeats) fills more than
   one 1 MiB arena chunk, so some vector starts a new chunk, and the
   140,000-slot vector in the middle is larger than a chunk. *)
let gen_wide_vectors =
  QCheck.Gen.(
    let wide_vector len =
      let* body = array_repeat len (int_range (-3) 3) in
      let* tag = int_range 0 1_000_000 in
      body.(0) <- (1 lsl 40) + tag;
      return body
    in
    let* pool = list_size (int_range 45 60) (int_range 3_000 4_000 >>= wide_vector) in
    let* huge = wide_vector 140_000 in
    let half = List.length pool / 2 in
    let* repeats = list_size (int_range 1 40) (oneofl pool) in
    return
      (List.filteri (fun i _ -> i < half) pool
      @ (huge :: List.filteri (fun i _ -> i >= half) pool)
      @ (huge :: repeats)))

let prop_visited_wide =
  QCheck.Test.make ~name:"visited = Hashtbl (vectors across chunk boundaries)"
    ~count:5
    (QCheck.make
       ~print:(fun vs ->
         String.concat "; "
           (List.map
              (fun v -> Printf.sprintf "%d slots from %d" (Array.length v) v.(0))
              vs))
       gen_wide_vectors)
    (visited_agrees ~hash:Mc.Visited.hash ~keep_of:all_kept)

let visited_props =
  [
    prop_visited "visited = Hashtbl (FNV hash)" ~hash:Mc.Visited.hash
      ~keep_of:all_kept;
    prop_visited "visited = Hashtbl (forced collisions)"
      ~hash:(fun _ _ _ -> 42)
      ~keep_of:all_kept;
    prop_visited "visited = Hashtbl (two-bucket hash, masked)"
      ~hash:(fun vec keep n -> Mc.Visited.hash vec keep n land 1)
      ~keep_of:odd_masked;
    prop_visited_wide;
  ]

(* -- encode/decode round trips ------------------------------------------- *)

(* A source whose [late] variable is unbound until its first kick and
   whose [flag] is a boolean it sends on; the sink binds [got] (bool)
   and [cnt] (int) from the payload, both unbound until then. *)
let payload_model () =
  let src =
    machine "Src" [ "A"; "B" ] "A"
      ~variables:[ ("flag", Efsm.Action.V_bool false) ]
      [
        transition ~src:"A" ~dst:"B"
          ~actions:
            [
              Efsm.Action.assign "late" (Efsm.Action.i 7);
              Efsm.Action.assign "flag" Efsm.Action.(Not (v "flag"));
              Efsm.Action.send ~port:"out" "note"
                ~args:Efsm.Action.[ v "flag"; v "late" ];
            ]
          (Efsm.Machine.On_signal "kick");
        transition ~src:"B" ~dst:"A"
          ~actions:
            [
              Efsm.Action.send ~port:"out" "note"
                ~args:Efsm.Action.[ v "flag"; i 3 ];
            ]
          (Efsm.Machine.On_signal "kick");
        transition ~src:"B" ~dst:"A" (Efsm.Machine.After 5);
      ]
  in
  let dst =
    machine "Dst" [ "W" ] "W"
      [
        transition ~src:"W" ~dst:"W"
          ~actions:
            [
              Efsm.Action.assign "got" (Efsm.Action.p "b");
              Efsm.Action.assign "cnt" (Efsm.Action.p "n");
            ]
          (Efsm.Machine.On_signal "note");
      ]
  in
  let model = Uml.Model.empty "payload" in
  let model =
    List.fold_left Uml.Model.add_signal model
      [
        Uml.Signal.make "kick";
        Uml.Signal.make
          ~params:[ ("b", Uml.Signal.P_bool); ("n", Uml.Signal.P_int) ]
          "note";
      ]
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:src
         ~ports:
           [
             Uml.Port.make ~sends:[ "note" ] "out";
             Uml.Port.make ~receives:[ "kick" ] "pin";
           ]
         "Src")
  in
  let model =
    Uml.Model.add_class model
      (Uml.Classifier.make ~kind:Uml.Classifier.Active ~behavior:dst
         ~ports:[ Uml.Port.make ~receives:[ "note" ] "pin" ]
         "Dst")
  in
  Uml.Model.add_class model
    (Uml.Classifier.make
       ~ports:[ Uml.Port.make ~receives:[ "kick" ] "env_in" ]
       ~parts:
         [
           { Uml.Classifier.name = "d"; class_name = "Dst" };
           { Uml.Classifier.name = "s"; class_name = "Src" };
         ]
       ~connectors:
         [
           Uml.Connector.make ~name:"c1"
             ~from_:(Uml.Connector.endpoint ~part:"s" "out")
             ~to_:(Uml.Connector.endpoint ~part:"d" "pin");
           Uml.Connector.make ~name:"c2"
             ~from_:(Uml.Connector.endpoint "env_in")
             ~to_:(Uml.Connector.endpoint ~part:"s" "pin");
         ]
       "Sys")

let fresh_world ?coi net =
  Mc.World.create ?coi net ~capacity:3 ~timer_budget:2 ~env_budget:4

let encoded w =
  let n = Mc.World.encode w in
  (Array.sub (Mc.World.vector w) 0 n, Array.sub (Mc.World.keep w) 0 n)

(* Decode [w]'s state into a fresh world and encode it again. *)
let round_trips ?coi net w =
  let vec, keep = encoded w in
  let w' = fresh_world ?coi net in
  Mc.World.decode w' vec;
  encoded w' = (vec, keep)

let enabled net w =
  List.concat
    (List.init (Mc.Net.n_insts net) (fun ix ->
         (if Mc.World.queue_length w ix > 0 then [ Mc.World.deliver ix ] else [])
         @ if Mc.World.timer_enabled w ix then [ Mc.World.timer ix ] else []))
  @ List.filter_map
      (fun e -> if Mc.World.env_left w e > 0 then Some (Mc.World.inject e) else None)
      (List.init (Array.length net.Mc.Net.env_inputs) Fun.id)

(* Follow [choices] (indices into the enabled steps) from the initial
   state, checking the round trip at every state on the way. *)
let walk_round_trips ?coi net choices =
  let w = fresh_world ?coi net in
  Mc.World.init w;
  let rec go = function
    | [] -> true
    | c :: rest -> (
      round_trips ?coi net w
      &&
      match enabled net w with
      | [] -> true
      | steps -> (
        match Mc.World.apply w (List.nth steps (c mod List.length steps)) with
        | _ -> go rest
        | exception Mc.World.Overflow _ -> true))
  in
  go choices

let prop_round_trip name model =
  QCheck.Test.make ~name ~count:100
    QCheck.(pair bool (list_of_size (Gen.int_range 0 40) (int_range 0 1000)))
    (fun (with_coi, choices) ->
      let net = Mc.Net.build (model ()) in
      let coi = if with_coi then Some (Mc.Coi.analyse net) else None in
      walk_round_trips ?coi net choices)

let round_trip_props =
  [
    prop_round_trip "round trip: unbound variables, bool payloads" payload_model;
    prop_round_trip "round trip: seed network" seed_model;
  ]

(* The exact vector after the environment kicks the source once and the
   source handles it, so the layout and the awkward slots are pinned:
   unbound variables, a boolean variable and a queued boolean. *)
let test_payload_vector () =
  let net = Mc.Net.build (payload_model ()) in
  let ix name =
    Hashtbl.find net.Mc.Net.ix_of_path ("Sys/" ^ name)
  in
  check (Alcotest.pair int_t int_t) "instance order" (0, 1) (ix "d", ix "s");
  let w = fresh_world net in
  Mc.World.init w;
  ignore (Mc.World.apply w (Mc.World.inject 0));
  check int_t "src fires its kick transition" 0
    (Mc.World.apply w (Mc.World.deliver (ix "s")));
  let note = Hashtbl.find net.Mc.Net.sig_ids "note" in
  check (Alcotest.array int_t) "vector"
    [|
      (* d: state W; got, cnt unbound (tag 0); one queued note(true, 7) *)
      0; 0; 0; 0; 0; 1; note; 2; 2; 1; 1; 7;
      (* s: state B; flag = true (tag 2), late = 7 (tag 1); empty queue *)
      1; 2; 1; 1; 7; 0;
      (* timer budgets, then the injection budget *)
      2; 2; 3;
    |]
    (fst (encoded w));
  check bool_t "round trip" true (round_trips net w)

let () =
  Alcotest.run "mc"
    [
      ( "seed",
        [
          Alcotest.test_case "exhaustive and clean" `Quick test_seed_exhaustive;
          Alcotest.test_case "determinism across runs and orders" `Quick
            test_seed_determinism;
          Alcotest.test_case "por preserves verdicts" `Quick test_seed_por_sound;
          Alcotest.test_case "env-budget 2 is overflow-free" `Slow
            test_env_budget_two_overflow_free;
          Alcotest.test_case "lint L09 discharged" `Quick
            test_seed_lint_discharged;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "spurious cycle discharged" `Quick
            test_pingpong_free;
          Alcotest.test_case "mutation deadlocks, replay agrees" `Quick
            test_pingpong_deadlock;
          Alcotest.test_case "oracle confirms real deadlock" `Quick
            test_oracle_confirms;
          Alcotest.test_case "oracle degrades on an action error" `Quick
            test_oracle_degrades;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "burst overflows, replay agrees" `Quick
            test_overflow_counterexample;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "unreached state and unfired transition" `Quick
            test_coverage_reports;
          Alcotest.test_case "environment payload caveat" `Quick
            test_env_param_caveat;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "order x por x coi statistics" `Slow
            test_pinned_matrix;
          Alcotest.test_case "edge budgets: verdicts and schedules" `Quick
            test_pinned_edge_budgets;
        ] );
      ("visited", List.map QCheck_alcotest.to_alcotest visited_props);
      ( "encoding",
        Alcotest.test_case "payload vector layout" `Quick test_payload_vector
        :: List.map QCheck_alcotest.to_alcotest round_trip_props );
    ]
