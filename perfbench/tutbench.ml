(* tutbench: the benchmark program for the TUT-Profile flow.

   One invocation runs one workload for a fixed host-time budget as a
   closed loop of serial batch jobs (the next job starts when the
   previous one has finished; one domain, no worker pool) and prints,
   as its last stdout line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With [--trace 0] the
   metrics are the end-to-end ones, measured untraced; with [--trace 1]
   they are the per-layer ones, from spans recorded around each public
   call this program makes plus a replay of the run's own simulation log
   through the inner simulator layers (see replay.ml).

   Workloads (see README.md for why each exists):
     tutmac_flow    XMI -> validate -> lint(+checker) -> lower -> runtime
                    -> Table 4 -> compiled-kernel SA re-mapping -> render
     tutmac_faults  the same model under the fault plan, flows armed,
                    ending in the flow report and the fault section
     wlan_knee      the 200-terminal fleet at the throughput knee
     mc_env2        the model checker at env-budget 2, timer-budget 1 *)

let workloads = [ "tutmac_flow"; "tutmac_faults"; "wlan_knee"; "mc_env2" ]

(* ---- sizes ------------------------------------------------------------ *)

type sizes = {
  tutmac_horizon_ms : int;
  slice_ms : int;  (** simulated time per timed Codegen.Runtime.run slice *)
  sa_iterations : int;
  wlan_horizon_ms : int;
  quick_setups : int;
      (** set-ups per job where one takes milliseconds (wlan_knee,
          mc_env2); the job reports their median *)
  mc_env_budget : int;
  mc_timer_budget : int;
}

let full =
  {
    tutmac_horizon_ms = 60_000;
    slice_ms = 100;
    sa_iterations = 200_000;
    wlan_horizon_ms = 20_000;
    quick_setups = 5;
    mc_env_budget = 2;
    mc_timer_budget = 1;
  }

(* The self-test's sizes: every layer still runs, in well under a second. *)
let tiny =
  {
    tutmac_horizon_ms = 200;
    slice_ms = 20;
    sa_iterations = 2_000;
    wlan_horizon_ms = 20;
    quick_setups = 2;
    mc_env_budget = 1;
    mc_timer_budget = 2;
  }

(* ---- helpers ---------------------------------------------------------- *)

let now = Unix.gettimeofday
let span = Span.with_

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ok_or what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Count the log's state-change records: the simulators' "states". *)
let state_changes trace =
  Sim.Trace.fold trace 0 (fun n -> function
    | Sim.Trace.State_change _ -> n + 1
    | _ -> n)

(* ---- one job's outcome ------------------------------------------------ *)

type sample = {
  setup_s : float;
  run_s : float;
  sim_s : float;  (** host time in the simulation / check call *)
  events : int;  (** simulated events fired (checker: global steps) *)
  states : int;  (** state changes logged (checker: distinct states) *)
  sim_words : float;  (** minor words allocated in that call *)
  delivered_frac : float;
  digest : string;
  failures : string list;  (** failed correctness checks *)
  gc : float * float * float;  (** minor/major collections, promoted words *)
  counters : (string * float) list;  (** per-layer counts of this job *)
  slices_ms : float list;
  speed : float;
      (** {!Calib.reference_s} over the calibration time around the job:
          multiplies a host time into reference-machine seconds *)
}

(* What the traced run replays: the last job's log and system. *)
type replay_input = {
  r_trace : Sim.Trace.t;
  r_sys : Codegen.Ir.system;
  r_events : int;
  r_pending : int;  (** mean events pending in the run's engine *)
}

let last_replay : replay_input option ref = ref None

let gc_stats () =
  let s = Gc.quick_stat () in
  (fi s.Gc.minor_collections, fi s.Gc.major_collections, s.Gc.promoted_words)

(* Run [f] as the job's main phase: host time, minor words and GC deltas. *)
let phase name f =
  let g0 = gc_stats () in
  let t0 = now () in
  let v = span name f in
  let dt = now () -. t0 in
  let a1, b1, c1 = gc_stats () and a0, b0, c0 = g0 in
  (v, dt, (a1 -. a0, b1 -. b0, c1 -. c0))

(* ---- checks (pure, so the self-test can feed broken results) ---------- *)

(* Table 4 charges reference-platform cycles (the logged [E] records);
   each PE's scheduler counts the same work divided by the PE's
   performance factor, so it is scaled back before comparing. *)
let check_table4 (report : Profiler.Report.t) ~pe_cycles ~perf_factor =
  let sum =
    List.fold_left
      (fun acc (pe, c) ->
        Int64.add acc
          (Int64.of_float (Float.round (Int64.to_float c *. perf_factor pe))))
      0L pe_cycles
  in
  if report.Profiler.Report.total_cycles = sum then []
  else
    [
      Printf.sprintf
        "Table 4 total cycles %Ld <> PE executed cycles (in reference \
         cycles) %Ld"
        report.Profiler.Report.total_cycles sum;
    ]

let check_wlan (r : Tutmac.Wlan.result) =
  let open Tutmac.Wlan in
  let accounted = r.delivered + r.abandoned + r.flushed + r.unresolved in
  if r.offered = accounted then []
  else
    [
      Printf.sprintf
        "wlan accounting: offered %d <> delivered %d + abandoned %d + \
         flushed %d + unresolved %d"
        r.offered r.delivered r.abandoned r.flushed r.unresolved;
    ]

let check_mc (r : Mc.Check.report) =
  (if r.Mc.Check.r_stats.Mc.Explore.exhausted then []
   else [ "checker: state space not exhausted" ])
  @ (match Lint.Diagnostic.errors r.Mc.Check.r_diagnostics with
    | [] -> []
    | errs -> [ Printf.sprintf "checker: %d errors" (List.length errs) ])
  @
  if
    List.exists
      (fun d -> d.Lint.Diagnostic.rule = "M02")
      r.Mc.Check.r_diagnostics
  then [ "checker: M02 queue overflow" ]
  else []

let check_dse ~kernel_cost ~reference_cost =
  if kernel_cost = reference_cost then []
  else
    [
      Printf.sprintf "DSE compiled-kernel best cost %h <> reference cost %h"
        kernel_cost reference_cost;
    ]

(* A job fails when any of its checks failed or its rendered output
   differs from the invocation's first job. *)
let failed_jobs samples =
  match samples with
  | [] -> 0
  | first :: _ ->
    List.length
      (List.filter
         (fun s -> s.failures <> [] || s.digest <> first.digest)
         samples)

(* ---- the TUT-Profile flow (tutmac_flow, tutmac_faults) ---------------------------------- *)

let scenario = Tutmac.Scenario.default

(* Degradation re-mapping as the CLI wires it for fault runs: re-run
   the exhaustive mapping search over the profile seen so far, with
   the dead PE's groups restricted to survivors (serial, jobs = 1). *)
let install_remap_hook view runtime =
  let groups = Profiler.Groups.of_view view in
  let platform = Dse.Cost.of_view view in
  let current = ref (Dse.Cost.current_assignment view) in
  Codegen.Runtime.set_remap_hook runtime (fun ~dead_pe ~survivors ->
      let report = Profiler.Report.build groups (Codegen.Runtime.trace runtime) in
      let profile = Dse.Cost.of_report report in
      let candidates =
        List.map
          (fun (group, pes) ->
            let assigned =
              Option.value ~default:dead_pe (List.assoc_opt group !current)
            in
            if assigned = dead_pe then
              let alive = List.filter (fun pe -> List.mem pe survivors) pes in
              (group, if alive = [] then [ List.hd survivors ] else alive)
            else (group, [ assigned ]))
          (Dse.Cost.candidates view)
      in
      let result =
        Dse.Parallel.exhaustive ~jobs:1
          ~eval:(Dse.Cost.cost ~profile ~platform)
          ~candidates ()
      in
      current := result.Dse.Explore.best;
      List.concat_map
        (fun (group, pe) ->
          List.map (fun p -> (p, pe)) (Profiler.Groups.members groups group))
        result.Dse.Explore.best)

let read_model dir =
  match
    Xmi.Read.of_string ~profile:Tut_profile.Stereotypes.profile
      (read_file (Filename.concat dir "inputs/tutmac.xmi"))
  with
  | Ok (model, apps) -> { Tut_profile.Builder.model; Tut_profile.Builder.apps }
  | Error e -> failwith ("tutmac.xmi: " ^ e)

let sum_segments runtime f =
  List.fold_left
    (fun acc (_, s) -> acc +. f s)
    0.
    (Codegen.Runtime.segment_stats runtime)

let tutmac_job ~sizes ~dir ~seed ~faulted =
  let horizon_ns = Int64.mul (Int64.of_int sizes.tutmac_horizon_ms) 1_000_000L in
  let mc_states = ref 0 in
  let setup_t0 = now () in
  let view, sys, runtime, flows, injector =
    span "setup" (fun () ->
        let builder = span "xmi.read" (fun () -> read_model dir) in
        let validation =
          span "core.validate" (fun () -> Tut_profile.Builder.validate builder)
        in
        if not (Tut_profile.Rules.is_valid validation) then
          failwith "model validation failed";
        let model = Tut_profile.Builder.model builder in
        ignore
          (span "lint.run" (fun () ->
               let oracle = Mc.Check.deadlock_oracle model in
               let oracle ~members =
                 let v = span "mc.check" (fun () -> oracle ~members) in
                 (match v with
                 | Lint.Pass.Deadlock_free { states; _ }
                 | Lint.Pass.Deadlock_unknown { states } ->
                   mc_states := states
                 | Lint.Pass.Deadlock_witness _ -> ());
                 v
               in
               Lint.Engine.run
                 {
                   (Lint.Pass.context_of_model model) with
                   Lint.Pass.deadlock_oracle = Some oracle;
                 }));
        let view = Tut_profile.Builder.view builder in
        let sys =
          span "codegen.lower" (fun () ->
              match
                Codegen.Lower.lower
                  ~dispatch_overhead_cycles:
                    scenario.Tutmac.Scenario.dispatch_overhead_cycles
                  ~scheduling:scenario.Tutmac.Scenario.scheduling
                  ~environment:
                    (Tutmac.Workload.environment
                       scenario.Tutmac.Scenario.workload)
                  view
              with
              | Ok sys -> sys
              | Error e -> failwith (String.concat "; " e))
        in
        span "runtime.setup" (fun () ->
            let injector =
              if faulted then
                Some
                  (Fault.Injector.create
                     ~plan:
                       (ok_or "fault_plan.json"
                          (Fault.Plan.of_json_string
                             (read_file
                                (Filename.concat dir "inputs/fault_plan.json"))))
                     ~seed)
              else None
            in
            let flows = if faulted then Some (Obs.Flow.create ()) else None in
            let trace = Sim.Trace.create ~backend:Sim.Trace.Arena () in
            match
              Codegen.Runtime.create ~trace ?faults:injector ?flows
                ~engine:Codegen.Runtime.Compiled sys
            with
            | Error e -> failwith (String.concat "; " e)
            | Ok runtime ->
              if faulted then install_remap_hook view runtime;
              Codegen.Runtime.start runtime;
              (view, sys, runtime, flows, injector)))
  in
  let setup_s = now () -. setup_t0 in
  let slices = ref [] and pending = ref 0 in
  let result, run_s, gc =
    phase "run" (fun () ->
        let (events, sim_s, sim_words) =
          span "runtime.run" (fun () ->
              Span.measure (fun () ->
                  let slice_ns = Int64.mul (Int64.of_int sizes.slice_ms) 1_000_000L in
                  let fired = ref 0 and t = ref 0L in
                  let engine = Codegen.Runtime.engine runtime in
                  while !t < horizon_ns do
                    t := min horizon_ns (Int64.add !t slice_ns);
                    let t0 = now () in
                    fired := !fired + Codegen.Runtime.run runtime ~until_ns:!t;
                    slices := ((now () -. t0) *. 1e3) :: !slices;
                    pending := !pending + Sim.Engine.pending engine
                  done;
                  !fired))
        in
        let trace = Codegen.Runtime.trace runtime in
        let report =
          span "profiler.report" (fun () ->
              Profiler.Report.build (Profiler.Groups.of_view view) trace)
        in
        let flow_report =
          Option.map
            (fun flows ->
              span "profiler.flow_report" (fun () ->
                  Profiler.Flow_report.of_snapshot ~duration_ns:horizon_ns
                    ~pe_busy:(Codegen.Runtime.pe_busy_ns runtime)
                    ~segments:
                      (List.map
                         (fun (seg, s) ->
                           (seg, s.Hibi.Network.words, s.Hibi.Network.max_waiting))
                         (Codegen.Runtime.segment_stats runtime))
                    ~pe_peaks:(Codegen.Runtime.pe_queue_high_water runtime)
                    ~trace
                    (Obs.Metrics.snapshot (Obs.Flow.metrics flows))))
            flows
        in
        let dse =
          if faulted then None
          else
            Some
              (span "dse.explore" (fun () ->
                   let profile = Dse.Cost.of_report report in
                   let platform = Dse.Cost.of_view view in
                   let kernel =
                     Dse.Compiled.compile
                       (Dse.Compiled.spec ~profile ~platform ())
                       ~candidates:(Dse.Cost.candidates view)
                   in
                   let r =
                     Dse.Explore.simulated_annealing_compiled ~seed
                       ~iterations:sizes.sa_iterations ~kernel
                       ~init:(Dse.Cost.current_assignment view) ()
                   in
                   (r, Dse.Cost.cost ~profile ~platform r.Dse.Explore.best)))
        in
        let rendered =
          span "render" (fun () ->
              let b = Buffer.create 4096 in
              Buffer.add_string b (Profiler.Report.render report);
              Option.iter
                (fun (r, _) ->
                  Printf.bprintf b "best cost: %.2f after %d evaluations\n"
                    r.Dse.Explore.best_cost r.Dse.Explore.evaluations;
                  List.iter
                    (fun (g, pe) -> Printf.bprintf b "  %-10s -> %s\n" g pe)
                    r.Dse.Explore.best)
                dse;
              Option.iter
                (fun fr -> Buffer.add_string b (Profiler.Flow_report.render_text fr))
                flow_report;
              Option.iter
                (fun inj ->
                  Buffer.add_string b
                    (Profiler.Report.render_fault_section
                       (Fault.Injector.stats inj)))
                injector;
              Buffer.contents b)
        in
        (events, sim_s, sim_words, report, flow_report, dse, rendered))
  in
  let events, sim_s, sim_words, report, flow_report, dse, rendered = result in
  let replay =
    {
      r_trace = Codegen.Runtime.trace runtime;
      r_sys = sys;
      r_events = events;
      r_pending = max 1 (!pending / max 1 (List.length !slices));
    }
  in
  let failures =
    check_table4 report
      ~pe_cycles:(Codegen.Runtime.pe_executed_cycles runtime)
      ~perf_factor:(fun pe ->
        match Codegen.Ir.find_pe sys pe with
        | Some d -> d.Codegen.Ir.perf_factor
        | None -> 1.)
    @ (match dse with
      | Some (r, reference_cost) ->
        check_dse ~kernel_cost:r.Dse.Explore.best_cost ~reference_cost
      | None -> [])
    @ Codegen.Runtime.runtime_errors runtime
  in
  let hops f = sum_segments runtime (fun s -> Int64.to_float (f s)) in
  let delivered = hops (fun s -> s.Hibi.Network.delivered)
  and lost =
    hops (fun s -> s.Hibi.Network.dropped)
    +. hops (fun s -> s.Hibi.Network.corrupted)
  in
  let horizon = Int64.to_float horizon_ns in
  let pes = Codegen.Runtime.pe_busy_ns runtime in
  let waits = Codegen.Runtime.queue_latencies runtime in
  let handled = List.fold_left (fun a (_, (n, _, _)) -> a + n) 0 waits in
  let fault_counters =
    match injector with
    | None -> [ 0.; 0.; 0.; 0. ]
    | Some inj ->
      let s = Fault.Injector.stats inj in
      [
        fi (Fault.Stats.injected s);
        fi (Fault.Stats.detected s);
        fi (Fault.Stats.recovered s);
        fi s.Fault.Stats.retransmits;
      ]
  in
  let minted, completed =
    match flow_report with
    | Some fr -> (fr.Profiler.Flow_report.minted, fr.Profiler.Flow_report.completed)
    | None -> (0, 0)
  in
  let max_of l = List.fold_left (fun a (_, v) -> max a v) 0 l in
  let counters =
    [
      ("mc.states", fi !mc_states);
      ("obs.flow.minted", fi minted);
      ("obs.flow.completed", fi completed);
    ]
    @ List.combine
        [ "fault.injected"; "fault.detected"; "fault.recovered"; "fault.retransmits" ]
        fault_counters
    @ [
        ("hibi.hop_loss_frac", ratio lost (delivered +. lost));
        ("sim.mailbox.high_water", fi (max_of (Codegen.Runtime.queue_high_water runtime)));
        ( "sim.mailbox.wait_ns_mean",
          ratio
            (List.fold_left (fun a (_, (n, m, _)) -> a +. (fi n *. m)) 0. waits)
            (fi handled) );
        ( "sim.rtos.busy_frac",
          ratio
            (List.fold_left (fun a (_, b) -> a +. Int64.to_float b) 0. pes)
            (horizon *. fi (List.length pes)) );
        ("sim.rtos.queue_high_water", fi (max_of (Codegen.Runtime.pe_queue_high_water runtime)));
        ("hibi.grants", hops (fun s -> s.Hibi.Network.grants));
        ( "hibi.busy_frac",
          ratio
            (hops (fun s -> s.Hibi.Network.busy_ns))
            (horizon *. fi (List.length (Codegen.Runtime.segment_stats runtime))) );
        ( "hibi.max_waiting",
          fi
            (List.fold_left
               (fun a (_, s) -> max a s.Hibi.Network.max_waiting)
               0
               (Codegen.Runtime.segment_stats runtime)) );
        ( "dse.evals",
          match dse with Some (r, _) -> fi r.Dse.Explore.evaluations | None -> 0. );
      ]
  in
  ( {
    setup_s;
    run_s;
    sim_s;
    events;
    states = 0 (* filled by the caller, once per invocation *);
    sim_words;
    (* flows completed / minted under faults; intact HIBI hops / hops
       otherwise (flows are off on the clean path) *)
    delivered_frac =
      (if faulted then ratio (fi completed) (fi minted)
       else ratio delivered (delivered +. lost));
    digest = Digest.to_hex (Digest.string rendered);
    failures;
    gc;
    counters;
    slices_ms = !slices;
    speed = 1.;
  },
    replay )

(* ---- the fleet (wlan_knee) -------------------------------------------- *)

(* The throughput knee of the saturation sweep. *)
let wlan_terminals = 200

let wlan_config ~sizes ~dir ~seed =
  let faults =
    ok_or "wlan_plan.json"
      (Fault.Plan.of_json_string (read_file (Filename.concat dir "inputs/wlan_plan.json")))
  in
  let churn =
    ok_or "wlan_churn.txt"
      (Tutmac.Wlan.churn_of_string
         (String.trim (read_file (Filename.concat dir "inputs/wlan_churn.txt"))))
  in
  {
    Tutmac.Wlan.default with
    Tutmac.Wlan.terminals = wlan_terminals;
    duration_ns = sizes.wlan_horizon_ms * 1_000_000;
    seed;
    churn;
    faults;
    fault_seed = seed;
    jobs = 1;
  }

let wlan_job ~sizes ~dir ~seed =
  (* Set-up is what happens before the first simulated event: reading
     the inputs and building the fleet, timed as a zero-horizon run. *)
  let setups =
    List.init sizes.quick_setups (fun _ ->
        let t0 = now () in
        span "setup" (fun () ->
            let config = wlan_config ~sizes ~dir ~seed in
            ignore (Tutmac.Wlan.run { config with Tutmac.Wlan.duration_ns = 0 }));
        now () -. t0)
  in
  let config = wlan_config ~sizes ~dir ~seed in
  let (r, sim_s, sim_words, rendered), run_s, gc =
    phase "run" (fun () ->
        let r, sim_s, words =
          span "wlan.run" (fun () -> Span.measure (fun () -> Tutmac.Wlan.run config))
        in
        let rendered = span "render" (fun () -> Tutmac.Wlan.render r) in
        (r, sim_s, words, rendered))
  in
  let open Tutmac.Wlan in
  ( {
    setup_s = median setups;
    run_s;
    sim_s;
    events = r.events;
    states = 0;
    sim_words;
    delivered_frac = ratio (fi r.delivered) (fi r.offered);
    digest = Digest.to_hex (Digest.string rendered);
    failures = check_wlan r;
    gc;
    counters =
      [
        ("wlan.attempts", fi r.attempts);
        ("wlan.retries", fi r.retries);
        ("wlan.collision_frac", ratio (fi r.collisions) (fi r.slots_used));
        ("wlan.useful_attempt_frac", ratio (fi r.frags_delivered) (fi r.attempts));
      ];
    slices_ms = [];
    speed = 1.;
  },
    r.trace )

(* ---- the checker (mc_env2) -------------------------------------------- *)

let mc_options sizes =
  {
    Mc.Check.default_options with
    Mc.Check.budget =
      {
        Mc.Explore.default_budget with
        Mc.Explore.max_states = 1_000_000;
        env_budget = sizes.mc_env_budget;
        timer_budget = sizes.mc_timer_budget;
      };
    por = true;
  }

let mc_job ~sizes ~dir =
  let setup () =
    let t0 = now () in
    let model =
      span "setup" (fun () ->
          let builder = span "xmi.read" (fun () -> read_model dir) in
          let model = Tut_profile.Builder.model builder in
          ignore (span "mc.build" (fun () -> Mc.Net.build model));
          model)
    in
    (model, now () -. t0)
  in
  let setups = List.init sizes.quick_setups (fun _ -> setup ()) in
  let model = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let (report, sim_s, sim_words, rendered), run_s, gc =
    phase "run" (fun () ->
        let report, sim_s, words =
          span "mc.check" (fun () ->
              Span.measure (fun () ->
                  ok_or "checker" (Mc.Check.run ~options:(mc_options sizes) model)))
        in
        let rendered = span "render" (fun () -> Mc.Check.render report) in
        (report, sim_s, words, rendered))
  in
  let st = report.Mc.Check.r_stats in
  {
    setup_s;
    run_s;
    sim_s;
    events = st.Mc.Explore.steps;
    states = st.Mc.Explore.states;
    sim_words;
    (* the share of triggered transitions the search delivered an event to *)
    delivered_frac =
      ratio
        (fi (report.Mc.Check.r_total_transitions - report.Mc.Check.r_unfired))
        (fi report.Mc.Check.r_total_transitions);
    digest = Digest.to_hex (Digest.string rendered);
    failures = check_mc report;
    gc;
    counters =
      [
        ("mc.states", fi st.Mc.Explore.states);
        ("mc.steps", fi st.Mc.Explore.steps);
        ("mc.dedup_frac", ratio (fi st.Mc.Explore.dedup) (fi st.Mc.Explore.steps));
        ("mc.frontier_peak", fi st.Mc.Explore.frontier_peak);
      ];
    slices_ms = [];
    speed = 1.;
  }

(* ---- driving one invocation ------------------------------------------- *)

(* One job of [workload].  The simulators' state count (state-change
   records in the log) is deterministic per seed, so it is counted once,
   from the first job; the digest check guards that assumption. *)
let job ~sizes ~dir ~seed ~states_memo workload =
  let with_states s trace =
    let n =
      match !states_memo with
      | Some n -> n
      | None ->
        let n = state_changes trace in
        states_memo := Some n;
        n
    in
    { s with states = n }
  in
  let guard f =
    try f ()
    with e ->
      {
        setup_s = 0.;
        run_s = 0.;
        sim_s = 0.;
        events = 0;
        states = 0;
        sim_words = 0.;
        delivered_frac = 0.;
        digest = "";
        failures = [ Printexc.to_string e ];
        gc = (0., 0., 0.);
        counters = [];
        slices_ms = [];
        speed = 1.;
      }
  in
  guard (fun () ->
      match workload with
      | "tutmac_flow" | "tutmac_faults" ->
        let s, replay =
          tutmac_job ~sizes ~dir ~seed ~faulted:(workload = "tutmac_faults")
        in
        (* only a traced job's log is kept, for the replay *)
        if !Span.recording then last_replay := Some replay;
        with_states s replay.r_trace
      | "wlan_knee" ->
        let s, trace = wlan_job ~sizes ~dir ~seed in
        with_states s trace
      | "mc_env2" -> mc_job ~sizes ~dir
      | w -> invalid_arg ("unknown workload " ^ w))

let is_tutmac w = w = "tutmac_flow" || w = "tutmac_faults"

(* ---- metrics ---------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

(* Host times are reported in reference-machine seconds (see calib.ml):
   each job's time times its calibration factor, median over the jobs.
   [timing_summary] prints the raw host times next to them.  Allocation
   counts, heap and simulated results are deterministic per seed. *)
let end_to_end ~top_heap_words samples =
  let med f = median (List.map f samples) in
  [
    { name = "setup_s"; unit_ = "s"; value = med (fun s -> s.setup_s *. s.speed) };
    { name = "run_s"; unit_ = "s"; value = med (fun s -> s.run_s *. s.speed) };
    {
      name = "events_per_s";
      unit_ = "1/s";
      value = med (fun s -> ratio (fi s.events) (s.sim_s *. s.speed));
    };
    {
      name = "states_per_s";
      unit_ = "1/s";
      value = med (fun s -> ratio (fi s.states) (s.sim_s *. s.speed));
    };
    {
      name = "minor_words_per_event";
      unit_ = "words";
      value = med (fun s -> ratio s.sim_words (fi s.events));
    };
    {
      name = "minor_words_per_state";
      unit_ = "words";
      value = med (fun s -> ratio s.sim_words (fi s.states));
    };
    {
      name = "peak_heap_mb";
      unit_ = "MB";
      value = fi (top_heap_words * (Sys.word_size / 8)) /. 1048576.;
    };
    {
      name = "sim_delivered_frac";
      unit_ = "frac";
      value = med (fun s -> s.delivered_frac);
    };
  ]

let timing_summary samples =
  List.iter
    (fun (name, f) ->
      let xs = List.map f samples in
      Printf.printf "%s: n %d  min %.6f  median %.6f  p90 %.6f\n" name
        (List.length xs)
        (List.fold_left Float.min infinity xs)
        (median xs) (percentile 0.9 xs))
    [
      ("host setup_s", fun s -> s.setup_s);
      ("host run_s", fun s -> s.run_s);
      ("host sim_s", fun s -> s.sim_s);
      ("calibration_s", fun s -> Calib.reference_s /. s.speed);
    ]

type breakdown = {
  rows : (string * float) list;  (** mean self seconds per job *)
  total : float;  (** mean traced run_s *)
}

let per_layer ~workload ~traced ~untraced ~all_samples ~spans =
  let n = fi (max 1 (List.length traced)) in
  let span_s name = fst (Span.total name spans) /. n in
  let span_words name = snd (Span.total name spans) /. n in
  let counter name =
    mean
      (List.map
         (fun s -> Option.value ~default:0. (List.assoc_opt name s.counters))
         traced)
  in
  let run_rows = Span.self_times ~root:"run" spans in
  let run_total = span_s "run" in
  let runtime_run_s = span_s "runtime.run" in
  (* inner layers of Codegen.Runtime.run, from the log replay *)
  let replay_names =
    [
      ("sim.engine.ns_per_op", "ns");
      ("sim.mailbox.ns_per_op", "ns");
      ("sim.rtos.ns_per_job", "ns");
      ("hibi.ns_per_transfer", "ns");
      ("sim.trace.ns_per_record", "ns");
      ("sim.trace.words_per_record", "words");
      ("sim.trace.ns_per_line", "ns");
    ]
  in
  let replayed, replay_values =
    match (!last_replay, is_tutmac workload) with
    | Some r, true ->
      let log = Replay.decode r.r_trace in
      let engine_ns = Replay.engine log ~window:r.r_pending in
      let mailbox_ns = Replay.mailbox r.r_sys log in
      let heap_ns = Replay.heap_engine_ns log in
      let rtos_ns = Replay.rtos r.r_sys log ~engine_ns:heap_ns in
      let hibi_ns, transfers, replayed_records =
        Replay.hibi r.r_sys log ~engine_ns:heap_ns
      in
      let record_ns, record_words, line_ns = Replay.trace log in
      (* full-run counts: the prefix's per-record mix scaled to the log *)
      let scale =
        fi (Sim.Trace.length r.r_trace) /. fi (max 1 replayed_records)
      in
      let pushes = fi (Replay.count log Replay.k_signal) *. scale in
      let jobs = fi (Replay.count log Replay.k_exec) *. scale in
      let ns = 1e-9 in
      ( [
          ("sim.engine", engine_ns *. fi r.r_events *. ns);
          ("sim.mailbox", mailbox_ns *. pushes *. ns);
          ("sim.rtos", rtos_ns *. jobs *. ns);
          ("hibi", hibi_ns *. fi transfers *. scale *. ns);
          ("sim.trace", record_ns *. fi (Sim.Trace.length r.r_trace) *. ns);
        ],
        [ engine_ns; mailbox_ns; rtos_ns; hibi_ns; record_ns; record_words; line_ns ] )
    | _ -> ([], List.map (fun _ -> 0.) replay_names)
  in
  let replay_metrics =
    List.map2 (fun (name, unit_) v -> (name, unit_, v)) replay_names replay_values
  in
  let glue =
    if replayed = [] then 0.
    else runtime_run_s -. List.fold_left (fun a (_, v) -> a +. v) 0. replayed
  in
  let rows =
    List.concat_map
      (fun (name, self) ->
        let self = self /. n in
        if name = "runtime.run" && replayed <> [] then
          replayed @ [ ("runtime.dispatch_glue", glue) ]
        else [ (name, self) ])
      run_rows
  in
  let setup_rows =
    List.map (fun (k, v) -> (k, v /. n)) (Span.self_times ~root:"setup" spans)
  in
  let slices = List.concat_map (fun s -> s.slices_ms) traced in
  let mc_s = span_s "mc.check" and mc_states = counter "mc.states" in
  let wlan_s = span_s "wlan.run" in
  let wlan_events =
    if workload = "wlan_knee" then mean (List.map (fun s -> fi s.events) traced)
    else 0.
  in
  let dse_s = span_s "dse.explore" and dse_evals = counter "dse.evals" in
  let gc_mean f = mean (List.map (fun s -> f s.gc) traced) in
  let run_med l = median (List.map (fun s -> s.run_s) l) in
  let m name unit_ value = (name, unit_, value) in
  let metrics =
    [
      m "xmi.read_s" "s" (span_s "xmi.read");
      m "core.validate_s" "s" (span_s "core.validate");
      m "lint.run_s" "s" (span_s "lint.run");
      m "codegen.lower_s" "s" (span_s "codegen.lower");
      m "runtime.setup_s" "s" (span_s "runtime.setup");
      m "runtime.run_s" "s" runtime_run_s;
      m "runtime.slice_p50_ms" "ms" (percentile 0.5 slices);
      m "runtime.slice_p99_ms" "ms" (percentile 0.99 slices);
    ]
    @ replay_metrics
    @ [
        m "runtime.dispatch_glue_s" "s" glue;
        m "profiler.report_s" "s" (span_s "profiler.report");
        m "profiler.flow_report_s" "s" (span_s "profiler.flow_report");
        m "render_s" "s" (span_s "render");
        m "dse.explore_s" "s" dse_s;
        m "dse.evals" "count" dse_evals;
        m "dse.evals_per_s" "1/s" (ratio dse_evals dse_s);
        m "obs.flow.minted" "count" (counter "obs.flow.minted");
        m "obs.flow.completed" "count" (counter "obs.flow.completed");
        m "fault.injected" "count" (counter "fault.injected");
        m "fault.detected" "count" (counter "fault.detected");
        m "fault.recovered" "count" (counter "fault.recovered");
        m "fault.retransmits" "count" (counter "fault.retransmits");
        m "hibi.hop_loss_frac" "frac" (counter "hibi.hop_loss_frac");
        m "sim.mailbox.high_water" "count" (counter "sim.mailbox.high_water");
        m "sim.mailbox.wait_ns_mean" "ns" (counter "sim.mailbox.wait_ns_mean");
        m "sim.rtos.busy_frac" "frac" (counter "sim.rtos.busy_frac");
        m "sim.rtos.queue_high_water" "count" (counter "sim.rtos.queue_high_water");
        m "hibi.grants" "count" (counter "hibi.grants");
        m "hibi.busy_frac" "frac" (counter "hibi.busy_frac");
        m "hibi.max_waiting" "count" (counter "hibi.max_waiting");
        m "wlan.run_s" "s" wlan_s;
        m "wlan.events" "count" wlan_events;
        m "wlan.ns_per_event" "ns" (ratio (wlan_s *. 1e9) wlan_events);
        m "wlan.words_per_event" "words" (ratio (span_words "wlan.run") wlan_events);
        m "wlan.attempts" "count" (counter "wlan.attempts");
        m "wlan.retries" "count" (counter "wlan.retries");
        m "wlan.collision_frac" "frac" (counter "wlan.collision_frac");
        m "wlan.useful_attempt_frac" "frac" (counter "wlan.useful_attempt_frac");
        m "mc.check_s" "s" mc_s;
        m "mc.states" "count" mc_states;
        m "mc.steps" "count" (counter "mc.steps");
        m "mc.dedup_frac" "frac" (counter "mc.dedup_frac");
        m "mc.frontier_peak" "count" (counter "mc.frontier_peak");
        m "mc.ns_per_state" "ns" (ratio (mc_s *. 1e9) mc_states);
        m "mc.words_per_state" "words" (ratio (span_words "mc.check") mc_states);
        m "gc.minor_collections" "count" (gc_mean (fun (a, _, _) -> a));
        m "gc.major_collections" "count" (gc_mean (fun (_, b, _) -> b));
        m "gc.promoted_words" "words" (gc_mean (fun (_, _, c) -> c));
        m "trace.overhead_frac" "frac" (ratio (run_med traced) (run_med untraced) -. 1.);
        m "failed_frac" "frac"
          (ratio (fi (failed_jobs all_samples)) (fi (List.length all_samples)));
      ]
  in
  ( List.map (fun (name, unit_, value) -> { name; unit_; value }) metrics,
    { rows = setup_rows; total = span_s "setup" },
    { rows; total = run_total } )

(* ---- output ----------------------------------------------------------- *)

let json_float v =
  if not (Float.is_finite v) then "0.0"
  else if Float.is_integer v then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_float m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed body

(* Rows below zero: a replay estimate larger than the run it splits
   (negative dispatch glue), or an RTOS/HIBI replay cheaper than the
   engine cost subtracted from it. *)
let negative_rows b = List.filter (fun (_, v) -> v < 0.) b.rows

let print_table title b =
  Printf.printf "%s (mean over traced jobs, seconds)\n" title;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-26s %12.6f  %5.1f%%\n" name v (100. *. ratio v b.total))
    b.rows;
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. b.rows in
  Printf.printf "  %-26s %12.6f  (traced total %.6f)\n" "sum" sum b.total

(* ---- main ------------------------------------------------------------- *)

type run_result = {
  samples : sample list;
  metrics : metric list;
  tables : (breakdown * breakdown) option;  (** setup, run *)
}

let run_workload ?(verbose = false) ~sizes ~dir ~seed ~seconds ~trace workload =
  last_replay := None;
  Span.reset ();
  let states_memo = ref None in
  let min_jobs = if trace then 4 else 3 in
  let start = now () in
  (* a job starts only if, judged by the previous one, it ends in time *)
  let last = ref 0. in
  let cal_before = ref (Calib.sample ()) in
  (* The first job's peak from a fresh process.  Later jobs can only
     raise the process's top heap through fragmentation, by an amount
     that would depend on how many jobs fit in the run. *)
  let top_heap_words = ref 0 in
  let rec loop k traced untraced =
    if k >= min_jobs && now () -. start +. !last > seconds then
      (List.rev traced, List.rev untraced)
    else begin
      let t0 = now () in
      (* the traced run alternates traced and untraced jobs, so the two
         halves see the same machine state and give trace.overhead_frac *)
      let on = trace && k mod 2 = 1 in
      (* every job starts after a full major collection: the previous
         job's garbage is not charged to this one *)
      Gc.compact ();
      Span.recording := on;
      let s = job ~sizes ~dir ~seed ~states_memo workload in
      Span.recording := false;
      if k = 0 then top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      let cal_after = Calib.sample () in
      let s =
        { s with speed = Calib.reference_s /. ((!cal_before +. cal_after) /. 2.) }
      in
      cal_before := cal_after;
      last := now () -. t0;
      if verbose then
        Printf.printf
          "job %d%s setup_s %.6f run_s %.6f sim_s %.6f events %d speed %.4f\n%!"
          k
          (if on then " traced" else "")
          s.setup_s s.run_s s.sim_s s.events s.speed;
      if on then loop (k + 1) (s :: traced) untraced
      else loop (k + 1) traced (s :: untraced)
    end
  in
  let traced, untraced = loop 0 [] [] in
  let all_samples = traced @ untraced in
  let good l = List.filter (fun s -> s.failures = []) l in
  if not trace then
    {
      samples = all_samples;
      metrics = end_to_end ~top_heap_words:!top_heap_words (good untraced);
      tables = None;
    }
  else
    let metrics, setup_b, run_b =
      per_layer ~workload ~traced:(good traced) ~untraced:(good untraced)
        ~all_samples ~spans:(Span.all ())
    in
    { samples = all_samples; metrics; tables = Some (setup_b, run_b) }

let env_line ~nproc ~commit =
  Printf.sprintf "env nproc=%s recommended_domain_count=%d ocaml=%s commit=%s"
    nproc
    (Domain.recommended_domain_count ())
    Sys.ocaml_version commit

(* ---- self-test -------------------------------------------------------- *)

let benchmark_names path =
  let json = ok_or path (Obs.Json.parse (read_file path)) in
  let names key =
    match Obs.Json.member key json with
    | Some (Obs.Json.List l) ->
      List.filter_map
        (fun m ->
          match Obs.Json.member "name" m with
          | Some (Obs.Json.Str s) -> Some s
          | _ -> None)
        l
    | _ -> failwith (path ^ ": no " ^ key)
  in
  (names "workloads", names "end_to_end", names "per_layer")

let self_test ~dir ~benchmark =
  let errors = ref 0 in
  let expect what cond =
    if not cond then begin
      incr errors;
      Printf.printf "FAIL %s\n" what
    end
    else Printf.printf "ok   %s\n" what
  in
  let bench_workloads, e2e, layer = benchmark_names benchmark in
  expect "BENCHMARK.json names the workloads of tutbench" (bench_workloads = workloads);
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = run_workload ~sizes:tiny ~dir ~seed:1 ~seconds:0. ~trace w in
          let mode = if trace then "traced" else "untraced" in
          List.iter
            (fun s ->
              List.iter (fun f -> Printf.printf "     %s: %s\n" w f) s.failures)
            r.samples;
          expect
            (Printf.sprintf "%s %s: every job passes its checks" w mode)
            (failed_jobs r.samples = 0);
          expect
            (Printf.sprintf "%s %s: metric names match BENCHMARK.json" w mode)
            (List.map (fun m -> m.name) r.metrics = if trace then layer else e2e);
          if not trace then
            expect
              (Printf.sprintf "%s: end-to-end metrics are non-zero" w)
              (List.for_all (fun m -> m.value > 0.) r.metrics);
          match r.tables with
          | None -> ()
          | Some (_, run_b) ->
            let sum = List.fold_left (fun a (_, v) -> a +. v) 0. run_b.rows in
            expect
              (Printf.sprintf "%s: per-layer self times sum to traced run_s" w)
              (Float.abs (sum -. run_b.total) <= 1e-9 *. Float.max 1. run_b.total);
            List.iter
              (fun (name, v) -> Printf.printf "     %s: %s %.9f\n" w name v)
              (negative_rows run_b);
            expect
              (Printf.sprintf "%s: no per-layer row, dispatch glue included, is negative" w)
              (negative_rows run_b = []))
        [ false; true ])
    workloads;
  (* broken results must count as failed *)
  let r = run_workload ~sizes:tiny ~dir ~seed:1 ~seconds:0. ~trace:false "mc_env2" in
  let bad_digest =
    match r.samples with
    | s :: rest -> s :: { s with digest = "0" } :: rest
    | [] -> []
  in
  expect "a digest mismatch counts as a failed job" (failed_jobs bad_digest = 1);
  let w =
    Tutmac.Wlan.run
      { (wlan_config ~sizes:tiny ~dir ~seed:1) with Tutmac.Wlan.duration_ns = 1_000_000 }
  in
  expect "a consistent wlan result passes" (check_wlan w = []);
  expect "a wlan accounting gap is caught"
    (check_wlan { w with Tutmac.Wlan.delivered = w.Tutmac.Wlan.delivered - 1 } <> []);
  expect "a DSE cost mismatch is caught"
    (check_dse ~kernel_cost:1.0 ~reference_cost:(1.0 +. epsilon_float) <> []);
  !errors = 0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref nan and trace = ref 0 in
  let dir = ref "perfbench" and nproc = ref "unknown" and commit = ref "unknown" in
  let self = ref false and benchmark = ref "BENCHMARK.json" in
  let calibrate = ref false in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (fleet, fault and SA seed)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--dir", Arg.Set_string dir, "DIR the benchmark directory (inputs/)");
      ("--nproc", Arg.Set_string nproc, "N processor count, recorded");
      ("--commit", Arg.Set_string commit, "SHA source commit, recorded");
      ("--spans-out", Arg.Set_string spans_out, "FILE write traced spans here");
      ("--self-test", Arg.Set self, " run the benchmark's self-test");
      ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json for --self-test");
      ("--calibrate", Arg.Set calibrate, " time the calibration kernel once (child process)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tutbench --workload NAME --seed N --seconds S --trace 0|1";
  if !calibrate then begin
    Calib.run_child ();
    exit 0
  end;
  if !self then exit (if self_test ~dir:!dir ~benchmark:!benchmark then 0 else 1);
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if Float.is_nan !seconds then begin
    prerr_endline "missing --seconds";
    exit 2
  end;
  if not (Sys.file_exists (Filename.concat !dir "inputs/tutmac.xmi")) then begin
    prerr_endline ("missing benchmark inputs under " ^ !dir);
    exit 2
  end;
  let env = env_line ~nproc:!nproc ~commit:!commit in
  print_endline env;
  let trace = !trace = 1 in
  let r =
    run_workload ~verbose:true ~sizes:full ~dir:!dir ~seed:!seed ~seconds:!seconds ~trace
      !workload
  in
  let failed = failed_jobs r.samples in
  List.iter
    (fun s -> List.iter (Printf.printf "check failed: %s\n") s.failures)
    r.samples;
  (match r.samples with
  | s :: _ ->
    Printf.printf "digest %s seed=%d %s\n" !workload !seed s.digest
  | [] -> ());
  if not trace then timing_summary r.samples;
  (match r.tables with
  | Some (setup_b, run_b) ->
    print_table (Printf.sprintf "%s setup_s" !workload) setup_b;
    print_table (Printf.sprintf "%s run_s" !workload) run_b;
    List.iter
      (fun (name, v) ->
        Printf.printf "warning: negative per-layer row %s %.9f s\n" name v)
      (negative_rows setup_b @ negative_rows run_b)
  | None -> ());
  if trace && !spans_out <> "" then begin
    let oc = open_out !spans_out in
    Printf.fprintf oc "# %s workload=%s seed=%d\n" env !workload !seed;
    Span.dump oc (Span.all ());
    close_out oc
  end;
  print_endline (result_line ~attempted:(List.length r.samples) ~failed r.metrics)
