(* Per-layer cost of the simulator's inner layers, measured by replaying
   a workload's own simulation log through each layer's public
   functions.  [Codegen.Runtime.run] drives all of them from one call
   and the library holds no timers of its own, so the benchmark replays
   what the log says happened:

   - Sim.Engine: one [schedule_at_ns] + [step] per record, at the
     logged timestamp, keeping as many events pending as the run's
     engine held on average (sampled at every run slice);
   - Sim.Mailbox: a [push] into the receiver's ring per [S] record and
     a [pop] of the process's oldest entry per [E] record (environment
     processes log no [E]: they pop on receipt);
   - Sim.Rtos: a [submit_i] of the logged cycles per [E] record on the
     process's PE, the engine advanced to the logged time in between;
   - Hibi.Network: a [transfer] per inter-PE [S] record on the model's
     own platform, the engine advanced likewise;
   - Sim.Trace: the [record_*] appender per record into a fresh arena,
     then [to_lines] over it.

   The RTOS and HIBI replays need an engine to run.  It holds one or
   two events at a time, a population on which the calendar queue
   scans empty buckets, so they run on the binary heap and the events
   they fire are charged at the heap's own ns/op at that depth
   ({!heap_engine_ns}) and subtracted.
   Only the first [cap] records are replayed: rates per operation are
   what the breakdown multiplies by the run's own counts. *)

let cap = 500_000

(* Record kinds, as stored in [kind]. *)
let k_exec = 0
let k_signal = 1
let k_state = 2
let k_discard = 3
let k_fault = 4
let k_retransmit = 5
let k_flow = 6

type log = {
  n : int;
  kind : Bytes.t;
  time : int array;
  p1 : int array;
  p2 : int array;
  p3 : int array;
  p4 : int array;
  p5 : int array;
  names : string array;  (** id -> string for p* columns that are names *)
  faults : Sim.Trace.event array;  (** [F] records, indexed by p1 *)
}

(* Decode (a prefix of) the trace into int columns, outside any timed
   region, so the replays time the layers and not the log decoder. *)
let decode trace =
  let n = min cap (Sim.Trace.length trace) in
  let ids = Hashtbl.create 256 in
  let names = ref [] in
  let id s =
    match Hashtbl.find_opt ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids s i;
      names := s :: !names;
      i
  in
  let kind = Bytes.make n '\000' in
  let col () = Array.make n 0 in
  let time = col () and p1 = col () and p2 = col () and p3 = col ()
  and p4 = col () and p5 = col () in
  let faults = ref [] and n_faults = ref 0 in
  for i = 0 to n - 1 do
    let set k t a b c d e =
      Bytes.set kind i (Char.chr k);
      time.(i) <- Int64.to_int t;
      p1.(i) <- a;
      p2.(i) <- b;
      p3.(i) <- c;
      p4.(i) <- d;
      p5.(i) <- e
    in
    match Sim.Trace.get trace i with
    | Sim.Trace.Exec { time; process; cycles } ->
      set k_exec time (id process) (Int64.to_int cycles) 0 0 0
    | Sim.Trace.Signal { time; sender; receiver; signal; words; tag } ->
      set k_signal time (id sender) (id receiver) (id signal) words tag
    | Sim.Trace.State_change { time; process; from_; to_ } ->
      set k_state time (id process) (id from_) (id to_) 0 0
    | Sim.Trace.Discard { time; process; signal } ->
      set k_discard time (id process) (id signal) 0 0 0
    | Sim.Trace.Fault { time; _ } as ev ->
      faults := ev :: !faults;
      set k_fault time !n_faults 0 0 0 0;
      incr n_faults
    | Sim.Trace.Retransmit { time; sender; receiver; signal; attempt } ->
      set k_retransmit time (id sender) (id receiver) (id signal) attempt 0
    | Sim.Trace.Flow_hop { time; flow; stage; where_; dur } ->
      set k_flow time flow (id stage) (id where_) (Int64.to_int dur) 0
  done;
  {
    n;
    kind;
    time;
    p1;
    p2;
    p3;
    p4;
    p5;
    names = Array.of_list (List.rev !names);
    faults = Array.of_list (List.rev !faults);
  }

let kind_at log i = Char.code (Bytes.unsafe_get log.kind i)

let count log k =
  let c = ref 0 in
  for i = 0 to log.n - 1 do
    if kind_at log i = k then incr c
  done;
  !c

(* Positions of the records a replay visits, found before timing. *)
let indices log pred =
  let acc = ref [] in
  for i = log.n - 1 downto 0 do
    if pred i then acc := i :: !acc
  done;
  Array.of_list !acc

let noop () = ()

(* ns per schedule+step pair. *)
let engine ?(backend = `Calendar) log ~window =
  let eng = Sim.Engine.create ~backend () in
  let (), dt, _ =
    Span.measure (fun () ->
        for i = 0 to log.n - 1 do
          ignore (Sim.Engine.schedule_at_ns eng ~time:log.time.(i) noop);
          if i >= window then ignore (Sim.Engine.step eng)
        done;
        while Sim.Engine.step eng do
          ()
        done)
  in
  dt *. 1e9 /. float_of_int (max 1 log.n)

let pe_of_name (sys : Codegen.Ir.system) log =
  Array.map
    (fun name ->
      match Codegen.Ir.find_proc sys name with
      | Some p -> p.Codegen.Ir.pe
      | None -> None)
    log.names

(* ns per push (each push is eventually popped). *)
let mailbox (sys : Codegen.Ir.system) log =
  let on_platform = Array.map Option.is_some (pe_of_name sys log) in
  let rings =
    Array.init (Array.length log.names) (fun _ ->
        Sim.Mailbox.Flat.create ~dummy:0 ())
  in
  let pushes = count log k_signal in
  let visit =
    indices log (fun i ->
        let k = kind_at log i in
        k = k_signal || k = k_exec)
  in
  let (), dt, _ =
    Span.measure (fun () ->
        for j = 0 to Array.length visit - 1 do
          let i = visit.(j) in
          let k = kind_at log i in
          if k = k_signal then begin
            let r = rings.(log.p2.(i)) in
            Sim.Mailbox.Flat.push r log.p3.(i) (-1) log.time.(i) i;
            if not on_platform.(log.p2.(i)) then begin
              ignore (Sim.Mailbox.Flat.head_a r);
              ignore (Sim.Mailbox.Flat.pop r)
            end
          end
          else if k = k_exec then begin
            let r = rings.(log.p1.(i)) in
            if not (Sim.Mailbox.Flat.is_empty r) then begin
              ignore (Sim.Mailbox.Flat.head_a r);
              ignore (Sim.Mailbox.Flat.pop r)
            end
          end
        done;
        Array.iter
          (fun r ->
            while not (Sim.Mailbox.Flat.is_empty r) do
              ignore (Sim.Mailbox.Flat.pop r)
            done)
          rings)
  in
  dt *. 1e9 /. float_of_int (max 1 pushes)

(* The cost of one event of the RTOS/HIBI replays' own engine. *)
let heap_engine_ns log = engine ~backend:`Binary_heap log ~window:1

let advance eng fired t =
  fired := !fired + Sim.Engine.run ~until:(Int64.of_int t) eng

(* ns per submitted job, engine events subtracted at [engine_ns]. *)
let rtos (sys : Codegen.Ir.system) log ~engine_ns =
  let eng = Sim.Engine.create ~backend:`Binary_heap () in
  let scheds = Hashtbl.create 8 in
  List.iter
    (fun (pe : Codegen.Ir.pe_decl) ->
      Hashtbl.replace scheds pe.Codegen.Ir.pe_name
        (Sim.Rtos.create ~engine:eng ~name:pe.Codegen.Ir.pe_name
           ~policy:
             (match pe.Codegen.Ir.scheduling with
             | Codegen.Ir.Fifo -> Sim.Rtos.Fifo
             | Codegen.Ir.Priority_preemptive -> Sim.Rtos.Priority_preemptive)
           ~frequency_mhz:pe.Codegen.Ir.frequency_mhz
           ~perf_factor:pe.Codegen.Ir.perf_factor ()))
    sys.Codegen.Ir.pes;
  let sched_of =
    Array.map
      (function None -> None | Some pe -> Hashtbl.find_opt scheds pe)
      (pe_of_name sys log)
  in
  let prio =
    Array.map
      (fun name ->
        match Codegen.Ir.find_proc sys name with
        | Some p -> p.Codegen.Ir.priority
        | None -> 0)
      log.names
  in
  let fired = ref 0 in
  let visit =
    indices log (fun i ->
        kind_at log i = k_exec && sched_of.(log.p1.(i)) <> None)
  in
  let (), dt, _ =
    Span.measure (fun () ->
        for j = 0 to Array.length visit - 1 do
          let i = visit.(j) in
          match sched_of.(log.p1.(i)) with
          | None -> ()
          | Some s ->
            advance eng fired log.time.(i);
            Sim.Rtos.submit_i s ~task:log.names.(log.p1.(i))
              ~priority:prio.(log.p1.(i)) ~cycles:log.p2.(i) noop
        done;
        fired := !fired + Sim.Engine.run eng)
  in
  let own = (dt *. 1e9) -. (engine_ns *. float_of_int !fired) in
  own /. float_of_int (max 1 (Array.length visit))

let network_of (sys : Codegen.Ir.system) eng =
  let net = Hibi.Network.create eng in
  List.iter
    (fun (s : Codegen.Ir.segment_decl) ->
      Hibi.Network.add_segment net ~name:s.Codegen.Ir.seg_name
        ~data_width_bits:s.Codegen.Ir.data_width_bits
        ~frequency_mhz:s.Codegen.Ir.seg_frequency_mhz
        ~arbitration:
          (match s.Codegen.Ir.arbitration with
          | Codegen.Ir.Priority -> Hibi.Network.Priority
          | Codegen.Ir.Round_robin -> Hibi.Network.Round_robin)
        ~max_send_size:s.Codegen.Ir.max_send_size ())
    sys.Codegen.Ir.segments;
  List.iter
    (function
      | Codegen.Ir.Agent_wrapper
          { name; agent; address; segment; buffer_size; max_time; bus_priority }
        ->
        Hibi.Network.add_agent_wrapper net ~name ~agent ~address ~segment
          ~buffer_size ~max_time ~bus_priority ()
      | Codegen.Ir.Bridge_wrapper
          { name; address; segments; buffer_size; max_time; bus_priority } ->
        Hibi.Network.add_bridge_wrapper net ~name ~address ~segments
          ~buffer_size ~max_time ~bus_priority ())
    sys.Codegen.Ir.wrappers;
  net

(* ns per inter-PE transfer, engine events subtracted; also returns
   how many of the replayed [S] records crossed PEs. *)
let hibi (sys : Codegen.Ir.system) log ~engine_ns =
  let eng = Sim.Engine.create ~backend:`Binary_heap () in
  let net = network_of sys eng in
  let pe = pe_of_name sys log in
  let fired = ref 0 and transfers = ref 0 in
  let on_outcome (_ : Hibi.Network.outcome) = () in
  let visit =
    indices log (fun i ->
        kind_at log i = k_signal
        &&
        match (pe.(log.p1.(i)), pe.(log.p2.(i))) with
        | Some src, Some dst -> src <> dst
        | _ -> false)
  in
  let (), dt, _ =
    Span.measure (fun () ->
        for j = 0 to Array.length visit - 1 do
          let i = visit.(j) in
          match (pe.(log.p1.(i)), pe.(log.p2.(i))) with
          | Some src, Some dst -> (
            advance eng fired log.time.(i);
            match
              Hibi.Network.transfer net ~src ~dst ~words:log.p4.(i) ~on_outcome
            with
            | Ok () -> incr transfers
            | Error e -> failwith ("hibi replay: " ^ e))
          | _ -> ()
        done;
        fired := !fired + Sim.Engine.run eng)
  in
  let own = (dt *. 1e9) -. (engine_ns *. float_of_int !fired) in
  (own /. float_of_int (max 1 !transfers), !transfers, log.n)

(* (ns per record, minor words per record, ns per rendered line). *)
let trace log =
  let t = Sim.Trace.create ~backend:Sim.Trace.Arena () in
  let ids = Array.map (Sim.Trace.intern t) log.names in
  let (), dt, words =
    Span.measure (fun () ->
        for i = 0 to log.n - 1 do
          let k = kind_at log i and time = log.time.(i) in
          if k = k_exec then
            Sim.Trace.record_exec t ~time ~process:ids.(log.p1.(i))
              ~cycles:log.p2.(i)
          else if k = k_signal then
            Sim.Trace.record_signal t ~time ~sender:ids.(log.p1.(i))
              ~receiver:ids.(log.p2.(i)) ~signal:ids.(log.p3.(i))
              ~words:log.p4.(i) ~tag:log.p5.(i)
          else if k = k_state then
            Sim.Trace.record_state_change t ~time ~process:ids.(log.p1.(i))
              ~from_:ids.(log.p2.(i)) ~to_:ids.(log.p3.(i))
          else if k = k_discard then
            Sim.Trace.record_discard t ~time ~process:ids.(log.p1.(i))
              ~signal:ids.(log.p2.(i))
          else if k = k_fault then Sim.Trace.record t log.faults.(log.p1.(i))
          else if k = k_retransmit then
            Sim.Trace.record_retransmit t ~time ~sender:ids.(log.p1.(i))
              ~receiver:ids.(log.p2.(i)) ~signal:ids.(log.p3.(i))
              ~attempt:log.p4.(i)
          else
            Sim.Trace.record_flow_hop t ~time ~flow:log.p1.(i)
              ~stage:ids.(log.p2.(i)) ~where_:ids.(log.p3.(i))
              ~dur:log.p4.(i)
        done)
  in
  let lines, dt_lines, _ = Span.measure (fun () -> Sim.Trace.to_lines t) in
  let n = float_of_int (max 1 log.n) in
  ignore (Sys.opaque_identity lines);
  (dt *. 1e9 /. n, words /. n, dt_lines *. 1e9 /. n)
