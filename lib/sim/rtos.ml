type policy = Fifo | Priority_preemptive

(* Times and cycle counts are native ints end to end (the [int64]
   entry points convert at the boundary), so a submit/dispatch/complete
   round allocates no number boxes. *)
type job = {
  (* all fields mutable: completed job records go on a per-scheduler
     free list and are refilled in place by the next submit, so the
     steady state allocates no job records at all *)
  mutable task : string;
  mutable priority : int;
  mutable flow : int;  (** causal flow id the job belongs to; -1 = none *)
  mutable remaining_cycles : int;
  mutable seq : int;  (** arrival order; ties broken FIFO *)
  mutable ready_since : int;  (** last time the job entered the ready queue *)
  mutable on_complete : unit -> unit;
  mutable next_free : job;  (** free-list link; [== no_job] = end *)
}

(* Sentinel for "nothing running": the running-job state lives in flat
   mutable fields (no [running option] record per dispatch), and the
   completion event is one shared closure per scheduler rather than one
   per dispatch.  That is sound because [Engine.cancel] always precedes
   any change of the running job (preemption, crash), so a completion
   that actually fires always refers to the job currently in
   [t.running].  [seq = -1] can never collide with a real job. *)
let rec no_job =
  {
    task = "";
    priority = min_int;
    flow = -1;
    remaining_cycles = 0;
    seq = -1;
    ready_since = 0;
    on_complete = ignore;
    next_free = no_job;
  }

type t = {
  engine : Engine.t;
  name : string;
  policy : policy;
  frequency_mhz : int;
  perf_factor : float;
  mutable queue : job list;
  mutable running : job;  (** [== no_job] when idle *)
  mutable run_started : int;
  mutable run_completion : Engine.handle;
  mutable run_scale : float;
      (** slowdown factor in force when the running job was dispatched *)
  mutable completion_fn : unit -> unit;  (** shared; completes [running] *)
  mutable free : job;  (** free list of recycled job records *)
  mutable crashed : bool;
  mutable speed_scale : float;
      (** > 1.0 stretches job durations (transient slowdown fault) *)
  mutable busy_ns : int;
  mutable executed_cycles : int;
  mutable next_seq : int;
  mutable queue_len : int;
  mutable queue_high_water : int;
      (** peak ready-queue length, maintained unconditionally so reports
          can read it without a live metrics scope *)
  tracer : Obs.Tracer.t;
  track : string;  (** tracing lane, "rtos/<name>" *)
  obs_on : bool;
  trace_on : bool;
  m_jobs : Obs.Metrics.counter;
  m_preemptions : Obs.Metrics.counter;
  m_queue_depth : Obs.Metrics.gauge;
  m_sched_latency : Obs.Histogram.t;
}

let name t = t.name
let policy t = t.policy

let cycles_to_ns_i t cycles =
  (* ns = cycles * 1000 / MHz, rounded up so work never takes zero time. *)
  ((cycles * 1000) + t.frequency_mhz - 1) / t.frequency_mhz

let cycles_to_ns t cycles = Int64.of_int (cycles_to_ns_i t (Int64.to_int cycles))

let ns_to_cycles t ns = ns * t.frequency_mhz / 1000

let scale_cycles t cycles =
  let scaled = int_of_float (float_of_int cycles /. t.perf_factor) in
  if scaled < 1 then 1 else scaled

let better t a b =
  match t.policy with
  | Fifo -> a.seq < b.seq
  | Priority_preemptive ->
    a.priority > b.priority || (a.priority = b.priority && a.seq < b.seq)

(* [better] is a strict total order (seq is unique), so the minimum is
   independent of list order — the queue is a prepend-only bag.  Both
   helpers are plain recursions, not fold/filter, so a scan allocates
   no closures and removal copies only the prefix before the hit. *)
let rec find_best t best = function
  | [] -> best
  | j :: rest -> find_best t (if better t j best then j else best) rest

let rec remove_job best = function
  | [] -> []
  | j :: rest -> if j == best then rest else j :: remove_job best rest

(* A finished run slice (completion or preemption) becomes one span on
   the scheduler's trace lane.  Callers guard on [t.trace_on] and call
   before clearing [t.running]. *)
let slice_span t ~preempted =
  let job = t.running in
  let now = Engine.now_ns t.engine in
  let args =
    [
      ("priority", Obs.Span.Int job.priority);
      ("preempted", Obs.Span.Bool preempted);
    ]
  in
  Obs.Tracer.complete t.tracer ~ts_ns:(Int64.of_int t.run_started)
    ~dur_ns:(Int64.of_int (now - t.run_started)) ~cat:"rtos" ~track:t.track
    ~args:
      (if job.flow >= 0 then ("flow", Obs.Span.Int job.flow) :: args
       else args)
    job.task

(* Recycle a finished job record; drop the closure and task references
   so the free list pins nothing. *)
let release t job =
  job.on_complete <- ignore;
  job.task <- "";
  job.next_free <- t.free;
  t.free <- job

let rec dispatch t =
  if t.running == no_job && not t.crashed then
    match t.queue with
    | [] -> ()
    | first :: rest ->
      let job = find_best t first rest in
      t.queue <- (if job == first then rest else remove_job job t.queue);
      t.queue_len <- t.queue_len - 1;
      run_job t job

and run_job t job =
  let scale = t.speed_scale in
  let duration =
    let d = cycles_to_ns_i t job.remaining_cycles in
    if scale = 1.0 then d
    else
      let stretched = int_of_float (ceil (float_of_int d *. scale)) in
      max d stretched
  in
  let started_at = Engine.now_ns t.engine in
  (if t.obs_on then begin
     Obs.Metrics.set t.m_queue_depth t.queue_len;
     Obs.Histogram.record t.m_sched_latency (started_at - job.ready_since)
   end);
  t.running <- job;
  t.run_started <- started_at;
  t.run_scale <- scale;
  t.run_completion <- Engine.schedule_ns t.engine ~delay:duration t.completion_fn

and complete_running t =
  let job = t.running in
  if job != no_job then begin
    if t.trace_on then slice_span t ~preempted:false;
    t.busy_ns <- t.busy_ns + (Engine.now_ns t.engine - t.run_started);
    t.executed_cycles <- t.executed_cycles + job.remaining_cycles;
    job.remaining_cycles <- 0;
    t.running <- no_job;
    let k = job.on_complete in
    release t job;
    k ();
    dispatch t
  end

let create ~engine ~name ~policy ~frequency_mhz ?(perf_factor = 1.0) ?obs () =
  if frequency_mhz <= 0 then invalid_arg "Sim.Rtos.create: frequency";
  if perf_factor <= 0.0 then invalid_arg "Sim.Rtos.create: perf_factor";
  let obs = match obs with Some s -> s | None -> Obs.Scope.null () in
  let metrics = Obs.Scope.metrics obs in
  let metric suffix = "sim.rtos." ^ name ^ "." ^ suffix in
  let t =
    {
      engine;
      name;
      policy;
      frequency_mhz;
      perf_factor;
      queue = [];
      running = no_job;
      free = no_job;
      run_started = 0;
      run_completion = Engine.never;
      run_scale = 1.0;
      completion_fn = ignore;
      crashed = false;
      speed_scale = 1.0;
      busy_ns = 0;
      executed_cycles = 0;
      next_seq = 0;
      queue_len = 0;
      queue_high_water = 0;
      tracer = Obs.Scope.tracer obs;
      track = "rtos/" ^ name;
      obs_on = Obs.Scope.live obs;
      trace_on = Obs.Tracer.enabled (Obs.Scope.tracer obs);
      m_jobs = Obs.Metrics.counter metrics (metric "jobs");
      m_preemptions = Obs.Metrics.counter metrics (metric "preemptions");
      m_queue_depth = Obs.Metrics.gauge metrics (metric "queue_depth");
      m_sched_latency = Obs.Metrics.hdr metrics (metric "sched_latency_ns");
    }
  in
  t.completion_fn <- (fun () -> complete_running t);
  t

(* Charge the partial slice of the running job and stop it; shared by
   preemption and crash.  Leaves [t.running] cleared with the victim's
   [remaining_cycles] updated; the completion event is cancelled. *)
let stop_running_slice t =
  let victim = t.running in
  let elapsed_ns = Engine.now_ns t.engine - t.run_started in
  let nominal_ns =
    if t.run_scale = 1.0 then elapsed_ns
    else int_of_float (float_of_int elapsed_ns /. t.run_scale)
  in
  let done_cycles = min victim.remaining_cycles (ns_to_cycles t nominal_ns) in
  Engine.cancel t.run_completion;
  if t.trace_on then slice_span t ~preempted:true;
  t.busy_ns <- t.busy_ns + elapsed_ns;
  t.executed_cycles <- t.executed_cycles + done_cycles;
  victim.remaining_cycles <- victim.remaining_cycles - done_cycles;
  t.running <- no_job

let preempt_if_needed t =
  match t.policy with
  | Fifo -> ()
  | Priority_preemptive ->
    if t.running != no_job then (
      match t.queue with
      | [] -> ()
      | first :: rest ->
        let challenger = find_best t first rest in
        if challenger.priority > t.running.priority then begin
          let victim = t.running in
          stop_running_slice t;
          if t.obs_on then Obs.Metrics.inc t.m_preemptions;
          if victim.remaining_cycles > 0 then begin
            victim.ready_since <- Engine.now_ns t.engine;
            t.queue <- victim :: t.queue;
            t.queue_len <- t.queue_len + 1;
            if t.queue_len > t.queue_high_water then
              t.queue_high_water <- t.queue_len
          end
          else begin
            (* Fully executed during its slice: finish it now. *)
            let k = victim.on_complete in
            release t victim;
            k ()
          end
        end)

let submit_i t ~task ~priority ?(flow = -1) ~cycles k =
  if cycles < 0 then invalid_arg "Sim.Rtos.submit: negative cycles";
  if t.crashed then ()  (* fail-stop: work submitted to a dead PE vanishes *)
  else begin
  let job =
    let f = t.free in
    if f != no_job then begin
      t.free <- f.next_free;
      f.next_free <- no_job;
      f.task <- task;
      f.priority <- priority;
      f.flow <- flow;
      f.remaining_cycles <- scale_cycles t (max 1 cycles);
      f.seq <- t.next_seq;
      f.ready_since <- Engine.now_ns t.engine;
      f.on_complete <- k;
      f
    end
    else
      {
        task;
        priority;
        flow;
        remaining_cycles = scale_cycles t (max 1 cycles);
        seq = t.next_seq;
        ready_since = Engine.now_ns t.engine;
        on_complete = k;
        next_free = no_job;
      }
  in
  t.next_seq <- t.next_seq + 1;
  match t.queue with
  | [] when t.running == no_job && not t.obs_on ->
    (* Uncontended submit on an idle scheduler: the job would be
       enqueued and immediately popped by [dispatch] — run it directly.
       The high-water mark still counts the phantom depth-1 moment so
       reports are identical to the queued path.  (With a live metrics
       scope the queued path runs instead, keeping gauge streams
       exact.) *)
    if t.queue_high_water < 1 then t.queue_high_water <- 1;
    run_job t job
  | _ ->
    (* prepend, not append: the best-job scan selects by (priority, seq),
       never by position, and O(1) beats rebuilding the list per submit *)
    t.queue <- job :: t.queue;
    t.queue_len <- t.queue_len + 1;
    if t.queue_len > t.queue_high_water then t.queue_high_water <- t.queue_len;
    (if t.obs_on then begin
       Obs.Metrics.inc t.m_jobs;
       Obs.Metrics.set t.m_queue_depth t.queue_len
     end);
    preempt_if_needed t;
    dispatch t
  end

let submit t ~task ~priority ?flow ~cycles k =
  if cycles < 0L then invalid_arg "Sim.Rtos.submit: negative cycles";
  submit_i t ~task ~priority ?flow ~cycles:(Int64.to_int cycles) k

let crash t =
  if not t.crashed then begin
    (* Account the partial slice, like a preemption that never resumes. *)
    if t.running != no_job then stop_running_slice t;
    t.queue <- [];
    t.queue_len <- 0;
    t.crashed <- true;
    if t.obs_on then Obs.Metrics.set t.m_queue_depth 0
  end

let crashed t = t.crashed

let set_speed_scale t scale =
  if scale <= 0.0 then invalid_arg "Sim.Rtos.set_speed_scale: non-positive";
  (* Takes effect at the next dispatch; the running slice keeps the
     factor it was dispatched under. *)
  t.speed_scale <- scale

let busy_ns t = Int64.of_int t.busy_ns
let executed_cycles t = Int64.of_int t.executed_cycles
let queue_length t = t.queue_len
let queue_high_water t = t.queue_high_water
let idle t =
  match t.queue with [] -> t.running == no_job | _ :: _ -> false
