type arbitration = Priority | Round_robin

type request = {
  req_wrapper : string;
  req_address : int;
  req_priority : int;
  req_flow : int;  (** causal flow id of the message; -1 = none *)
  req_seq : int;
  mutable req_words : int;  (** words still to move on this segment *)
  req_chunk : int;  (** words movable per grant (MaxTime / buffers) *)
  mutable req_waiting_since : int;  (** last time it joined the queue *)
  req_done : unit -> unit;  (** all words crossed this segment *)
}

type segment = {
  seg_name : string;
  data_width_bits : int;
  frequency_mhz : int;
  arbitration : arbitration;
  max_send_size : int;
  mutable busy : bool;
  mutable waiting : request list;
      (** a bag: arbitration picks by a strict total order, never by
          position, so prepend-only is safe and O(1) *)
  mutable waiting_len : int;
  mutable last_granted_address : int;
  (* plain-int counters and ns accumulators: bumping them on the
     per-grant hot path must not box an int64 *)
  mutable busy_ns : int;
  mutable words_total : int;
  mutable grants : int;
  mutable max_waiting : int;
  mutable delivered : int;  (** message hops completed intact *)
  mutable dropped : int;  (** message hops lost to an injected fault *)
  mutable corrupted : int;  (** message hops delivered with flipped bits *)
  seg_track : string;  (** tracing lane, "hibi/<name>" *)
  m_words : Obs.Metrics.counter;
  m_grants : Obs.Metrics.counter;
  m_queue_depth : Obs.Metrics.gauge;
  m_arb_wait : Obs.Histogram.t;
}

type attachment =
  | Agent of string
  | Bridge of string * string  (** the two bridged segments *)

type wrapper = {
  w_name : string;
  w_address : int;
  w_buffer_size : int;
  w_max_time : int;
  w_bus_priority : int;
  w_attachment : attachment;
  w_segment : string;  (** primary segment (agents); first segment (bridges) *)
}

type fault_action = Pass | Drop | Corrupt | Stall of int64

type t = {
  engine : Sim.Engine.t;
  mutable segments : segment list;
  mutable wrappers : wrapper list;
  mutable next_seq : int;
  route_cache : (string * string, (string list, string) result) Hashtbl.t;
      (** (src, dst) -> BFS route; topology is fixed after setup, so the
          per-message BFS runs once per pair; topology mutators drop it *)
  mutable fault_hook : (segment:string -> words:int -> fault_action) option;
  metrics : Obs.Metrics.t;  (** per-segment handles resolve here *)
  tracer : Obs.Tracer.t;
  obs_on : bool;
  trace_on : bool;
}

let create ?obs engine =
  let obs = match obs with Some s -> s | None -> Obs.Scope.null () in
  {
    engine;
    segments = [];
    wrappers = [];
    next_seq = 0;
    route_cache = Hashtbl.create 32;
    fault_hook = None;
    metrics = Obs.Scope.metrics obs;
    tracer = Obs.Scope.tracer obs;
    obs_on = Obs.Scope.live obs;
    trace_on = Obs.Tracer.enabled (Obs.Scope.tracer obs);
  }

let find_segment t name =
  List.find_opt (fun s -> s.seg_name = name) t.segments

let find_wrapper t name = List.find_opt (fun w -> w.w_name = name) t.wrappers

let wrapper_of_agent t agent =
  List.find_opt
    (fun w -> match w.w_attachment with Agent a -> a = agent | Bridge _ -> false)
    t.wrappers

let add_segment t ~name ~data_width_bits ~frequency_mhz ~arbitration
    ?(max_send_size = 16) () =
  if find_segment t name <> None then
    invalid_arg ("Hibi: duplicate segment " ^ name);
  if data_width_bits <= 0 || frequency_mhz <= 0 || max_send_size <= 0 then
    invalid_arg "Hibi.add_segment: non-positive parameter";
  Hashtbl.reset t.route_cache;
  let metric suffix = "hibi." ^ name ^ "." ^ suffix in
  t.segments <-
    t.segments
    @ [
        {
          seg_name = name;
          data_width_bits;
          frequency_mhz;
          arbitration;
          max_send_size;
          busy = false;
          waiting = [];
          waiting_len = 0;
          last_granted_address = -1;
          busy_ns = 0;
          words_total = 0;
          grants = 0;
          max_waiting = 0;
          delivered = 0;
          dropped = 0;
          corrupted = 0;
          seg_track = "hibi/" ^ name;
          m_words = Obs.Metrics.counter t.metrics (metric "words");
          m_grants = Obs.Metrics.counter t.metrics (metric "grants");
          m_queue_depth = Obs.Metrics.gauge t.metrics (metric "queue_depth");
          m_arb_wait = Obs.Metrics.hdr t.metrics (metric "arb_wait_ns");
        };
      ]

let check_wrapper t ~name ~address ~segment =
  if find_wrapper t name <> None then
    invalid_arg ("Hibi: duplicate wrapper " ^ name);
  if List.exists (fun w -> w.w_address = address) t.wrappers then
    invalid_arg (Printf.sprintf "Hibi: duplicate address %d" address);
  if find_segment t segment = None then
    invalid_arg ("Hibi: unknown segment " ^ segment)

let add_agent_wrapper t ~name ~agent ~address ~segment ?(buffer_size = 8)
    ?(max_time = 64) ?(bus_priority = 0) () =
  check_wrapper t ~name ~address ~segment;
  if wrapper_of_agent t agent <> None then
    invalid_arg ("Hibi: agent already attached: " ^ agent);
  if buffer_size <= 0 || max_time <= 0 then
    invalid_arg "Hibi.add_agent_wrapper: non-positive parameter";
  Hashtbl.reset t.route_cache;
  t.wrappers <-
    t.wrappers
    @ [
        {
          w_name = name;
          w_address = address;
          w_buffer_size = buffer_size;
          w_max_time = max_time;
          w_bus_priority = bus_priority;
          w_attachment = Agent agent;
          w_segment = segment;
        };
      ]

let add_bridge_wrapper t ~name ~address ~segments:(seg_a, seg_b)
    ?(buffer_size = 16) ?(max_time = 64) ?(bus_priority = 0) () =
  check_wrapper t ~name ~address ~segment:seg_a;
  if find_segment t seg_b = None then
    invalid_arg ("Hibi: unknown segment " ^ seg_b);
  if seg_a = seg_b then invalid_arg "Hibi: bridge must join distinct segments";
  Hashtbl.reset t.route_cache;
  t.wrappers <-
    t.wrappers
    @ [
        {
          w_name = name;
          w_address = address;
          w_buffer_size = buffer_size;
          w_max_time = max_time;
          w_bus_priority = bus_priority;
          w_attachment = Bridge (seg_a, seg_b);
          w_segment = seg_a;
        };
      ]

let agents t =
  List.filter_map
    (fun w -> match w.w_attachment with Agent a -> Some a | Bridge _ -> None)
    t.wrappers

let segment_names t = List.map (fun s -> s.seg_name) t.segments

(* Segments adjacent through bridges. *)
let neighbours t segment =
  List.filter_map
    (fun w ->
      match w.w_attachment with
      | Bridge (a, b) when a = segment -> Some b
      | Bridge (a, b) when b = segment -> Some a
      | Bridge _ | Agent _ -> None)
    t.wrappers

let route_uncached t ~src ~dst =
  match wrapper_of_agent t src, wrapper_of_agent t dst with
  | None, _ -> Error (Printf.sprintf "agent %s is not attached" src)
  | _, None -> Error (Printf.sprintf "agent %s is not attached" dst)
  | Some ws, Some wd ->
    if src = dst then Ok []
    else begin
      (* BFS over segments. *)
      let start = ws.w_segment and goal = wd.w_segment in
      let visited = Hashtbl.create 8 in
      let queue = Queue.create () in
      Hashtbl.replace visited start [ start ];
      Queue.push start queue;
      let rec search () =
        if Queue.is_empty queue then
          Error (Printf.sprintf "no route from %s to %s" src dst)
        else begin
          let here = Queue.pop queue in
          let path = Hashtbl.find visited here in
          if here = goal then Ok (List.rev path)
          else begin
            List.iter
              (fun next ->
                if not (Hashtbl.mem visited next) then begin
                  Hashtbl.replace visited next (next :: path);
                  Queue.push next queue
                end)
              (neighbours t here);
            search ()
          end
        end
      in
      search ()
    end

let route t ~src ~dst =
  match Hashtbl.find t.route_cache (src, dst) with
  | r -> r
  | exception Not_found ->
    let r = route_uncached t ~src ~dst in
    Hashtbl.add t.route_cache (src, dst) r;
    r

let cycle_ns segment =
  (1000 + segment.frequency_mhz - 1) / segment.frequency_mhz

let words_per_cycle segment = max 1 (segment.data_width_bits / 32)

let cycles_for_words segment words =
  let wpc = words_per_cycle segment in
  (words + wpc - 1) / wpc

(* Choose the next grant among waiting requests. *)
let pick_winner segment =
  match segment.waiting with
  | [] -> None
  | first :: rest -> (
    match segment.arbitration with
    | Priority ->
      let best =
        List.fold_left
          (fun acc r ->
            if
              r.req_priority > acc.req_priority
              || (r.req_priority = acc.req_priority && r.req_seq < acc.req_seq)
            then r
            else acc)
          first rest
      in
      Some best
    | Round_robin ->
      (* Next address strictly after the last granted one, cyclically. *)
      let distance addr =
        let d = addr - segment.last_granted_address in
        if d > 0 then d else d + 0x10000
      in
      let best =
        List.fold_left
          (fun acc r ->
            let da = distance acc.req_address and dr = distance r.req_address in
            if dr < da || (dr = da && r.req_seq < acc.req_seq) then r else acc)
          first rest
      in
      Some best)

let rec grant t segment =
  if not segment.busy then
    match pick_winner segment with
    | None -> ()
    | Some req ->
      segment.waiting <- List.filter (fun r -> r != req) segment.waiting;
      segment.waiting_len <- segment.waiting_len - 1;
      segment.busy <- true;
      segment.last_granted_address <- req.req_address;
      segment.grants <- segment.grants + 1;
      let granted_at = Sim.Engine.now_ns t.engine in
      (if t.obs_on then begin
         Obs.Metrics.inc segment.m_grants;
         Obs.Metrics.set segment.m_queue_depth segment.waiting_len;
         Obs.Histogram.record segment.m_arb_wait
           (granted_at - req.req_waiting_since)
       end);
      let burst = min req.req_words req.req_chunk in
      (* One arbitration cycle plus the data cycles of this burst. *)
      let cycles = 1 + cycles_for_words segment burst in
      let duration = cycles * cycle_ns segment in
      segment.busy_ns <- segment.busy_ns + duration;
      segment.words_total <- segment.words_total + burst;
      if t.obs_on then Obs.Metrics.inc ~by:burst segment.m_words;
      ignore
        (Sim.Engine.schedule_ns t.engine ~delay:duration (fun () ->
             segment.busy <- false;
             if t.trace_on then
               Obs.Tracer.complete t.tracer ~ts_ns:(Int64.of_int granted_at)
                 ~dur_ns:(Int64.of_int duration)
                 ~cat:"hibi" ~track:segment.seg_track
                 ~args:
                   (let args = [ ("words", Obs.Span.Int burst) ] in
                    if req.req_flow >= 0 then
                      ("flow", Obs.Span.Int req.req_flow) :: args
                    else args)
                 req.req_wrapper;
             req.req_words <- req.req_words - burst;
             if req.req_words > 0 then enqueue t segment req
             else req.req_done ();
             grant t segment))

and enqueue t segment req =
  req.req_waiting_since <- Sim.Engine.now_ns t.engine;
  segment.waiting <- req :: segment.waiting;
  segment.waiting_len <- segment.waiting_len + 1;
  let depth = segment.waiting_len in
  segment.max_waiting <- max segment.max_waiting depth;
  if t.obs_on then Obs.Metrics.set segment.m_queue_depth depth;
  grant t segment

(* Words a wrapper may move per grant: bounded by the segment burst limit,
   the wrapper's buffer, and what fits in MaxTime cycles. *)
let chunk_words segment wrapper =
  let by_time = (wrapper.w_max_time - 1) * words_per_cycle segment in
  max 1 (min segment.max_send_size (min wrapper.w_buffer_size (max 1 by_time)))

type outcome = Delivered | Corrupted_delivery

let set_fault_hook t hook = t.fault_hook <- hook

(* Consult the installed fault hook when a hop finishes moving its last
   word, then continue (or not) accordingly.  Exactly one of the
   delivered/dropped/corrupted counters increments per completed hop. *)
let after_hop t segment ~words ~corrupt_flag ~continue =
  let action =
    match t.fault_hook with
    | None -> Pass
    | Some hook -> hook ~segment:segment.seg_name ~words
  in
  match action with
  | Pass ->
    segment.delivered <- segment.delivered + 1;
    continue ()
  | Drop ->
    (* The message vanishes: downstream hops never start and the
       receiver never hears about it — only a timeout can tell. *)
    segment.dropped <- segment.dropped + 1
  | Corrupt ->
    segment.corrupted <- segment.corrupted + 1;
    corrupt_flag := true;
    continue ()
  | Stall delay ->
    segment.delivered <- segment.delivered + 1;
    ignore (Sim.Engine.schedule t.engine ~delay continue)

let transfer ?(flow = -1) t ~src ~dst ~words ~on_outcome =
  if words <= 0 then Error "words must be positive"
  else
    match route t ~src ~dst with
    | Error _ as e -> e
    | Ok [] ->
      (* Same agent: local delivery after one cycle of the attached
         segment (or 20 ns when unattached — kept total).  No segment is
         crossed, so HIBI faults don't apply. *)
      let delay =
        match wrapper_of_agent t src with
        | Some w -> (
          match find_segment t w.w_segment with
          | Some seg -> cycle_ns seg
          | None -> 20)
        | None -> 20
      in
      ignore
        (Sim.Engine.schedule_ns t.engine ~delay (fun () -> on_outcome Delivered));
      Ok ()
    | Ok path ->
      let src_wrapper =
        match wrapper_of_agent t src with Some w -> w | None -> assert false
      in
      (* A corrupting hop anywhere on the path taints the whole message. *)
      let corrupt_flag = ref false in
      (* Store-and-forward: hop n+1 starts when hop n has moved all
         words.  The requesting wrapper of hop n>1 is the bridge that
         joins hop n-1 and hop n. *)
      let rec hop segments =
        match segments with
        | [] ->
          on_outcome (if !corrupt_flag then Corrupted_delivery else Delivered)
        | seg_name :: rest -> (
          match find_segment t seg_name with
          | None -> ()
          | Some segment ->
            let requester =
              (* The wrapper arbitrating for this hop: the source wrapper
                 on the first segment, otherwise the bridge in between. *)
              let bridge_between a b =
                List.find_opt
                  (fun w ->
                    match w.w_attachment with
                    | Bridge (x, y) -> (x = a && y = b) || (x = b && y = a)
                    | Agent _ -> false)
                  t.wrappers
              in
              if seg_name = src_wrapper.w_segment then Some src_wrapper
              else
                (* Find the previous segment on the path. *)
                let rec prev_of = function
                  | a :: b :: _ when b = seg_name -> Some a
                  | _ :: rest -> prev_of rest
                  | [] -> None
                in
                match prev_of path with
                | Some prev -> bridge_between prev seg_name
                | None -> None
            in
            (match requester with
            | None -> ()
            | Some wrapper ->
              let req =
                {
                  req_wrapper = wrapper.w_name;
                  req_address = wrapper.w_address;
                  req_priority = wrapper.w_bus_priority;
                  req_flow = flow;
                  req_seq = t.next_seq;
                  req_words = words;
                  req_chunk = chunk_words segment wrapper;
                  req_waiting_since = Sim.Engine.now_ns t.engine;
                  req_done =
                    (fun () ->
                      after_hop t segment ~words ~corrupt_flag
                        ~continue:(fun () -> hop rest));
                }
              in
              t.next_seq <- t.next_seq + 1;
              enqueue t segment req))
      in
      hop path;
      Ok ()

let send ?flow t ~src ~dst ~words ~on_delivered =
  transfer ?flow t ~src ~dst ~words ~on_outcome:(fun _ -> on_delivered ())

type segment_stats = {
  busy_ns : int64;
  words : int64;
  grants : int64;
  max_waiting : int;
  delivered : int64;
  dropped : int64;
  corrupted : int64;
}

let stats t ~segment =
  match find_segment t segment with
  | None -> invalid_arg ("Hibi.stats: unknown segment " ^ segment)
  | Some s ->
    {
      busy_ns = Int64.of_int s.busy_ns;
      words = Int64.of_int s.words_total;
      grants = Int64.of_int s.grants;
      max_waiting = s.max_waiting;
      delivered = Int64.of_int s.delivered;
      dropped = Int64.of_int s.dropped;
      corrupted = Int64.of_int s.corrupted;
    }

let reset_stats t =
  List.iter
    (fun (s : segment) ->
      s.busy_ns <- 0;
      s.words_total <- 0;
      s.grants <- 0;
      s.max_waiting <- 0;
      s.delivered <- 0;
      s.dropped <- 0;
      s.corrupted <- 0)
    t.segments
