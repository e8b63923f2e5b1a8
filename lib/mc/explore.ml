(* Explicit-state exploration of the composed EFSM network.

   Global states are flat int vectors ({!World}): per instance the
   control-state id and every variable slot (tag + value), then the
   bounded mailbox contents (signal id + payload), then the remaining
   exploration budgets.  The *concrete* vector is what successor
   computation restores from, and the only one stored ({!Visited}).
   The *canonical* vector — the same layout with control-irrelevant
   slots masked to zero ({!Coi}) — keys the visited set, so states
   differing only in dead counters merge into one representative.  It
   is never stored: a candidate is hashed masked in the encode buffer
   and compared against the stored concrete vectors under the same
   mask, which is sound because the mask is a function of structure
   slots the mask itself never hides.

   Budgets make the space finite: per-environment-input injection
   budget, per-instance timer-fire budget, bounded queues, and a hard
   state cap.  The deadlock property is independent of the budgets (an
   armed timer or an environment-injectable trigger counts as an escape
   whether or not its budget is spent), so exhausting the budgeted
   space never manufactures a spurious deadlock.

   Partial-order reduction: when some instance's every enabled step is
   *silent* (consumes only its own queue head or timer and provably
   emits nothing to another machine instance — {!Net.inst.silent_on})
   and its queue is below capacity, that instance's steps form a
   persistent set and the other interleavings are pruned.  Silent steps
   strictly shrink queued-work + timer budgets, so prioritising them
   cannot starve the deferred steps (no ignoring problem), and the
   below-capacity guard keeps queue-overflow detection exact. *)

type order = Dfs | Bfs

type budget = {
  max_states : int;
  max_depth : int;  (** 0 = unlimited *)
  queue_capacity : int;
  env_budget : int;  (** injections per environment input *)
  timer_budget : int;  (** timer fires per instance *)
}

(* Defaults sized so the reference TUTMAC network is exhausted in well
   under a second: one injection per environment input, two timer fires
   per instance.  Raising --env-budget to 2 grows the bounded space to
   ~240k states (it once surfaced a genuine RChConfig queue overflow at
   the slot allocator, since closed by admission control at the radio
   configurator); the budgets are the knob, not the ceiling. *)
let default_budget =
  {
    max_states = 200_000;
    max_depth = 0;
    queue_capacity = 8;
    env_budget = 1;
    timer_budget = 2;
  }

type config = {
  order : order;
  budget : budget;
  por : bool;
  coi : bool;
  check_deadlock : bool;
  check_overflow : bool;
}

let default_config =
  {
    order = Bfs;
    budget = default_budget;
    por = true;
    coi = true;
    check_deadlock = true;
    check_overflow = true;
  }

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

(* ---- enabled steps and the persistent set ----------------------------- *)
(* Both write {!World} step codes to [buf] and return how many: per
   instance its delivery then its timer, then the injections. *)

let enabled_steps (net : Net.t) w buf =
  let n = ref 0 in
  for ix = 0 to Net.n_insts net - 1 do
    if World.queue_length w ix > 0 then begin
      buf.(!n) <- World.deliver ix;
      incr n
    end;
    if World.timer_enabled w ix then begin
      buf.(!n) <- World.timer ix;
      incr n
    end
  done;
  for e = 0 to Array.length net.Net.env_inputs - 1 do
    if World.env_left w e > 0 then begin
      buf.(!n) <- World.inject e;
      incr n
    end
  done;
  !n

(* The steps of the lowest-indexed instance whose every enabled step is
   silent and whose queue is below capacity — a persistent set — or -1
   when there is none. *)
let ample (net : Net.t) w ~capacity buf =
  let found = ref (-1) and ix = ref 0 in
  while !found < 0 && !ix < Net.n_insts net do
    let i = !ix in
    let inst = net.Net.insts.(i) in
    let s = World.state_id w i in
    let qlen = World.queue_length w i in
    let deliver_enabled = qlen > 0 in
    let timer_enabled = World.timer_enabled w i in
    if
      (deliver_enabled || timer_enabled)
      && qlen < capacity
      && ((not deliver_enabled) || inst.Net.silent_on.(s).(World.head_signal w i))
      && ((not timer_enabled) || inst.Net.silent_after.(s))
    then begin
      let k = ref 0 in
      if deliver_enabled then begin
        buf.(0) <- World.deliver i;
        k := 1
      end;
      if timer_enabled then begin
        buf.(!k) <- World.timer i;
        incr k
      end;
      found := !k
    end;
    incr ix
  done;
  !found

(* ---- the search ------------------------------------------------------- *)

(* Per stored state, beside its vector: the parent, the step code that
   reached it from there (-1 at the root) and its depth. *)
type store = {
  visited : Visited.t;
  mutable parents : int array;
  mutable vias : int array;
  mutable depths : int array;
}

let store_add st ~hash vec n ~parent ~via ~depth =
  let id = Visited.add st.visited ~hash vec n in
  if id = Array.length st.parents then begin
    let grow a =
      let b = Array.make (2 * id) 0 in
      Array.blit a 0 b 0 id;
      b
    in
    st.parents <- grow st.parents;
    st.vias <- grow st.vias;
    st.depths <- grow st.depths
  end;
  st.parents.(id) <- parent;
  st.vias.(id) <- via;
  st.depths.(id) <- depth;
  id

let schedule_to st id extra =
  let rec build id acc =
    if id <= 0 then acc
    else build st.parents.(id) (World.step_of_code st.vias.(id) :: acc)
  in
  build id [] @ extra

let caveat_strings (net : Net.t) =
  Array.to_list net.Net.env_inputs
  |> List.filter (fun (e : Net.env_input) -> e.Net.ei_guard_read)
  |> List.map (fun (e : Net.env_input) ->
         Printf.sprintf
           "a guard at %s reads a parameter of environment signal %s; only \
            the canonical zero payload was explored"
           net.Net.insts.(e.Net.ei_target).Net.path
           (Net.sig_name net e.Net.ei_gsig))
  |> List.sort_uniq compare

let run ?(config = default_config) (net : Net.t) =
  let cfg = config in
  let capacity = cfg.budget.queue_capacity in
  let coi = if cfg.coi then Some (Coi.analyse net) else None in
  let net = match coi with Some c -> Coi.apply_caveats net c | None -> net in
  let w =
    World.create ?coi net ~capacity ~timer_budget:cfg.budget.timer_budget
      ~env_budget:cfg.budget.env_budget
  in
  let n_insts = Net.n_insts net in
  let st =
    {
      visited = Visited.create ();
      parents = Array.make 1024 0;
      vias = Array.make 1024 0;
      depths = Array.make 1024 0;
    }
  in
  let cur = ref [||] in
  let steps = Array.make ((2 * n_insts) + Array.length net.Net.env_inputs) 0 in
  (* coverage marks *)
  let state_seen =
    Array.map
      (fun (i : Net.inst) ->
        Array.make (Efsm.Compiled.n_states i.Net.prog) false)
      net.Net.insts
  in
  let tr_fired =
    Array.map
      (fun (i : Net.inst) -> Array.make (Array.length i.Net.transitions) false)
      net.Net.insts
  in
  let mark_states () =
    for ix = 0 to n_insts - 1 do
      state_seen.(ix).(World.state_id w ix) <- true
    done
  in
  let state_of ix = World.state_id w ix in
  let queue_empty ix = World.queue_length w ix = 0 in
  let scratch = Array.make n_insts false in
  let blocked () =
    if Net.blocked_into net scratch ~state_of ~queue_empty then
      Net.members_of scratch
    else []
  in
  let steps_done = ref 0 in
  let dedup = ref 0 in
  let frontier_peak = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  (* frontier: BFS pops states in insertion order, so its frontier is
     the id range [next, count); DFS keeps a stack *)
  let next = ref 0 in
  let stack = ref (Array.make 1024 0) and sp = ref 0 in
  let frontier_push id =
    let len =
      match cfg.order with
      | Bfs -> id + 1 - !next
      | Dfs ->
        if !sp = Array.length !stack then begin
          let bigger = Array.make (2 * !sp) 0 in
          Array.blit !stack 0 bigger 0 !sp;
          stack := bigger
        end;
        !stack.(!sp) <- id;
        incr sp;
        !sp
    in
    if len > !frontier_peak then frontier_peak := len
  in
  let frontier_pop () =
    match cfg.order with
    | Bfs ->
      if !next >= Visited.count st.visited then -1
      else begin
        incr next;
        !next - 1
      end
    | Dfs ->
      if !sp = 0 then -1
      else begin
        decr sp;
        !stack.(!sp)
      end
  in
  (* root *)
  (try
     World.init w;
     mark_states ();
     let n = World.encode w in
     let vec = World.vector w in
     let hash = Visited.hash vec (World.keep w) n in
     let id = store_add st ~hash vec n ~parent:(-1) ~via:(-1) ~depth:0 in
     frontier_push id;
     if cfg.check_deadlock then begin
       let members = blocked () in
       if members <> [] then violation := Some (V_deadlock { members }, [])
     end
   with World.Overflow (dest, gsig) ->
     if cfg.check_overflow then
       violation := Some (V_overflow { dest; gsig }, []));
  let stop = ref (!violation <> None) in
  let explore_step id depth code =
    incr steps_done;
    match World.apply w code with
    | fired ->
      if fired >= 0 then tr_fired.(code / 3).(fired) <- true;
      let n = World.encode w in
      let vec = World.vector w and keep = World.keep w in
      let hash = Visited.hash vec keep n in
      if Visited.find st.visited ~hash vec keep n >= 0 then incr dedup
      else if Visited.count st.visited >= cfg.budget.max_states then begin
        truncated := true;
        stop := true
      end
      else if cfg.budget.max_depth > 0 && depth + 1 > cfg.budget.max_depth
      then truncated := true
      else begin
        mark_states ();
        let sid =
          store_add st ~hash vec n ~parent:id ~via:code ~depth:(depth + 1)
        in
        frontier_push sid;
        if cfg.check_deadlock then begin
          let members = blocked () in
          if members <> [] then begin
            violation := Some (V_deadlock { members }, schedule_to st sid []);
            stop := true
          end
        end
      end
    | exception World.Overflow (dest, gsig) ->
      if cfg.check_overflow then begin
        violation :=
          Some (V_overflow { dest; gsig }, schedule_to st id [ World.step_of_code code ]);
        stop := true
      end
  in
  while not !stop do
    let id = frontier_pop () in
    if id < 0 then stop := true
    else begin
      let len = Visited.length st.visited id in
      if Array.length !cur < len then cur := Array.make (2 * len) 0;
      Visited.blit st.visited id !cur;
      World.decode w !cur;
      let n =
        let k = if cfg.por then ample net w ~capacity steps else -1 in
        if k >= 0 then k else enabled_steps net w steps
      in
      let depth = st.depths.(id) in
      let i = ref 0 in
      while !i < n && not !stop do
        (* every step starts from the popped state *)
        if !i > 0 then World.decode w !cur;
        explore_step id depth steps.(!i);
        incr i
      done
    end
  done;
  let exhausted =
    (not !truncated) && !violation = None
    && match cfg.order with
       | Bfs -> !next >= Visited.count st.visited
       | Dfs -> !sp = 0
  in
  let unreached_states =
    Array.to_list net.Net.insts
    |> List.concat_map (fun (i : Net.inst) ->
           List.filteri
             (fun s _ -> not state_seen.(i.Net.ix).(s))
             (List.init
                (Efsm.Compiled.n_states i.Net.prog)
                (fun s -> Efsm.Compiled.state_name_of_id i.Net.prog s))
           |> List.map (fun name -> (i.Net.path, name)))
  in
  let unfired_transitions =
    Array.to_list net.Net.insts
    |> List.concat_map (fun (i : Net.inst) ->
           Array.to_list
             (Array.mapi (fun k tr -> (k, tr)) i.Net.transitions)
           |> List.filter_map (fun (k, (tr : Efsm.Machine.transition)) ->
                  match tr.Efsm.Machine.trigger with
                  | Efsm.Machine.Completion -> None
                  | Efsm.Machine.On_signal _ | Efsm.Machine.After _ ->
                    if tr_fired.(i.Net.ix).(k) then None
                    else Some (i.Net.path, k)))
  in
  {
    stats =
      {
        states = Visited.count st.visited;
        steps = !steps_done;
        dedup = !dedup;
        frontier_peak = !frontier_peak;
        exhausted;
      };
    violation = !violation;
    unreached_states;
    unfired_transitions;
    caveats = caveat_strings net;
  }
