(* The explorer's mutable global state; see the interface for the
   vector layout.  Like {!Visited}, the hot paths loop over local refs
   and call top-level functions only, so no closure is allocated per
   step. *)

(* One mailbox.  Message [m] sits in slot [(head + m) mod size]; its
   arguments in [tags]/[vals] from [slot * width].  Storage starts small
   and doubles, linearised, up to the capacity. *)
type ring = {
  mutable sigs : int array;
  mutable argcs : int array;
  mutable tags : int array;
  mutable vals : int array;
  mutable head : int;
  mutable len : int;
}

type t = {
  net : Net.t;
  execs : Efsm.Compiled.t array;
  n_vars : int array;
  rings : ring array;
  timer_left : int array;
  env_left : int array;
  capacity : int;
  width : int;  (** argument slots per message *)
  canon_tags : int array array;
      (** per signal: argument tags of the canonical zero payload *)
  var_keep : bool array array;  (** [inst].(var) *)
  arg_keep : bool array array array;  (** [inst].(gsig).(argument) *)
  fixed_len : int;  (** vector length with every mailbox empty *)
  mutable vec : int array;
  mutable keep : bool array;
}

exception Overflow of int * int

let new_ring width size =
  {
    sigs = Array.make size 0;
    argcs = Array.make size 0;
    tags = Array.make (size * width) 0;
    vals = Array.make (size * width) 0;
    head = 0;
    len = 0;
  }

let grow_ring w r =
  let size = Array.length r.sigs in
  let g = new_ring w.width (min w.capacity (2 * size)) in
  for m = 0 to r.len - 1 do
    let j = (r.head + m) mod size in
    g.sigs.(m) <- r.sigs.(j);
    g.argcs.(m) <- r.argcs.(j);
    Array.blit r.tags (j * w.width) g.tags (m * w.width) w.width;
    Array.blit r.vals (j * w.width) g.vals (m * w.width) w.width
  done;
  r.sigs <- g.sigs;
  r.argcs <- g.argcs;
  r.tags <- g.tags;
  r.vals <- g.vals;
  r.head <- 0

let create ?coi (net : Net.t) ~capacity ~timer_budget ~env_budget =
  let n = Net.n_insts net in
  (* most arguments any message can carry: the widest send site or
     signal parameter list *)
  let width =
    Array.fold_left
      (fun acc (i : Net.inst) ->
        Array.fold_left
          (fun acc (site : Efsm.Compiled.send_site) ->
            max acc site.Efsm.Compiled.s_argc)
          acc
          (Efsm.Compiled.send_sites i.Net.prog))
      (Array.fold_left
         (fun acc (s : Net.sig_info) -> max acc (Array.length s.Net.sg_params))
         0 net.Net.sigs)
      net.Net.insts
  in
  let n_vars =
    Array.map (fun (i : Net.inst) -> Efsm.Compiled.n_vars i.Net.prog) net.Net.insts
  in
  let var_keep =
    Array.mapi
      (fun ix nv ->
        match coi with
        | Some c -> c.Coi.var_relevant.(ix)
        | None -> Array.make nv true)
      n_vars
  in
  let arg_keep =
    Array.init n (fun ix ->
        Array.init (Array.length net.Net.sigs) (fun g ->
            Array.init width (fun k ->
                match coi with
                | None -> true
                | Some c ->
                  let mask = c.Coi.arg_relevant.(ix).(g) in
                  k < Array.length mask && mask.(k))))
  in
  let fixed_len =
    Array.fold_left (fun acc nv -> acc + 2 + (2 * nv)) 0 n_vars
    + n + Array.length net.Net.env_inputs
  in
  {
    net;
    execs =
      Array.map (fun (i : Net.inst) -> Efsm.Compiled.create i.Net.prog) net.Net.insts;
    n_vars;
    rings = Array.init n (fun _ -> new_ring width (max 1 (min capacity 4)));
    timer_left = Array.make n timer_budget;
    env_left = Array.make (Array.length net.Net.env_inputs) env_budget;
    capacity;
    width;
    canon_tags = Array.init (Array.length net.Net.sigs) (Net.canon_tags net);
    var_keep;
    arg_keep;
    fixed_len;
    vec = Array.make (2 * fixed_len) 0;
    keep = Array.make (2 * fixed_len) true;
  }

(* ---- mailboxes -------------------------------------------------------- *)

(* Claim the tail slot of [dest]'s mailbox for [gsig]; arguments are the
   caller's to fill. *)
let push_slot w dest gsig =
  let r = w.rings.(dest) in
  if r.len >= w.capacity then raise (Overflow (dest, gsig));
  if r.len = Array.length r.sigs then grow_ring w r;
  let slot = (r.head + r.len) mod Array.length r.sigs in
  r.sigs.(slot) <- gsig;
  r.len <- r.len + 1;
  slot

(* Route the effects instance [ix] left in its VM's buffer, by send
   site, enqueueing a copy per receiving instance. *)
let route w ix =
  let ex = w.execs.(ix) in
  let inst = w.net.Net.insts.(ix) in
  for k = 0 to Efsm.Compiled.effect_count ex - 1 do
    let site = Efsm.Compiled.effect_site ex k in
    if site >= 0 then begin
      let r = inst.Net.routes.(Efsm.Host.site_of_vm_site inst.Net.table site) in
      let argc = Efsm.Compiled.effect_argc ex k in
      let dests = r.Net.rt_dests in
      for d = 0 to Array.length dests - 1 do
        let dest = dests.(d) in
        let slot = push_slot w dest r.Net.rt_gsig in
        let ring = w.rings.(dest) in
        let base = slot * w.width in
        for a = 0 to argc - 1 do
          ring.tags.(base + a) <- Efsm.Compiled.effect_arg_tag ex k a;
          ring.vals.(base + a) <- Efsm.Compiled.effect_arg ex k a
        done;
        ring.argcs.(slot) <- argc
      done
    end
  done

let init w =
  for ix = 0 to Array.length w.execs - 1 do
    let ex = w.execs.(ix) in
    ignore (Efsm.Compiled.initial_entry ex);
    route w ix;
    ignore (Efsm.Compiled.run_completions ex);
    route w ix
  done

(* ---- steps ------------------------------------------------------------ *)

type step = S_deliver of int | S_timer of int | S_inject of int

let deliver ix = 3 * ix
let timer ix = (3 * ix) + 1
let inject e = (3 * e) + 2

let step_of_code code =
  let i = code / 3 in
  match code mod 3 with 0 -> S_deliver i | 1 -> S_timer i | _ -> S_inject i

let apply w code =
  let ix = code / 3 in
  match code mod 3 with
  | 0 ->
    let r = w.rings.(ix) in
    if r.len = 0 then invalid_arg "World.apply: empty mailbox";
    let slot = r.head in
    r.head <- (slot + 1) mod Array.length r.sigs;
    r.len <- r.len - 1;
    let g = r.sigs.(slot) in
    let inst = w.net.Net.insts.(ix) in
    let ex = w.execs.(ix) in
    let fired =
      Efsm.Compiled.dispatch_raw ex
        ~sid:(Efsm.Host.input_sid inst.Net.table g)
        ~pids:(Efsm.Host.input_pids inst.Net.table g)
        ~argt:r.tags ~argv:r.vals ~off:(slot * w.width) ~argc:r.argcs.(slot)
    in
    if fired >= 0 then route w ix;
    fired
  | 1 ->
    let ex = w.execs.(ix) in
    let fired = Efsm.Compiled.fire_timer_raw ex in
    w.timer_left.(ix) <- w.timer_left.(ix) - 1;
    if fired >= 0 then route w ix;
    fired
  | _ ->
    let input = w.net.Net.env_inputs.(ix) in
    let dest = input.Net.ei_target and g = input.Net.ei_gsig in
    let slot = push_slot w dest g in
    let r = w.rings.(dest) and tags = w.canon_tags.(g) in
    let n = Array.length tags in
    Array.blit tags 0 r.tags (slot * w.width) n;
    Array.fill r.vals (slot * w.width) n 0;
    r.argcs.(slot) <- n;
    w.env_left.(ix) <- w.env_left.(ix) - 1;
    -1

let queue_length w ix = w.rings.(ix).len

let head_signal w ix =
  let r = w.rings.(ix) in
  r.sigs.(r.head)

let state_id w ix = Efsm.Compiled.state_id w.execs.(ix)

let timer_enabled w ix =
  w.timer_left.(ix) > 0
  && Efsm.Compiled.after_min_of w.net.Net.insts.(ix).Net.prog (state_id w ix)
     >= 0

let env_left w e = w.env_left.(e)

(* ---- vectors ---------------------------------------------------------- *)

let vector w = w.vec
let keep w = w.keep

(* Annotated: a polymorphic array store would go through [caml_modify]. *)
let put (vec : int array) (keep : bool array) pos x k =
  vec.(pos) <- x;
  keep.(pos) <- k;
  pos + 1

let encode w =
  let need = ref w.fixed_len in
  for ix = 0 to Array.length w.rings - 1 do
    need := !need + (w.rings.(ix).len * (2 + (2 * w.width)))
  done;
  if !need > Array.length w.vec then begin
    w.vec <- Array.make (2 * !need) 0;
    w.keep <- Array.make (2 * !need) true
  end;
  let vec = w.vec and keep = w.keep in
  let pos = ref 0 in
  for ix = 0 to Array.length w.execs - 1 do
    let ex = w.execs.(ix) in
    pos := put vec keep !pos (Efsm.Compiled.state_id ex) true;
    let var_keep = w.var_keep.(ix) in
    for v = 0 to w.n_vars.(ix) - 1 do
      let tag = Efsm.Compiled.var_tag ex v in
      let k = var_keep.(v) in
      pos := put vec keep !pos tag k;
      pos := put vec keep !pos (if tag = 0 then 0 else Efsm.Compiled.var_int ex v) k
    done;
    let r = w.rings.(ix) in
    pos := put vec keep !pos r.len true;
    for m = 0 to r.len - 1 do
      let slot = (r.head + m) mod Array.length r.sigs in
      let g = r.sigs.(slot) and argc = r.argcs.(slot) in
      pos := put vec keep !pos g true;
      pos := put vec keep !pos argc true;
      let arg_keep = w.arg_keep.(ix).(g) in
      for a = 0 to argc - 1 do
        let i = (slot * w.width) + a in
        pos := put vec keep !pos r.tags.(i) arg_keep.(a);
        pos := put vec keep !pos r.vals.(i) arg_keep.(a)
      done
    done
  done;
  for ix = 0 to Array.length w.timer_left - 1 do
    pos := put vec keep !pos w.timer_left.(ix) true
  done;
  for e = 0 to Array.length w.env_left - 1 do
    pos := put vec keep !pos w.env_left.(e) true
  done;
  !pos

let decode w vec =
  let pos = ref 0 in
  for ix = 0 to Array.length w.execs - 1 do
    let ex = w.execs.(ix) in
    Efsm.Compiled.set_state_id ex vec.(!pos);
    incr pos;
    for v = 0 to w.n_vars.(ix) - 1 do
      Efsm.Compiled.set_var_raw ex v ~tag:vec.(!pos) ~value:vec.(!pos + 1);
      pos := !pos + 2
    done;
    let r = w.rings.(ix) in
    let qlen = vec.(!pos) in
    incr pos;
    r.head <- 0;
    r.len <- 0;
    while Array.length r.sigs < qlen do
      grow_ring w r
    done;
    r.len <- qlen;
    for m = 0 to qlen - 1 do
      r.sigs.(m) <- vec.(!pos);
      let argc = vec.(!pos + 1) in
      r.argcs.(m) <- argc;
      pos := !pos + 2;
      for a = 0 to argc - 1 do
        r.tags.((m * w.width) + a) <- vec.(!pos);
        r.vals.((m * w.width) + a) <- vec.(!pos + 1);
        pos := !pos + 2
      done
    done
  done;
  for ix = 0 to Array.length w.timer_left - 1 do
    w.timer_left.(ix) <- vec.(!pos);
    incr pos
  done;
  for e = 0 to Array.length w.env_left - 1 do
    w.env_left.(e) <- vec.(!pos);
    incr pos
  done
