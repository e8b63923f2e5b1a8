type t = {
  plan : Plan.t;
  specs : Plan.spec array;
  flip_seed : int;
      (* base seed for per-frame bit-flip rngs (salted at call time) *)
  streams : Prng.t array;  (* streams.(i) drives plan spec i *)
  chan_seed : int;
      (* base seed for per-(spec, terminal) channel streams *)
  chan_streams : Prng.t option array array;
      (* [spec].(terminal), rows grown on demand *)
  max_flips : int;  (* max over corrupt specs; 0 when none *)
  stats : Stats.t;
}

(* Reserved stream indices — far above any plausible spec count so they
   can never collide with streams.(i). *)
let flip_stream = 0x7F_F11F
let chan_stream = 0x7E_C4A0

let create ~plan ~seed =
  let specs = Array.of_list plan.Plan.specs in
  {
    plan;
    specs;
    flip_seed = Prng.split_seed ~seed ~stream:flip_stream;
    streams = Array.init (Array.length specs) (fun i -> Prng.split ~seed ~stream:i);
    chan_seed = Prng.split_seed ~seed ~stream:chan_stream;
    chan_streams = Array.make (Array.length specs) [||];
    max_flips =
      Array.fold_left
        (fun acc spec ->
          match spec with
          | Plan.Hibi_corrupt { max_flips; _ } -> max acc max_flips
          | _ -> acc)
        0 specs;
    stats = Stats.create ();
  }

(* The stream for (spec i, terminal) is derived purely from the seed, so
   lazy creation order cannot matter; draws within a stream happen in
   simulated-event order by a single-threaded simulation. *)
let chan_rng t ~spec ~terminal =
  let row = t.chan_streams.(spec) in
  match if terminal < Array.length row then row.(terminal) else None with
  | Some rng -> rng
  | None ->
    let rng =
      Prng.split
        ~seed:(Prng.split_seed ~seed:t.chan_seed ~stream:spec)
        ~stream:terminal
    in
    let row =
      if terminal < Array.length row then row
      else begin
        let bigger = Array.make (max (terminal + 1) (2 * Array.length row)) None in
        Array.blit row 0 bigger 0 (Array.length row);
        t.chan_streams.(spec) <- bigger;
        bigger
      end
    in
    row.(terminal) <- Some rng;
    rng

let active t = not (Plan.is_empty t.plan)
let plan t = t.plan
let recovery t = t.plan.Plan.recovery
let stats t = t.stats

let in_window ~now (w : Plan.window) =
  now >= w.from_ns
  && match w.until_ns with None -> true | Some u -> now < u

let matches pattern name = pattern = "*" || pattern = name

type action = Pass | Drop | Corrupt | Stall of int64

let hibi_action t ~now ~segment =
  let n = Array.length t.streams in
  let rec go i =
    if i >= n then Pass
    else
      let rng = t.streams.(i) in
      match t.specs.(i) with
      | Plan.Hibi_drop { segment = pat; rate; window }
        when matches pat segment && in_window ~now window ->
        if Prng.bool rng ~p:rate then begin
          t.stats.Stats.hibi_drops <- t.stats.Stats.hibi_drops + 1;
          Drop
        end
        else go (i + 1)
      | Plan.Hibi_corrupt { segment = pat; rate; window; _ }
        when matches pat segment && in_window ~now window ->
        if Prng.bool rng ~p:rate then begin
          t.stats.Stats.hibi_corrupts <- t.stats.Stats.hibi_corrupts + 1;
          Corrupt
        end
        else go (i + 1)
      | Plan.Hibi_stall { segment = pat; rate; max_stall_ns; window }
        when matches pat segment && in_window ~now window ->
        if Prng.bool rng ~p:rate then begin
          t.stats.Stats.hibi_stalls <- t.stats.Stats.hibi_stalls + 1;
          Stall (Int64.of_int (1 + Prng.int rng max_stall_ns))
        end
        else go (i + 1)
      | _ -> go (i + 1)
  in
  go 0

let corrupt_frame t ~salt frame =
  if t.max_flips = 0 || String.length frame = 0 then frame
  else begin
    let rng = Prng.split ~seed:t.flip_seed ~stream:salt in
    let bytes = Bytes.of_string frame in
    let nbits = 8 * Bytes.length bytes in
    let flips = 1 + Prng.int rng (max 1 t.max_flips) in
    for _ = 1 to flips do
      let bit = Prng.int rng nbits in
      let byte = bit / 8 and off = bit mod 8 in
      Bytes.set bytes byte
        (Char.chr (Char.code (Bytes.get bytes byte) lxor (1 lsl off)))
    done;
    Bytes.to_string bytes
  end

type fate = Deliver | Lose | Duplicate

let signal_fate t ~now ~process =
  let n = Array.length t.streams in
  let rec go i =
    if i >= n then Deliver
    else
      let rng = t.streams.(i) in
      match t.specs.(i) with
      | Plan.Signal_loss { process = pat; rate; window }
        when matches pat process && in_window ~now window ->
        if Prng.bool rng ~p:rate then begin
          t.stats.Stats.signal_losses <- t.stats.Stats.signal_losses + 1;
          Lose
        end
        else go (i + 1)
      | Plan.Signal_dup { process = pat; rate; window }
        when matches pat process && in_window ~now window ->
        if Prng.bool rng ~p:rate then begin
          t.stats.Stats.signal_dups <- t.stats.Stats.signal_dups + 1;
          Duplicate
        end
        else go (i + 1)
      | _ -> go (i + 1)
  in
  go 0

let chan_loss t ~now ~terminal =
  let n = Array.length t.specs in
  let rec go i =
    if i >= n then false
    else
      match t.specs.(i) with
      | Plan.Chan_loss { terminals; rate; window }
        when Selector.matches terminals terminal && in_window ~now window ->
        if Prng.bool (chan_rng t ~spec:i ~terminal) ~p:rate then begin
          t.stats.Stats.chan_losses <- t.stats.Stats.chan_losses + 1;
          true
        end
        else go (i + 1)
      | _ -> go (i + 1)
  in
  go 0

let chan_burst_start t ~now ~terminal =
  let n = Array.length t.specs in
  let rec go i =
    if i >= n then None
    else
      match t.specs.(i) with
      | Plan.Chan_burst { terminals; rate; max_burst_ns; window }
        when Selector.matches terminals terminal && in_window ~now window ->
        let rng = chan_rng t ~spec:i ~terminal in
        if Prng.bool rng ~p:rate then begin
          t.stats.Stats.chan_bursts <- t.stats.Stats.chan_bursts + 1;
          Some (1 + Prng.int rng max_burst_ns)
        end
        else go (i + 1)
      | _ -> go (i + 1)
  in
  go 0

let term_crashes t ~terminals:count =
  List.concat_map
    (function
      | Plan.Term_crash { terminals; at_ns } ->
        List.filter_map
          (fun term ->
            if Selector.matches terminals term then Some (term, at_ns)
            else None)
          (List.init count Fun.id)
      | _ -> [])
    t.plan.Plan.specs

let pe_crashes t =
  List.filter_map
    (function Plan.Pe_crash { pe; at_ns } -> Some (pe, at_ns) | _ -> None)
    t.plan.Plan.specs

let pe_slowdowns t =
  List.filter_map
    (function
      | Plan.Pe_slowdown { pe; factor; from_ns; until_ns } ->
        Some (pe, factor, from_ns, until_ns)
      | _ -> None)
    t.plan.Plan.specs
