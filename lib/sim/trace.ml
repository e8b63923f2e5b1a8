type event =
  | Exec of { time : int64; process : string; cycles : int64 }
  | Signal of {
      time : int64;
      sender : string;
      receiver : string;
      signal : string;
      words : int;
      tag : int;
    }
  | State_change of { time : int64; process : string; from_ : string; to_ : string }
  | Discard of { time : int64; process : string; signal : string }
  | Fault of { time : int64; kind : string; target : string; info : string }
  | Retransmit of {
      time : int64;
      sender : string;
      receiver : string;
      signal : string;
      attempt : int;
    }
  | Flow_hop of {
      time : int64;
      flow : int;
      stage : string;
      where_ : string;
      dur : int64;
    }

type backend = Arena | List

(* Event kinds, one per log-line letter.  The arena stores one row per
   event: seven native ints (kind, time, f0..f4) of 8 bytes each, string
   fields replaced by interned ids.  Rows live in fixed-size [Bytes]
   chunks hung off a growable spine: appending is a handful of unboxed
   stores, never copies an earlier row, and — [Bytes] holding no
   pointers — the collector never scans the log.  The textual line is
   only rendered when someone asks for it. *)
let k_exec = 0
let k_signal = 1
let k_state = 2
let k_discard = 3
let k_fault = 4
let k_retransmit = 5
let k_flow = 6

let row_bytes = 7 * 8
let chunk_shift = 13
let chunk_rows = 1 lsl chunk_shift (* 8,192 rows, 448 KiB per chunk *)
let chunk_mask = chunk_rows - 1

(* Native-endian 8-byte slots: the arena is never shared across hosts. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] slot b off = Int64.to_int (get64 b off)
let[@inline] set_slot b off v = set64 b off (Int64.of_int v)

type t = {
  backend : backend;
  (* String interning, shared by both backends so ids handed out by
     [intern] stay valid whichever store is active. *)
  tbl : (string, int) Hashtbl.t;
  mutable strs : string array;
  mutable nstrs : int;
  (* Arena: row [i] sits in [chunks.(i lsr chunk_shift)] at byte
     [(i land chunk_mask) * row_bytes].  Chunks are allocated on the
     first push into them and kept across {!clear}. *)
  mutable n : int;
  mutable chunks : Bytes.t array;
  mutable nchunks : int;
  (* Rare int64 values outside the native-int range keep full fidelity
     here, keyed by event index; checked only when non-empty. *)
  overflow : (int, event) Hashtbl.t;
  (* Legacy list backend. *)
  mutable events_rev : event list;
  mutable list_len : int;
}

let create ?(backend = Arena) () =
  {
    backend;
    tbl = Hashtbl.create 64;
    strs = Array.make 64 "";
    nstrs = 0;
    n = 0;
    chunks = [||];
    nchunks = 0;
    overflow = Hashtbl.create 1;
    events_rev = [];
    list_len = 0;
  }

let backend t = t.backend

let intern t s =
  match Hashtbl.find t.tbl s with
  | id -> id
  | exception Not_found ->
    let id = t.nstrs in
    if id = Array.length t.strs then begin
      let strs = Array.make (2 * id) "" in
      Array.blit t.strs 0 strs 0 id;
      t.strs <- strs
    end;
    t.strs.(id) <- s;
    t.nstrs <- id + 1;
    Hashtbl.add t.tbl s id;
    id

let interned t id = t.strs.(id)

(* Row [t.n] starts a chunk that has not been allocated yet: hang a new
   one off the spine (doubling the spine, which holds only pointers). *)
let add_chunk t =
  if t.nchunks = Array.length t.chunks then begin
    let spine = Array.make (max 4 (2 * t.nchunks)) Bytes.empty in
    Array.blit t.chunks 0 spine 0 t.nchunks;
    t.chunks <- spine
  end;
  t.chunks.(t.nchunks) <- Bytes.create (chunk_rows * row_bytes);
  t.nchunks <- t.nchunks + 1

let[@inline] push t k time f0 f1 f2 f3 f4 =
  let i = t.n in
  let c = i lsr chunk_shift in
  if c = t.nchunks then add_chunk t;
  let b = Array.unsafe_get t.chunks c in
  let o = (i land chunk_mask) * row_bytes in
  set_slot b o k;
  set_slot b (o + 8) time;
  set_slot b (o + 16) f0;
  set_slot b (o + 24) f1;
  set_slot b (o + 32) f2;
  set_slot b (o + 40) f3;
  set_slot b (o + 48) f4;
  t.n <- i + 1

(* Slot [s] (0 = kind, 1 = time, 2.. = f0..f4) of row [i]. *)
let[@inline] field t i s =
  slot
    (Array.unsafe_get t.chunks (i lsr chunk_shift))
    (((i land chunk_mask) * row_bytes) + (8 * s))

let fits x = Int64.equal (Int64.of_int (Int64.to_int x)) x

let record_arena t event =
  let i = t.n in
  (match event with
  | Exec { time; process; cycles } ->
    push t k_exec (Int64.to_int time) (intern t process) (Int64.to_int cycles)
      0 0 0;
    if not (fits time && fits cycles) then Hashtbl.replace t.overflow i event
  | Signal { time; sender; receiver; signal; words; tag } ->
    push t k_signal (Int64.to_int time) (intern t sender) (intern t receiver)
      (intern t signal) words tag;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | State_change { time; process; from_; to_ } ->
    push t k_state (Int64.to_int time) (intern t process) (intern t from_)
      (intern t to_) 0 0;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | Discard { time; process; signal } ->
    push t k_discard (Int64.to_int time) (intern t process) (intern t signal) 0
      0 0;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | Fault { time; kind; target; info } ->
    push t k_fault (Int64.to_int time) (intern t kind) (intern t target)
      (intern t info) 0 0;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | Retransmit { time; sender; receiver; signal; attempt } ->
    push t k_retransmit (Int64.to_int time) (intern t sender)
      (intern t receiver) (intern t signal) attempt 0;
    if not (fits time) then Hashtbl.replace t.overflow i event
  | Flow_hop { time; flow; stage; where_; dur } ->
    push t k_flow (Int64.to_int time) flow (intern t stage) (intern t where_)
      (Int64.to_int dur) 0;
    if not (fits time && fits dur) then Hashtbl.replace t.overflow i event)

let record t event =
  match t.backend with
  | Arena -> record_arena t event
  | List ->
    t.events_rev <- event :: t.events_rev;
    t.list_len <- t.list_len + 1

(* Unboxed hot-path appenders: times and durations are plain int ns,
   strings are pre-interned ids.  On the legacy backend they rebuild
   the variant so both backends observe the same stream. *)

let record_exec t ~time ~process ~cycles =
  match t.backend with
  | Arena -> push t k_exec time process cycles 0 0 0
  | List ->
    record t
      (Exec
         {
           time = Int64.of_int time;
           process = interned t process;
           cycles = Int64.of_int cycles;
         })

let record_signal t ~time ~sender ~receiver ~signal ~words ~tag =
  match t.backend with
  | Arena -> push t k_signal time sender receiver signal words tag
  | List ->
    record t
      (Signal
         {
           time = Int64.of_int time;
           sender = interned t sender;
           receiver = interned t receiver;
           signal = interned t signal;
           words;
           tag;
         })

let record_state_change t ~time ~process ~from_ ~to_ =
  match t.backend with
  | Arena -> push t k_state time process from_ to_ 0 0
  | List ->
    record t
      (State_change
         {
           time = Int64.of_int time;
           process = interned t process;
           from_ = interned t from_;
           to_ = interned t to_;
         })

let record_discard t ~time ~process ~signal =
  match t.backend with
  | Arena -> push t k_discard time process signal 0 0 0
  | List ->
    record t
      (Discard
         {
           time = Int64.of_int time;
           process = interned t process;
           signal = interned t signal;
         })

let record_fault t ~time ~kind ~target ~info =
  match t.backend with
  | Arena -> push t k_fault time kind target info 0 0
  | List ->
    record t
      (Fault
         {
           time = Int64.of_int time;
           kind = interned t kind;
           target = interned t target;
           info = interned t info;
         })

let record_retransmit t ~time ~sender ~receiver ~signal ~attempt =
  match t.backend with
  | Arena -> push t k_retransmit time sender receiver signal attempt 0
  | List ->
    record t
      (Retransmit
         {
           time = Int64.of_int time;
           sender = interned t sender;
           receiver = interned t receiver;
           signal = interned t signal;
           attempt;
         })

let record_flow_hop t ~time ~flow ~stage ~where_ ~dur =
  match t.backend with
  | Arena -> push t k_flow time flow stage where_ dur 0
  | List ->
    record t
      (Flow_hop
         {
           time = Int64.of_int time;
           flow;
           stage = interned t stage;
           where_ = interned t where_;
           dur = Int64.of_int dur;
         })

let length t = match t.backend with Arena -> t.n | List -> t.list_len

let clear t =
  t.n <- 0;
  Hashtbl.reset t.overflow;
  t.events_rev <- [];
  t.list_len <- 0

(* Decoding an arena row back into the [event] view. *)
let decode_row t i =
  let s id = Array.unsafe_get t.strs id in
  let b = Array.unsafe_get t.chunks (i lsr chunk_shift) in
  let o = (i land chunk_mask) * row_bytes in
  let time = Int64.of_int (slot b (o + 8)) in
  let f0 = slot b (o + 16) in
  let f1 = slot b (o + 24) in
  let f2 = slot b (o + 32) in
  let f3 = slot b (o + 40) in
  match slot b o with
  | 0 -> Exec { time; process = s f0; cycles = Int64.of_int f1 }
  | 1 ->
    Signal
      {
        time;
        sender = s f0;
        receiver = s f1;
        signal = s f2;
        words = f3;
        tag = slot b (o + 48);
      }
  | 2 -> State_change { time; process = s f0; from_ = s f1; to_ = s f2 }
  | 3 -> Discard { time; process = s f0; signal = s f1 }
  | 4 -> Fault { time; kind = s f0; target = s f1; info = s f2 }
  | 5 ->
    Retransmit
      { time; sender = s f0; receiver = s f1; signal = s f2; attempt = f3 }
  | _ ->
    Flow_hop { time; flow = f0; stage = s f1; where_ = s f2; dur = Int64.of_int f3 }

let get_arena t i =
  if Hashtbl.length t.overflow = 0 then decode_row t i
  else
    match Hashtbl.find_opt t.overflow i with
    | Some event -> event
    | None -> decode_row t i

let iter t f =
  match t.backend with
  | Arena ->
    for i = 0 to t.n - 1 do
      f (get_arena t i)
    done
  | List -> List.iter f (List.rev t.events_rev)

let fold t init f =
  match t.backend with
  | Arena ->
    let acc = ref init in
    for i = 0 to t.n - 1 do
      acc := f !acc (get_arena t i)
    done;
    !acc
  | List -> List.fold_left f init (List.rev t.events_rev)

let events t =
  match t.backend with
  | Arena -> List.init t.n (fun i -> get_arena t i)
  | List -> List.rev t.events_rev

let get t i =
  match t.backend with
  | Arena ->
    if i < 0 || i >= t.n then invalid_arg "Sim.Trace.get";
    get_arena t i
  | List ->
    if i < 0 || i >= t.list_len then invalid_arg "Sim.Trace.get";
    List.nth (List.rev t.events_rev) i

(* The aggregations below have two implementations: a row scan over
   the arena (no per-event decode, accumulators indexed by interned id)
   and a generic [iter]-based fallback used by the list backend and by
   arenas holding out-of-range int64 rows (the overflow table keeps the
   exact values, so the generic path must decode).  Both orders of
   summation are over ints, so the results are identical. *)

let total_cycles_generic t =
  let table = Hashtbl.create 16 in
  iter t (fun event ->
      match event with
      | Exec { process; cycles; _ } ->
        let current =
          Option.value ~default:0L (Hashtbl.find_opt table process)
        in
        Hashtbl.replace table process (Int64.add current cycles)
      | Signal _ | State_change _ | Discard _ | Fault _ | Retransmit _
      | Flow_hop _ -> ());
  Hashtbl.fold (fun process cycles acc -> (process, cycles) :: acc) table []
  |> List.sort compare

let total_cycles t =
  match t.backend with
  | Arena when Hashtbl.length t.overflow = 0 ->
    let cycles = Array.make (max 1 t.nstrs) 0 in
    let seen = Array.make (max 1 t.nstrs) false in
    for i = 0 to t.n - 1 do
      if field t i 0 = k_exec then begin
        let id = field t i 2 in
        cycles.(id) <- cycles.(id) + field t i 3;
        seen.(id) <- true
      end
    done;
    let acc = ref [] in
    for id = t.nstrs - 1 downto 0 do
      if seen.(id) then
        acc := (t.strs.(id), Int64.of_int cycles.(id)) :: !acc
    done;
    List.sort compare !acc
  | Arena | List -> total_cycles_generic t

let signal_counts_generic t =
  let table = Hashtbl.create 16 in
  iter t (fun event ->
      match event with
      | Signal { sender; receiver; _ } ->
        let key = (sender, receiver) in
        let current = Option.value ~default:0 (Hashtbl.find_opt table key) in
        Hashtbl.replace table key (current + 1)
      | Exec _ | State_change _ | Discard _ | Fault _ | Retransmit _
      | Flow_hop _ -> ());
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) table []
  |> List.sort compare

let signal_counts t =
  match t.backend with
  | Arena when Hashtbl.length t.overflow = 0 ->
    (* (sender, receiver) packs into one immediate int key; [nstrs] is
       fixed during the scan (no interning happens here) *)
    let m = max 1 t.nstrs in
    let table = Hashtbl.create 16 in
    for i = 0 to t.n - 1 do
      if field t i 0 = k_signal then begin
        let key = (field t i 2 * m) + field t i 3 in
        match Hashtbl.find table key with
        | r -> incr r
        | exception Not_found -> Hashtbl.add table key (ref 1)
      end
    done;
    Hashtbl.fold
      (fun key r acc -> ((t.strs.(key / m), t.strs.(key mod m)), !r) :: acc)
      table []
    |> List.sort compare
  | Arena | List -> signal_counts_generic t

let discard_counts t =
  match t.backend with
  | Arena when Hashtbl.length t.overflow = 0 ->
    let counts = Array.make (max 1 t.nstrs) 0 in
    for i = 0 to t.n - 1 do
      if field t i 0 = k_discard then begin
        let id = field t i 2 in
        counts.(id) <- counts.(id) + 1
      end
    done;
    let acc = ref [] in
    for id = t.nstrs - 1 downto 0 do
      if counts.(id) > 0 then acc := (t.strs.(id), counts.(id)) :: !acc
    done;
    List.sort compare !acc
  | Arena | List ->
    let table = Hashtbl.create 8 in
    iter t (fun event ->
        match event with
        | Discard { process; _ } ->
          let current =
            Option.value ~default:0 (Hashtbl.find_opt table process)
          in
          Hashtbl.replace table process (current + 1)
        | Exec _ | Signal _ | State_change _ | Fault _ | Retransmit _
        | Flow_hop _ -> ());
    Hashtbl.fold (fun p c acc -> (p, c) :: acc) table []
    |> List.sort compare

(* Rendering goes through this single function for every backend, so
   byte-identical log lines are a property of the renderer, not of the
   store: arena and list traces of the same event stream cannot drift. *)
let event_to_line = function
  | Exec { time; process; cycles } ->
    Printf.sprintf "E %Ld %s %Ld" time process cycles
  | Signal { time; sender; receiver; signal; words; tag } ->
    if tag < 0 then
      Printf.sprintf "S %Ld %s %s %s %d" time sender receiver signal words
    else
      Printf.sprintf "S %Ld %s %s %s %d %d" time sender receiver signal words tag
  | State_change { time; process; from_; to_ } ->
    Printf.sprintf "T %Ld %s %s %s" time process from_ to_
  | Discard { time; process; signal } ->
    Printf.sprintf "D %Ld %s %s" time process signal
  | Fault { time; kind; target; info } ->
    Printf.sprintf "F %Ld %s %s %s" time kind target
      (if info = "" then "-" else info)
  | Retransmit { time; sender; receiver; signal; attempt } ->
    Printf.sprintf "R %Ld %s %s %s %d" time sender receiver signal attempt
  | Flow_hop { time; flow; stage; where_; dur } ->
    Printf.sprintf "L %Ld %d %s %s %Ld" time flow stage where_ dur

let event_of_line line =
  let fields =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  let time_of s =
    match Int64.of_string_opt s with
    | Some t -> Ok t
    | None -> Error (Printf.sprintf "bad time %S in %S" s line)
  in
  match fields with
  | [ "E"; time; process; cycles ] -> (
    match time_of time, Int64.of_string_opt cycles with
    | Ok time, Some cycles -> Ok (Exec { time; process; cycles })
    | Error e, _ -> Error e
    | _, None -> Error (Printf.sprintf "bad cycles in %S" line))
  | [ "S"; time; sender; receiver; signal; words ] -> (
    match time_of time, int_of_string_opt words with
    | Ok time, Some words ->
      Ok (Signal { time; sender; receiver; signal; words; tag = -1 })
    | Error e, _ -> Error e
    | _, None -> Error (Printf.sprintf "bad words in %S" line))
  | [ "S"; time; sender; receiver; signal; words; tag ] -> (
    match time_of time, int_of_string_opt words, int_of_string_opt tag with
    | Ok time, Some words, Some tag when tag >= 0 ->
      Ok (Signal { time; sender; receiver; signal; words; tag })
    | Error e, _, _ -> Error e
    | _, _, _ -> Error (Printf.sprintf "bad words or tag in %S" line))
  | [ "T"; time; process; from_; to_ ] ->
    Result.map (fun time -> State_change { time; process; from_; to_ }) (time_of time)
  | [ "D"; time; process; signal ] ->
    Result.map (fun time -> Discard { time; process; signal }) (time_of time)
  | [ "F"; time; kind; target; info ] ->
    Result.map (fun time -> Fault { time; kind; target; info }) (time_of time)
  | [ "R"; time; sender; receiver; signal; attempt ] -> (
    match time_of time, int_of_string_opt attempt with
    | Ok time, Some attempt when attempt >= 0 ->
      Ok (Retransmit { time; sender; receiver; signal; attempt })
    | Error e, _ -> Error e
    | _, _ -> Error (Printf.sprintf "bad attempt in %S" line))
  | [ "L"; time; flow; stage; where_; dur ] -> (
    match time_of time, int_of_string_opt flow, Int64.of_string_opt dur with
    | Ok time, Some flow, Some dur when flow >= 0 && dur >= 0L ->
      Ok (Flow_hop { time; flow; stage; where_; dur })
    | Error e, _, _ -> Error e
    | _, _, _ -> Error (Printf.sprintf "bad flow or dur in %S" line))
  | _ -> Error (Printf.sprintf "unrecognised log line %S" line)

let to_lines t =
  let acc = ref [] in
  iter t (fun event -> acc := event_to_line event :: !acc);
  List.rev !acc

let of_lines ?backend lines =
  let t = create ?backend () in
  (* [n] counts every physical line, blank or not, so the reported
     number matches the 1-based position in the file — including the
     last line of a file with no trailing newline, which arrives here
     as a final element with no successor. *)
  let rec loop n = function
    | [] -> Ok t
    | line :: rest when String.trim line = "" -> loop (n + 1) rest
    | line :: rest -> (
      match event_of_line line with
      | Ok event ->
        record t event;
        loop (n + 1) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  loop 1 lines

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      iter t (fun event ->
          output_string oc (event_to_line event);
          output_char oc '\n'))

let load ?backend path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec read acc =
          match input_line ic with
          | line -> read (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        of_lines ?backend (read []))
