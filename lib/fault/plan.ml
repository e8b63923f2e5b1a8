type window = { from_ns : int64; until_ns : int64 option }

let always = { from_ns = 0L; until_ns = None }

type spec =
  | Hibi_drop of { segment : string; rate : float; window : window }
  | Hibi_corrupt of {
      segment : string;
      rate : float;
      max_flips : int;
      window : window;
    }
  | Hibi_stall of {
      segment : string;
      rate : float;
      max_stall_ns : int;
      window : window;
    }
  | Pe_crash of { pe : string; at_ns : int64 }
  | Pe_slowdown of {
      pe : string;
      factor : float;
      from_ns : int64;
      until_ns : int64;
    }
  | Signal_loss of { process : string; rate : float; window : window }
  | Signal_dup of { process : string; rate : float; window : window }
  | Chan_loss of { terminals : Selector.t; rate : float; window : window }
  | Chan_burst of {
      terminals : Selector.t;
      rate : float;
      max_burst_ns : int;
      window : window;
    }
  | Term_crash of { terminals : Selector.t; at_ns : int64 }

type recovery = {
  ack_timeout_ns : int64;
  max_retries : int;
  watchdog_period_ns : int64;
  remap : bool;
}

let default_recovery =
  {
    ack_timeout_ns = 2_000_000L;
    max_retries = 5;
    watchdog_period_ns = 10_000_000L;
    remap = true;
  }

type t = { specs : spec list; recovery : recovery }

let empty = { specs = []; recovery = default_recovery }
let is_empty t = t.specs = []

let spec_kind = function
  | Hibi_drop _ -> "hibi_drop"
  | Hibi_corrupt _ -> "hibi_corrupt"
  | Hibi_stall _ -> "hibi_stall"
  | Pe_crash _ -> "pe_crash"
  | Pe_slowdown _ -> "pe_slowdown"
  | Signal_loss _ -> "signal_loss"
  | Signal_dup _ -> "signal_dup"
  | Chan_loss _ -> "chan_loss"
  | Chan_burst _ -> "chan_burst"
  | Term_crash _ -> "term_crash"

let catalog =
  [
    ( "hibi_drop",
      "drop a message hop on a HIBI segment (fields: segment, rate, \
       [from_ns], [until_ns])" );
    ( "hibi_corrupt",
      "flip 1..max_flips bits of the frame crossing a HIBI segment \
       (fields: segment, rate, [max_flips], [from_ns], [until_ns])" );
    ( "hibi_stall",
      "delay a hop by 1..max_stall_ns extra nanoseconds (fields: segment, \
       rate, max_stall_ns, [from_ns], [until_ns])" );
    ("pe_crash", "fail-stop a processing element (fields: pe, at_ns)");
    ( "pe_slowdown",
      "scale job durations on a PE inside a window (fields: pe, factor, \
       from_ns, until_ns)" );
    ( "signal_loss",
      "lose a local same-PE signal delivery (fields: process, rate, \
       [from_ns], [until_ns])" );
    ( "signal_dup",
      "deliver a local same-PE signal twice (fields: process, rate, \
       [from_ns], [until_ns])" );
    ( "chan_loss",
      "lose a WLAN transmission by a matching terminal (fields: terminals \
       selector, rate, [from_ns], [until_ns])" );
    ( "chan_burst",
      "start a burst of interference of 1..max_burst_ns near a matching \
       terminal; its transmissions corrupt while the burst lasts (fields: \
       terminals selector, rate, max_burst_ns, [from_ns], [until_ns])" );
    ( "term_crash",
      "fail-stop matching WLAN terminals at the given instant (fields: \
       terminals selector, at_ns)" );
  ]

(* ---- decoding -------------------------------------------------------- *)

exception Shape of string

let shape ctx msg = raise (Shape (Printf.sprintf "%s: %s" ctx msg))

let field_int64 ?default ctx json name =
  match Obs.Json.member name json with
  | Some (Obs.Json.Int n) -> Int64.of_int n
  | Some _ ->
    shape ctx (Printf.sprintf "field %S must be an integer" name)
  | None -> (
    match default with
    | Some d -> d
    | None -> shape ctx (Printf.sprintf "missing field %S" name))

let field_int ?default ctx json name =
  match Obs.Json.member name json with
  | Some (Obs.Json.Int n) -> n
  | Some _ -> shape ctx (Printf.sprintf "field %S must be an integer" name)
  | None -> (
    match default with
    | Some d -> d
    | None -> shape ctx (Printf.sprintf "missing field %S" name))

let field_string ?default ctx json name =
  match Obs.Json.member name json with
  | Some (Obs.Json.Str s) -> s
  | Some _ -> shape ctx (Printf.sprintf "field %S must be a string" name)
  | None -> (
    match default with
    | Some d -> d
    | None -> shape ctx (Printf.sprintf "missing field %S" name))

let field_bool ?default ctx json name =
  match Obs.Json.member name json with
  | Some (Obs.Json.Bool b) -> b
  | Some _ -> shape ctx (Printf.sprintf "field %S must be a boolean" name)
  | None -> (
    match default with
    | Some d -> d
    | None -> shape ctx (Printf.sprintf "missing field %S" name))

let field_float ?default ctx json name =
  match Obs.Json.member name json with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int n) -> float_of_int n
  | Some _ -> shape ctx (Printf.sprintf "field %S must be a number" name)
  | None -> (
    match default with
    | Some d -> d
    | None -> shape ctx (Printf.sprintf "missing field %S" name))

let field_rate ctx json name =
  let r = field_float ctx json name in
  if r < 0.0 || r > 1.0 then
    shape ctx (Printf.sprintf "field %S must be a number in [0,1]" name);
  r

let field_window ctx json =
  let from_ns = field_int64 ~default:0L ctx json "from_ns" in
  let until_ns =
    match field_int64 ~default:(-1L) ctx json "until_ns" with
    | -1L -> None
    | n when n < 0L -> shape ctx "field \"until_ns\" must be >= 0 or -1"
    | n -> Some n
  in
  (match until_ns with
  | Some u when u < from_ns ->
    shape ctx "window is empty (until_ns < from_ns)"
  | Some _ | None -> ());
  { from_ns; until_ns }

let known_fields =
  [
    "kind"; "segment"; "pe"; "process"; "rate"; "max_flips"; "max_stall_ns";
    "at_ns"; "factor"; "from_ns"; "until_ns"; "terminals"; "max_burst_ns";
  ]

let field_terminals ctx json =
  let text = field_string ctx json "terminals" in
  match Selector.parse text with
  | Ok sel -> sel
  | Error e -> shape ctx (Printf.sprintf "field \"terminals\": %s" e)

let decode_spec i json =
  let kind =
    match json with
    | Obs.Json.Obj fields ->
      List.iter
        (fun (name, _) ->
          if not (List.mem name known_fields) then
            shape
              (Printf.sprintf "faults[%d]" i)
              (Printf.sprintf "unknown field %S" name))
        fields;
      field_string (Printf.sprintf "faults[%d]" i) json "kind"
    | _ -> shape (Printf.sprintf "faults[%d]" i) "must be an object"
  in
  let ctx = Printf.sprintf "faults[%d] (%s)" i kind in
  match kind with
  | "hibi_drop" ->
    Hibi_drop
      {
        segment = field_string ctx json "segment";
        rate = field_rate ctx json "rate";
        window = field_window ctx json;
      }
  | "hibi_corrupt" ->
    let max_flips = field_int ~default:3 ctx json "max_flips" in
    if max_flips < 1 then shape ctx "field \"max_flips\" must be >= 1";
    Hibi_corrupt
      {
        segment = field_string ctx json "segment";
        rate = field_rate ctx json "rate";
        max_flips;
        window = field_window ctx json;
      }
  | "hibi_stall" ->
    let max_stall_ns = field_int ctx json "max_stall_ns" in
    if max_stall_ns < 1 then shape ctx "field \"max_stall_ns\" must be >= 1";
    Hibi_stall
      {
        segment = field_string ctx json "segment";
        rate = field_rate ctx json "rate";
        max_stall_ns;
        window = field_window ctx json;
      }
  | "pe_crash" ->
    let at_ns = field_int64 ctx json "at_ns" in
    if at_ns < 0L then shape ctx "field \"at_ns\" must be >= 0";
    Pe_crash { pe = field_string ctx json "pe"; at_ns }
  | "pe_slowdown" ->
    let factor = field_float ctx json "factor" in
    if factor < 1.0 then shape ctx "field \"factor\" must be >= 1.0";
    let from_ns = field_int64 ctx json "from_ns" in
    let until_ns = field_int64 ctx json "until_ns" in
    if from_ns < 0L || until_ns <= from_ns then
      shape ctx "window is empty (need 0 <= from_ns < until_ns)";
    Pe_slowdown { pe = field_string ctx json "pe"; factor; from_ns; until_ns }
  | "signal_loss" ->
    Signal_loss
      {
        process = field_string ctx json "process";
        rate = field_rate ctx json "rate";
        window = field_window ctx json;
      }
  | "signal_dup" ->
    Signal_dup
      {
        process = field_string ctx json "process";
        rate = field_rate ctx json "rate";
        window = field_window ctx json;
      }
  | "chan_loss" ->
    Chan_loss
      {
        terminals = field_terminals ctx json;
        rate = field_rate ctx json "rate";
        window = field_window ctx json;
      }
  | "chan_burst" ->
    let max_burst_ns = field_int ctx json "max_burst_ns" in
    if max_burst_ns < 1 then shape ctx "field \"max_burst_ns\" must be >= 1";
    Chan_burst
      {
        terminals = field_terminals ctx json;
        rate = field_rate ctx json "rate";
        max_burst_ns;
        window = field_window ctx json;
      }
  | "term_crash" ->
    let at_ns = field_int64 ctx json "at_ns" in
    if at_ns < 0L then shape ctx "field \"at_ns\" must be >= 0";
    Term_crash { terminals = field_terminals ctx json; at_ns }
  | other ->
    shape
      (Printf.sprintf "faults[%d]" i)
      (Printf.sprintf "unknown kind %S (see tutflow faults --list)" other)

let decode_recovery json =
  let ctx = "recovery" in
  let ack_timeout_ns =
    field_int64 ~default:default_recovery.ack_timeout_ns ctx json
      "ack_timeout_ns"
  in
  if ack_timeout_ns <= 0L then shape ctx "field \"ack_timeout_ns\" must be > 0";
  let max_retries =
    field_int ~default:default_recovery.max_retries ctx json "max_retries"
  in
  if max_retries < 0 then shape ctx "field \"max_retries\" must be >= 0";
  let watchdog_period_ns =
    field_int64 ~default:default_recovery.watchdog_period_ns ctx json
      "watchdog_period_ns"
  in
  if watchdog_period_ns < 0L then
    shape ctx "field \"watchdog_period_ns\" must be >= 0";
  let remap = field_bool ~default:default_recovery.remap ctx json "remap" in
  { ack_timeout_ns; max_retries; watchdog_period_ns; remap }

(* The JSON reader reports byte offsets; humans edit lines. *)
let line_col_of_offset text offset =
  let offset = min (max 0 offset) (String.length text) in
  let line = ref 1 and col = ref 1 in
  String.iteri
    (fun i c ->
      if i < offset then
        if c = '\n' then begin
          incr line;
          col := 1
        end
        else incr col)
    text;
  (!line, !col)

let relocate_offset text msg =
  (* "... at offset N" -> "line L, column C: ..." *)
  let marker = " at offset " in
  let len = String.length msg and mlen = String.length marker in
  let rec find i =
    if i + mlen > len then None
    else if String.sub msg i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> (
    match int_of_string_opt (String.sub msg (i + mlen) (len - i - mlen)) with
    | Some offset ->
      let line, col = line_col_of_offset text offset in
      Printf.sprintf "line %d, column %d: %s" line col (String.sub msg 0 i)
    | None -> msg)
  | None -> msg

let of_json_string text =
  match Obs.Json.parse text with
  | Error e -> Error (relocate_offset text e)
  | Ok json -> (
    try
      match json with
      | Obs.Json.Obj fields ->
        List.iter
          (fun (name, _) ->
            if name <> "faults" && name <> "recovery" then
              raise
                (Shape
                   (Printf.sprintf
                      "plan: unknown field %S (expected \"faults\" and \
                       optionally \"recovery\")"
                      name)))
          fields;
        let specs =
          match Obs.Json.member "faults" json with
          | None | Some (Obs.Json.List []) -> []
          | Some (Obs.Json.List items) -> List.mapi decode_spec items
          | Some _ -> raise (Shape "plan: field \"faults\" must be a list")
        in
        let recovery =
          match Obs.Json.member "recovery" json with
          | None -> default_recovery
          | Some (Obs.Json.Obj _ as r) -> decode_recovery r
          | Some _ -> raise (Shape "plan: field \"recovery\" must be an object")
        in
        Ok { specs; recovery }
      | _ -> Error "plan: top level must be an object"
    with Shape msg -> Error msg)

let of_file path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> In_channel.input_all ic)
    in
    Result.map_error (fun e -> Printf.sprintf "%s: %s" path e)
      (of_json_string contents)

(* ---- encoding -------------------------------------------------------- *)

let window_fields { from_ns; until_ns } =
  [ ("from_ns", Obs.Json.Int (Int64.to_int from_ns)) ]
  @
  match until_ns with
  | None -> []
  | Some u -> [ ("until_ns", Obs.Json.Int (Int64.to_int u)) ]

let spec_to_json spec =
  let kind = ("kind", Obs.Json.Str (spec_kind spec)) in
  Obs.Json.Obj
    (match spec with
    | Hibi_drop { segment; rate; window } ->
      (kind :: [ ("segment", Obs.Json.Str segment); ("rate", Obs.Json.Float rate) ])
      @ window_fields window
    | Hibi_corrupt { segment; rate; max_flips; window } ->
      (kind
      :: [
           ("segment", Obs.Json.Str segment);
           ("rate", Obs.Json.Float rate);
           ("max_flips", Obs.Json.Int max_flips);
         ])
      @ window_fields window
    | Hibi_stall { segment; rate; max_stall_ns; window } ->
      (kind
      :: [
           ("segment", Obs.Json.Str segment);
           ("rate", Obs.Json.Float rate);
           ("max_stall_ns", Obs.Json.Int max_stall_ns);
         ])
      @ window_fields window
    | Pe_crash { pe; at_ns } ->
      [ kind; ("pe", Obs.Json.Str pe); ("at_ns", Obs.Json.Int (Int64.to_int at_ns)) ]
    | Pe_slowdown { pe; factor; from_ns; until_ns } ->
      [
        kind;
        ("pe", Obs.Json.Str pe);
        ("factor", Obs.Json.Float factor);
        ("from_ns", Obs.Json.Int (Int64.to_int from_ns));
        ("until_ns", Obs.Json.Int (Int64.to_int until_ns));
      ]
    | Signal_loss { process; rate; window } ->
      (kind
      :: [ ("process", Obs.Json.Str process); ("rate", Obs.Json.Float rate) ])
      @ window_fields window
    | Signal_dup { process; rate; window } ->
      (kind
      :: [ ("process", Obs.Json.Str process); ("rate", Obs.Json.Float rate) ])
      @ window_fields window
    | Chan_loss { terminals; rate; window } ->
      (kind
      :: [
           ("terminals", Obs.Json.Str (Selector.to_string terminals));
           ("rate", Obs.Json.Float rate);
         ])
      @ window_fields window
    | Chan_burst { terminals; rate; max_burst_ns; window } ->
      (kind
      :: [
           ("terminals", Obs.Json.Str (Selector.to_string terminals));
           ("rate", Obs.Json.Float rate);
           ("max_burst_ns", Obs.Json.Int max_burst_ns);
         ])
      @ window_fields window
    | Term_crash { terminals; at_ns } ->
      [
        kind;
        ("terminals", Obs.Json.Str (Selector.to_string terminals));
        ("at_ns", Obs.Json.Int (Int64.to_int at_ns));
      ])

let to_json t =
  Obs.Json.Obj
    [
      ("faults", Obs.Json.List (List.map spec_to_json t.specs));
      ( "recovery",
        Obs.Json.Obj
          [
            ("ack_timeout_ns", Obs.Json.Int (Int64.to_int t.recovery.ack_timeout_ns));
            ("max_retries", Obs.Json.Int t.recovery.max_retries);
            ( "watchdog_period_ns",
              Obs.Json.Int (Int64.to_int t.recovery.watchdog_period_ns) );
            ("remap", Obs.Json.Bool t.recovery.remap);
          ] );
    ]
