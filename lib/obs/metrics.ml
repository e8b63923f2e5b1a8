(* Metrics registry: named counters, gauges and HDR histograms.

   Instruments are plain mutable-int cells so the hot paths (one update
   per simulation event) cost a field write, never an allocation or a
   hash lookup — callers resolve the handle once with [counter]/[gauge]/
   [hdr] and update through it.  Snapshots are immutable copies
   that can be merged across runs and rendered as text or JSON. *)

type counter = { mutable c_count : int }

type gauge = { mutable g_last : int; mutable g_peak : int }

type instrument = C of counter | G of gauge | D of Histogram.t

type t = { table : (string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some (C c) -> c
  | Some (G _ | D _) ->
    invalid_arg ("Obs.Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
    let c = { c_count = 0 } in
    Hashtbl.replace t.table name (C c);
    c

let gauge t name =
  match Hashtbl.find_opt t.table name with
  | Some (G g) -> g
  | Some (C _ | D _) ->
    invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
    let g = { g_last = 0; g_peak = 0 } in
    Hashtbl.replace t.table name (G g);
    g

let hdr t name =
  match Hashtbl.find_opt t.table name with
  | Some (D d) -> d
  | Some (C _ | G _) ->
    invalid_arg ("Obs.Metrics.hdr: " ^ name ^ " is not an HDR histogram")
  | None ->
    let d = Histogram.create () in
    Hashtbl.replace t.table name (D d);
    d

let inc ?(by = 1) c = c.c_count <- c.c_count + by
let count c = c.c_count

let set g v =
  g.g_last <- v;
  if v > g.g_peak then g.g_peak <- v

let set_peak g v = if v > g.g_peak then g.g_peak <- v
let last g = g.g_last
let peak g = g.g_peak

(* -- snapshots ---------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of { last_value : int; peak_value : int }
  | Hdr of Histogram.snapshot

type snapshot = (string * value) list

(* Instrument names are unique, so ordering by name alone is total —
   and it keeps snapshot (hence JSON key) order deterministic without
   relying on polymorphic comparison of the values. *)
let by_name (a, _) (b, _) = String.compare a b

let snapshot t =
  Hashtbl.fold
    (fun name instrument acc ->
      let value =
        match instrument with
        | C c -> Counter c.c_count
        | G g -> Gauge { last_value = g.g_last; peak_value = g.g_peak }
        | D d -> Hdr (Histogram.snapshot d)
      in
      (name, value) :: acc)
    t.table []
  |> List.sort by_name

let find snap name = List.assoc_opt name snap

let counter_value snap name =
  match find snap name with Some (Counter n) -> Some n | _ -> None

(* Counters and histogram populations add; gauges keep the element-wise
   maximum (a merged high-water mark stays a high-water mark). *)
let merge_value a b =
  match a, b with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y ->
    Gauge
      {
        last_value = max x.last_value y.last_value;
        peak_value = max x.peak_value y.peak_value;
      }
  | Hdr x, Hdr y -> Hdr (Histogram.merge x y)
  | (Counter _ | Gauge _ | Hdr _), _ ->
    invalid_arg "Obs.Metrics.merge: instrument kind mismatch"

let merge a b =
  let table = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace table name v) a;
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt table name with
      | None -> Hashtbl.replace table name v
      | Some existing -> Hashtbl.replace table name (merge_value existing v))
    b;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) table [] |> List.sort by_name

(* Fold a snapshot into a live registry with the same rules as [merge];
   histograms get their buckets added directly (the snapshot carries
   every populated bucket, so no re-observation round-trip is needed). *)
let absorb t snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> inc ~by:n (counter t name)
      | Gauge { last_value; peak_value } ->
        let g = gauge t name in
        if last_value > g.g_last then g.g_last <- last_value;
        if peak_value > g.g_peak then g.g_peak <- peak_value
      | Hdr s -> Histogram.absorb (hdr t name) s)
    snap

(* -- rendering ---------------------------------------------------------- *)

let render snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, value) ->
      match value with
      | Counter n -> Printf.bprintf buf "counter %-44s %d\n" name n
      | Gauge { last_value; peak_value } ->
        Printf.bprintf buf "gauge   %-44s last=%d peak=%d\n" name last_value
          peak_value
      | Hdr s ->
        Printf.bprintf buf
          "hdr     %-44s count=%d sum=%d min=%d max=%d mean=%.1f p50=%d p90=%d p99=%d\n"
          name s.Histogram.s_count s.Histogram.s_sum s.Histogram.s_min
          s.Histogram.s_max (Histogram.mean s) (Histogram.quantile s 50.0)
          (Histogram.quantile s 90.0) (Histogram.quantile s 99.0))
    snap;
  Buffer.contents buf

let to_json snap =
  Json.Obj
    (List.map
       (fun (name, value) ->
         ( name,
           match value with
           | Counter n -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int n) ]
           | Gauge { last_value; peak_value } ->
             Json.Obj
               [
                 ("type", Json.Str "gauge");
                 ("last", Json.Int last_value);
                 ("peak", Json.Int peak_value);
               ]
           | Hdr s -> Histogram.to_json s ))
       snap)
