(* In-memory span recorder for the benchmark's traced runs.

   A span is opened around one public library call made by the
   benchmark program: name, parent, host start/end and the minor-heap
   words allocated at both edges.  Nothing is written while the
   workload runs; {!dump} serialises the spans once the run is over.
   With recording off, {!with_} is a plain call, so untraced runs pay
   one branch per boundary. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  t0 : float;
  mutable t1 : float;
  w0 : float;
  mutable w1 : float;
}

let recording = ref false
let spans : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let reset () =
  spans := [];
  next_id := 0;
  stack := []

let with_ name f =
  if not !recording then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      {
        id;
        parent;
        name;
        t0 = Unix.gettimeofday ();
        t1 = 0.;
        w0 = Gc.minor_words ();
        w1 = 0.;
      }
    in
    spans := s :: !spans;
    stack := id :: !stack;
    let close () =
      s.t1 <- Unix.gettimeofday ();
      s.w1 <- Gc.minor_words ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Untraced timing of one call: its value, host seconds and minor words. *)
let measure f =
  let t0 = Unix.gettimeofday () and w0 = Gc.minor_words () in
  let v = f () in
  let w1 = Gc.minor_words () in
  (v, Unix.gettimeofday () -. t0, w1 -. w0)

let all () = List.rev !spans
let duration s = s.t1 -. s.t0
let words s = s.w1 -. s.w0

(* Self time per span name, summed over every span whose nearest
   ancestor named [root] exists (the root itself included): a span's
   duration minus the durations of its direct children. *)
let self_times ~root spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec under s =
    s.name = root
    || (s.parent >= 0 && under (Hashtbl.find by_id s.parent))
  in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. duration s))
    spans;
  let acc = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      if under s then begin
        let self =
          duration s
          -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id)
        in
        (match Hashtbl.find_opt acc s.name with
        | None -> order := s.name :: !order
        | Some _ -> ());
        Hashtbl.replace acc s.name
          (self +. Option.value ~default:0. (Hashtbl.find_opt acc s.name))
      end)
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find acc name)) !order

(* Total duration and allocation of every span with this name. *)
let total name spans =
  List.fold_left
    (fun (t, w) s ->
      if s.name = name then (t +. duration s, w +. words s) else (t, w))
    (0., 0.) spans

let dump oc spans =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"t0\":%.6f,\"t1\":%.6f,\"w0\":%.0f,\"w1\":%.0f}\n"
        s.id s.parent s.name s.t0 s.t1 s.w0 s.w1)
    spans
