(* Machine-speed calibration.  The benchmark runs on shared virtual
   machines where the same job's host time drifts by well over 50%
   between quiet and busy minutes, far more than the regressions the
   benchmark must catch.  A fixed kernel built from the standard
   library only (so no change to the repository can move it) is timed
   around every job; the job's host times are divided by it, and
   reported at the speed of a machine on which the kernel takes
   {!reference_s}.

   The drift comes mostly from memory and collector work: the jobs
   build heaps of tens to hundreds of megabytes, and a cache-resident
   kernel follows only about a third of their slowdown.  So the kernel
   does what the jobs do at that scale: it fills a 300k-entry hash
   table of boxed strings (about 20 MB of heap, promoted and scanned by
   the major collector) and walks it.

   The kernel runs in a child process ([tutbench.exe --calibrate]), so
   it neither adds to the benchmark process's heap (and so to
   [peak_heap_mb]) nor has its collections depend on what a job left
   behind. *)

let reference_s = 0.15

let kernel () =
  let h = Hashtbl.create 16 in
  for i = 0 to 300_000 do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  let s = ref 0 in
  for _ = 1 to 3 do
    Hashtbl.iter (fun k v -> s := !s + k + String.length v) h
  done;
  ignore (Sys.opaque_identity !s)

(* The child's side: time one kernel run and print the seconds. *)
let run_child () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Printf.printf "%.9f\n" (Unix.gettimeofday () -. t0)

(* Seconds for one kernel run, timed inside a fresh child process that
   has ended when this returns. *)
let sample () =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--calibrate" |]
  in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith "calibration child failed"
