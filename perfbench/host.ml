(* The speed of the host, measured alongside the program.

   The shared host this benchmark runs on changes speed by tens of
   percent over minutes (a fixed CPU loop timed every 0.2 s for five
   minutes: the medians of its 30-second blocks had a quartile spread of
   0.22), so every time a run measures follows the host as much as the
   program.  The benchmark times a fixed piece of work of its own at
   quiet moments spread over the run (no request in flight) and reports
   each time scaled to a host on which that work takes [reference]
   seconds.  The work calls nothing in the program under test, so a
   change to the program cannot move it.  Raw times stay in each run's
   full record. *)

let now = Unix.gettimeofday

(* Allocation of short-lived and retained blocks, hashing, a sort and
   string building, as a server's requests do, in blocks small enough
   to die young.  About 4 ms on a 2-core x86 host. *)
let work () =
  let h = Hashtbl.create 256 in
  for i = 0 to 999 do
    Hashtbl.replace h (Printf.sprintf "k%d" (i * 7919 mod 10007)) (List.init 8 (fun j -> i + j))
  done;
  let a = Array.init 8_000 (fun i -> (i * 7919) mod 8009) in
  Array.sort compare a;
  let b = Buffer.create 16384 in
  Hashtbl.iter
    (fun k v ->
      Buffer.add_string b k;
      Buffer.add_string b (string_of_int (List.fold_left ( + ) a.(List.length v) v)))
    h;
  Digest.string (Buffer.contents b)

let samples : float list ref = ref []

(* Time the work [reps] times; call it when the benchmark has no
   request in flight. *)
let probe ?(reps = 3) () =
  for _ = 1 to reps do
    let t0 = now () in
    ignore (Sys.opaque_identity (work ()));
    samples := (now () -. t0) :: !samples
  done

(* Seconds the work takes on the reference host. *)
let reference = 0.004

(* Multiply a time measured in this run by this to state it on the
   reference host. *)
let scale () = reference /. Load.median !samples
