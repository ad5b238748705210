(* Benchmark-side spans for the traced run.

   Spans are recorded around calls the benchmark makes into the
   program's public functions; nothing inside lib/ is instrumented.
   Each span carries its name, start and end, the span that caused it
   and a request id shared by every span of one request.  Spans stay
   in memory until the run ends and are then written as JSON lines of
   Chrome trace events, the input format of `hercules trace-merge`. *)

type t = {
  id : int;
  parent : int;  (* 0 for a root *)
  req : int;     (* id of the root span of the request *)
  tid : int;
  name : string;
  start_us : float;
  end_us : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 1

(* per thread: the stack of open (span id, request id) pairs *)
let open_spans : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8

let now_us () = Unix.gettimeofday () *. 1e6

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record s = locked (fun () -> recorded := s :: !recorded)

(* A finished interval measured by the caller, parented like a span
   opened at this point. *)
let add name ~start_us ~end_us =
  if !enabled then begin
    let tid = Thread.id (Thread.self ()) in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, req =
      match locked (fun () -> Hashtbl.find_opt open_spans tid) with
      | Some ((p, r) :: _) -> (p, r)
      | Some [] | None -> (0, id)
    in
    record { id; parent; req; tid; name; start_us; end_us }
  end

let with_span name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id = Atomic.fetch_and_add next_id 1 in
    let stack =
      locked (fun () ->
          Option.value ~default:[] (Hashtbl.find_opt open_spans tid))
    in
    let parent, req = match stack with (p, r) :: _ -> (p, r) | [] -> (0, id) in
    locked (fun () -> Hashtbl.replace open_spans tid ((id, req) :: stack));
    let start_us = now_us () in
    Fun.protect
      ~finally:(fun () ->
        let end_us = now_us () in
        locked (fun () -> Hashtbl.replace open_spans tid stack);
        record { id; parent; req; tid; name; start_us; end_us })
      f
  end

let all () = locked (fun () -> List.rev !recorded)

let clear () =
  locked (fun () ->
      recorded := [];
      Hashtbl.reset open_spans)

let duration s = s.end_us -. s.start_us

(* Mean duration (us) of the spans called [name]; [None] if there are
   none. *)
let mean_us spans name =
  let n, sum =
    List.fold_left
      (fun (n, sum) s -> if s.name = name then (n + 1, sum +. duration s) else (n, sum))
      (0, 0.) spans
  in
  if n = 0 then None else Some (sum /. float_of_int n)

let count spans name = List.length (List.filter (fun s -> s.name = name) spans)

(* Over the spans whose names satisfy [is_request]: the share of their
   total time that none of their direct children covers.  The children
   of one request run one after another on its thread, so their
   durations do not overlap. *)
let unattributed_share spans ~is_request =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    spans;
  let total, uncovered =
    List.fold_left
      (fun (total, uncovered) s ->
        if is_request s.name then
          let d = duration s in
          let c = Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
          (total +. d, uncovered +. Float.max 0. (d -. c))
        else (total, uncovered))
      (0., 0.) spans
  in
  if total = 0. then 0. else uncovered /. total

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One complete ("X") trace event per line. *)
let write_jsonl path spans =
  let pid = Unix.getpid () in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\": %s, \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": %.3f, \
         \"dur\": %.3f, \"pid\": %d, \"tid\": %d, \"args\": {\"req\": %d, \
         \"span\": %d, \"parent\": %d}}\n"
        (json_string s.name) s.start_us (duration s) pid s.tid s.req s.id s.parent)
    spans;
  close_out oc
