(* The load generator's vocabulary: request classes and their latency
   samples, connections (remote or in-process), generated payloads, and
   the designer operations every workload is built from. *)

open Ddf
module E = Standard_schemas.E

let schema = Standard_schemas.odyssey
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

(* Latency classes, timed at the client.  [Write]: one mutation.
   [Batch]: one Batch of 32 installs.  [Read]: one pure read.  [Flow]:
   a goal-based flow from start_goal to the run result.  [Refresh]: an
   edit of a netlist followed by a refresh of a result derived from an
   older version. *)
type cls = Write | Batch | Read | Flow | Refresh

let classes = [ Write; Batch; Read; Flow; Refresh ]
let cls_index = function Write -> 0 | Batch -> 1 | Read -> 2 | Flow -> 3 | Refresh -> 4

let cls_name = function
  | Write -> "write" | Batch -> "batch" | Read -> "read" | Flow -> "flow" | Refresh -> "refresh"

type stats = {
  lat : float list array;  (* seconds, per class, newest first *)
  mutable attempted : int; (* requests sent *)
  mutable failed : int;    (* requests answered with an error or lost *)
  mutable errors : string list;
}

let new_stats () =
  { lat = Array.make (List.length classes) []; attempted = 0; failed = 0; errors = [] }

let merge_stats l =
  let s = new_stats () in
  List.iter
    (fun x ->
      Array.iteri (fun i v -> s.lat.(i) <- v @ s.lat.(i)) x.lat;
      s.attempted <- s.attempted + x.attempted;
      s.failed <- s.failed + x.failed;
      s.errors <- x.errors @ s.errors)
    l;
  s

let samples s c = Array.of_list s.lat.(cls_index c)

let reset_stats s =
  Array.fill s.lat 0 (Array.length s.lat) [];
  s.attempted <- 0;
  s.failed <- 0;
  s.errors <- []

(* Nearest-rank quantile of an unsorted sample. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l = quantile (Array.of_list l) 0.5

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Correctness-check failures; any one makes the run incorrect. *)
let check_failures : string list ref = ref []
let check_lock = Mutex.create ()

let check ok fmt =
  Printf.ksprintf
    (fun m ->
      if not ok then begin
        Mutex.lock check_lock;
        check_failures := m :: !check_failures;
        Mutex.unlock check_lock
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* A prior design a session can run again (memoisation hits). *)
type design = {
  d_nl : Store.iid;
  d_netlist : Eda.Netlist.t;
  d_stim : Store.iid;
  d_goal : string;
}

(* A netlist edit chain: [c_result] was derived from the chain's first
   version; refreshing it re-derives it against [c_latest]. *)
type chain = {
  c_root : Store.iid;
  c_result : Store.iid;
  mutable c_latest : Store.iid;
}

type conn = {
  user : string;
  mutable call : Wire.request -> Wire.response;
  rng : Random.State.t;
  erng : Eda.Rng.t;
  stats : stats;
  mutable acked : Store.iid list;  (* every acknowledged install *)
  mutable user_bytes : int;        (* payload bytes of those installs *)
  mutable labels : int;
  mutable payloads : int;
  mutable designs : design list;
  mutable results : Store.iid list;  (* flow results, for reads *)
  mutable chain : chain option;
  mutable flows : int;
  mutable in_calls : float;  (* seconds spent waiting for responses *)
}

let make_conn ~user ~seed call =
  { user; call;
    rng = Random.State.make [| seed; Hashtbl.hash user |];
    erng = Eda.Rng.create (seed * 7919 + Hashtbl.hash user);
    stats = new_stats (); acked = []; user_bytes = 0; labels = 0; payloads = 0;
    designs = []; results = []; chain = None; flows = 0; in_calls = 0. }

(* A remote connection: its own socket, speaking the negotiated codec. *)
let remote ~socket ~user ~seed =
  let c = Client.connect ~user ~retries:2 ~timeout:60. ~socket () in
  (make_conn ~user ~seed (Client.call c), c)

(* A request failed; the designer operation it belongs to is abandoned. *)
exception Op_failed

let call conn req =
  let s = conn.stats in
  s.attempted <- s.attempted + 1;
  let fail m =
    s.failed <- s.failed + 1;
    if List.length s.errors < 5 then s.errors <- m :: s.errors;
    raise Op_failed
  in
  let t0 = now () in
  let answer =
    match Span.with_span ("client." ^ Wire.request_name req) (fun () -> conn.call req) with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  conn.in_calls <- conn.in_calls +. (now () -. t0);
  match answer with
  | Error m -> fail (Wire.request_name req ^ ": " ^ m)
  | Ok (Wire.Error e) -> fail (Wire.request_name req ^ ": " ^ Error.to_string e)
  | Ok (Wire.Ok_batch rs as r) -> (
    match List.find_opt (function Wire.Error _ -> true | _ -> false) rs with
    | Some (Wire.Error e) -> fail ("batch member: " ^ Error.to_string e)
    | _ -> r)
  | Ok r -> r

let unexpected conn what =
  conn.stats.failed <- conn.stats.failed + 1;
  conn.stats.errors <- ("unexpected response to " ^ what) :: conn.stats.errors;
  raise Op_failed

let int_of conn what = function Wire.Ok_int i -> i | _ -> unexpected conn what
let ints_of conn what = function Wire.Ok_ints l -> l | _ -> unexpected conn what
let nodes_of conn what = function Wire.Ok_nodes l -> l | _ -> unexpected conn what

(* Time [f] as one sample of [cls]: the time its requests spent on the
   wire and in the server, plus [late], the time the operation had
   already waited past its due time.  The generator's own work between
   requests (building payloads, checking answers) is not counted.  A
   failed operation counts as missing every latency limit. *)
let timed ?(late = 0.) conn cls f =
  let t0 = conn.in_calls in
  match f () with
  | x ->
    let i = cls_index cls in
    conn.stats.lat.(i) <- (conn.in_calls -. t0 +. late) :: conn.stats.lat.(i);
    x
  | exception Op_failed ->
    let i = cls_index cls in
    conn.stats.lat.(i) <- infinity :: conn.stats.lat.(i);
    raise Op_failed

(* ------------------------------------------------------------------ *)
(* Generated payloads                                                  *)
(* ------------------------------------------------------------------ *)

let vocab = Array.init 64 (Printf.sprintf "kw%02d")

(* 20 broad groups: each holds about 5% of the generated instances. *)
let groups = Array.init 20 (Printf.sprintf "grp%02d")

let pick rng a = a.(Random.State.int rng (Array.length a))
let keywords conn = [ pick conn.rng vocab; pick conn.rng groups ]

let next_label conn =
  conn.labels <- conn.labels + 1;
  Printf.sprintf "pb/%s/%d" conn.user conn.labels

(* Random stimuli whose encoding spans a few tens of bytes to a few KiB,
   so installs fall on both sides of the wire codec's 512 B
   borrowed-slice threshold.  Sizes cycle through fixed classes (1 to 64
   vectors over 1 to 6 inputs), so every seed installs the same bytes;
   the seed draws the vectors. *)
let stimuli_payload conn =
  conn.payloads <- conn.payloads + 1;
  let k = conn.payloads in
  let inputs = List.init (1 + (k mod 6)) (Printf.sprintf "i%d") in
  Codec.value_to_sexp
    (Value.Stimuli (Eda.Stimuli.random ~inputs ~n:(1 lsl (k mod 7)) conn.erng))

(* A few vectors over a few inputs: the small records a populated store
   is made of. *)
let small_payload conn =
  let inputs = List.init (1 + Random.State.int conn.rng 3) (Printf.sprintf "i%d") in
  Codec.value_to_sexp
    (Value.Stimuli
       (Eda.Stimuli.random ~inputs ~n:(1 + Random.State.int conn.rng 4) conn.erng))

let install_req conn ~entity sexp =
  Wire.Install
    { entity; label = next_label conn; keywords = keywords conn; value = sexp }

let note_install conn req iid =
  conn.acked <- iid :: conn.acked;
  match req with
  | Wire.Install { value; _ } ->
    conn.user_bytes <- conn.user_bytes + String.length (Sexp.to_string value)
  | _ -> ()

let install conn ~entity sexp =
  let req = install_req conn ~entity sexp in
  let iid = int_of conn "install" (call conn req) in
  note_install conn req iid;
  iid

(* One Batch of [n] installs; every member must be acknowledged. *)
let batch_install conn ~entity payloads =
  let reqs = List.map (fun p -> install_req conn ~entity p) payloads in
  match call conn (Wire.Batch reqs) with
  | Wire.Ok_batch rs when List.length rs = List.length reqs ->
    List.iter2
      (fun req r ->
        match r with
        | Wire.Ok_int iid -> note_install conn req iid
        | _ -> unexpected conn "batch install")
      reqs rs
  | _ -> unexpected conn "batch"

let annotate_req conn iid =
  Wire.Annotate
    { iid; label = None; comment = Some "reviewed"; keywords = Some (keywords conn) }

let annotate conn iid =
  match call conn (annotate_req conn iid) with
  | Wire.Ok_unit -> ()
  | _ -> unexpected conn "annotate"

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)
(* ------------------------------------------------------------------ *)

(* Tool and option instances the server seeded, looked up once. *)
let catalog : (string, Store.iid) Hashtbl.t = Hashtbl.create 32

let option_entities = [ E.device_models; E.sim_options; E.placement_options ]

let load_catalog conn =
  List.iter
    (fun e ->
      if Schema.is_tool schema e || List.mem e option_entities then
        match
          call conn
            (Wire.Browse { Store.any_filter with Store.f_entities = Some [ e ] })
        with
        | Wire.Ok_rows (r :: _) -> Hashtbl.replace catalog e r.Wire.row_iid
        | _ -> ())
    (Schema.entity_ids schema)

let catalog_iid conn e =
  match Hashtbl.find_opt catalog e with
  | Some i -> i
  | None -> unexpected conn ("catalog entry " ^ e)

(* ------------------------------------------------------------------ *)
(* Designer operations                                                 *)
(* ------------------------------------------------------------------ *)

let goals =
  [| E.performance; E.verification; E.performance_plot; E.switch_performance;
     E.extraction_statistics |]

(* Circuit shapes cycle through fixed sizes, so every seed has the same
   mix of small and large designs; the seed draws their wiring. *)
let random_netlist conn =
  conn.labels <- conn.labels + 1;
  let k = conn.labels in
  Eda.Circuits.random
    ~name:(Printf.sprintf "%s_c%d" conn.user k)
    ~n_inputs:(3 + (k mod 3))
    ~n_gates:(6 + (4 * (k / 3 mod 4)))
    conn.erng

(* A fresh random circuit and its stimuli; [tm] wraps each of the two
   installs (to time them). *)
let new_design ?(tm = fun f -> f ()) conn ~goal =
  let nl = random_netlist conn in
  let d_nl =
    tm (fun () -> install conn ~entity:E.edited_netlist (Codec.value_to_sexp (Value.Netlist nl)))
  in
  let stim =
    if List.length nl.Eda.Netlist.primary_inputs <= 4 then
      Eda.Stimuli.exhaustive nl.Eda.Netlist.primary_inputs
    else Eda.Stimuli.for_netlist ~n:16 nl conn.erng
  in
  let d_stim = tm (fun () -> install conn ~entity:E.stimuli (Codec.value_to_sexp (Value.Stimuli stim))) in
  { d_nl; d_netlist = nl; d_stim; d_goal = goal }

let expandable entity =
  match Schema.construction_rule schema entity with
  | Schema.Constructed _ ->
    (not (Schema.is_subtype schema ~sub:entity ~super:E.netlist))
    && entity <> E.device_models
  | Schema.Abstract _ | Schema.Source -> false

(* Build a goal-based flow for [d] (start_goal, expand every
   constructed leaf, select a source for every leaf) and run it.
   Returns the run's results and the design source they derive from:
   the netlist, or for layout-based goals the installed layout. *)
let flow conn d =
  let root = int_of conn "start_goal" (call conn (Wire.Start_goal d.d_goal)) in
  let rec expand_all () =
    match List.find_opt (fun (_, e) -> expandable e) (nodes_of conn "leaves" (call conn Wire.Leaves)) with
    | Some (nid, _) ->
      ignore (nodes_of conn "expand" (call conn (Wire.Expand nid)));
      expand_all ()
    | None -> ()
  in
  Span.with_span "session.build_flow" expand_all;
  let source = ref None in
  List.iter
    (fun (nid, entity) ->
      let sel =
        if Schema.is_tool schema entity || List.mem entity option_entities then
          Some (catalog_iid conn entity)
        else if Schema.is_subtype schema ~sub:entity ~super:E.netlist then begin
          source := Some d.d_nl;
          Some d.d_nl
        end
        else if entity = E.stimuli then Some d.d_stim
        else if Schema.is_subtype schema ~sub:entity ~super:E.layout then begin
          let l =
            install conn ~entity:E.edited_layout
              (Codec.value_to_sexp (Value.Layout (Eda.Layout.place d.d_netlist)))
          in
          if !source = None then source := Some l;
          Some l
        end
        else None
      in
      match sel with
      | Some iid -> ignore (call conn (Wire.Select (nid, [ iid ])))
      | None -> ())
    (nodes_of conn "leaves" (call conn Wire.Leaves));
  conn.flows <- conn.flows + 1;
  (ints_of conn "run" (call conn (Wire.Run root)), Option.value ~default:d.d_nl !source)

let trace conn iid =
  match call conn (Wire.Trace iid) with
  | Wire.Ok_text s -> s
  | _ -> unexpected conn "trace"

let uses conn iid = ints_of conn "uses" (call conn (Wire.Uses iid))

(* A timed flow followed by the two reads that check it: its result
   has a non-empty derivation trace and is among the uses of its
   netlist. *)
let checked_flow ?late conn d =
  let results, source = timed ?late conn Flow (fun () -> flow conn d) in
  check (results <> []) "flow toward %s on #%d produced nothing" d.d_goal d.d_nl;
  match results with
  | [] -> ()
  | r :: _ ->
    conn.results <- r :: conn.results;
    let t = timed conn Read (fun () -> trace conn r) in
    check (not (contains t "(0 instances")) "empty trace for #%d" r;
    let u = timed conn Read (fun () -> uses conn source) in
    check (List.mem r u) "uses of #%d lacks its flow result #%d" source r

let editor_payload name =
  Codec.value_to_sexp
    (Value.Tool
       (Value.Scripted_netlist_editor
          (Eda.Edit_script.create ~name [ Eda.Edit_script.Rename name ])))

(* One scripted edit of netlist [nl]: returns the new version. *)
let edit conn nl =
  let name = Printf.sprintf "%s_e%d" conn.user (conn.labels + 1) in
  let ed = install conn ~entity:E.netlist_editor (editor_payload name) in
  let root = int_of conn "start_goal" (call conn (Wire.Start_goal E.edited_netlist)) in
  let fresh = nodes_of conn "expand" (call conn (Wire.Expand root)) in
  List.iter
    (fun (nid, entity) ->
      if entity = E.netlist_editor then ignore (call conn (Wire.Select (nid, [ ed ])))
      else if entity = E.netlist then ignore (call conn (Wire.Select (nid, [ nl ]))))
    fresh;
  match ints_of conn "run" (call conn (Wire.Run root)) with
  | v :: _ -> v
  | [] -> unexpected conn "edit run"

(* Edit the chain's newest version, then refresh the result derived
   from its first version; the fresh result must derive from the new
   version. *)
let edit_and_refresh ?late conn =
  match conn.chain with
  | None -> ()
  | Some ch ->
    let v, fresh =
      timed ?late conn Refresh (fun () ->
          let v = edit conn ch.c_latest in
          ch.c_latest <- v;
          match call conn (Wire.Refresh ch.c_result) with
          | Wire.Ok_refresh { fresh; _ } -> (v, fresh)
          | _ -> unexpected conn "refresh")
    in
    let u = timed conn Read (fun () -> uses conn v) in
    check (List.mem fresh u) "refresh of #%d gave #%d, not derived from latest #%d"
      ch.c_result fresh v

(* Set up an edit chain of [len] versions: a base netlist, a result
   derived from it, then [len] edits, each one Batch of select+select+run
   on a reused edit flow (two alternating editors). *)
let make_chain conn ~len =
  let d = new_design conn ~goal:E.performance in
  let result =
    match flow conn d with r :: _, _ -> r | [], _ -> unexpected conn "chain base flow"
  in
  let eds =
    [| install conn ~entity:E.netlist_editor (editor_payload (conn.user ^ "_a"));
       install conn ~entity:E.netlist_editor (editor_payload (conn.user ^ "_b")) |]
  in
  let root = int_of conn "start_goal" (call conn (Wire.Start_goal E.edited_netlist)) in
  let fresh = nodes_of conn "expand" (call conn (Wire.Expand root)) in
  let node e = match List.assoc_opt e (List.map (fun (n, e) -> (e, n)) fresh) with
    | Some n -> n | None -> unexpected conn "edit flow leaf"
  in
  let ed_node = node E.netlist_editor and nl_node = node E.netlist in
  let latest = ref d.d_nl in
  for i = 1 to len do
    match
      call conn
        (Wire.Batch
           [ Wire.Select (ed_node, [ eds.(i mod 2) ]); Wire.Select (nl_node, [ !latest ]);
             Wire.Run root ])
    with
    | Wire.Ok_batch [ _; _; Wire.Ok_ints (v :: _) ] -> latest := v
    | _ -> unexpected conn "chain edit"
  done;
  conn.results <- result :: conn.results;
  conn.chain <- Some { c_root = d.d_nl; c_result = result; c_latest = !latest }

let browse conn filter =
  match call conn (Wire.Browse filter) with
  | Wire.Ok_rows rows -> rows
  | _ -> unexpected conn "browse"

let stat conn =
  match call conn Wire.Stat with Wire.Ok_stat s -> s | _ -> unexpected conn "stat"
