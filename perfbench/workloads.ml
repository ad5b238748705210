(* The two workloads: how each builds its initial state (setup) and
   what traffic it sends for the measured window.

   design_flow      open loop: Poisson designer sessions on 2 connections
   catch_up         the same open loop over a database whose set-up
                    compacted and cemented a long history (the restarts
                    and follower bootstraps after it start from that)

   Each run ends with the same operator steps (restarts, follower
   bootstraps). *)

open Ddf
open Load

type t = Design_flow | Catch_up

let of_string = function
  | "design_flow" -> Some Design_flow
  | "catch_up" -> Some Catch_up
  | _ -> None

let name = function
  | Design_flow -> "design_flow"
  | Catch_up -> "catch_up"

(* Offered rate of the open loops in sessions per second, total over
   both connections: about half the sessions per second the server
   completes on a 2-core host when the two connections run sessions back
   to back.  A fixed rate also fixes the state the window leaves behind,
   so the restarts and bootstraps after it replay the same history on
   every run. *)
let session_rate = 30.

let traffic_users = [| "alice"; "bob" |]

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let prior_designs conn n =
  for i = 0 to n - 1 do
    let d = new_design conn ~goal:goals.(i mod Array.length goals) in
    ignore (flow conn d);
    conn.designs <- d :: conn.designs
  done

(* [installs] small instances in Batches of 32 from one connection. *)
let populate conn ~installs =
  for _ = 1 to installs / 32 do
    batch_install conn ~entity:E.stimuli (List.init 32 (fun _ -> small_payload conn))
  done

(* [n] annotations of the connection's instances in Batches of 32: a
   long journal history over a store that does not grow. *)
let annotate_history conn ~n =
  let owned = Array.of_list conn.acked in
  for _ = 1 to n / 32 do
    match
      call conn
        (Wire.Batch (List.init 32 (fun _ -> annotate_req conn (pick conn.rng owned))))
    with
    | Wire.Ok_batch _ -> ()
    | _ -> unexpected conn "annotation batch"
  done

(* The state every traffic connection starts from: built by a
   connection with the same identity, so every instance it owns carries
   its user.  Sessions need an edit chain (long enough on design_flow
   that latest_version is a visible share of a refresh) and earlier
   designs to re-run. *)
let setup_conn w conn =
  match w with
  | Design_flow ->
    make_chain conn ~len:300;
    prior_designs conn 8
  | Catch_up ->
    make_chain conn ~len:100;
    prior_designs conn 4;
    populate conn ~installs:2048;
    annotate_history conn ~n:4800

let setup w ~socket ~seed =
  Array.map
    (fun user ->
      let conn, c = remote ~socket ~user ~seed in
      if Hashtbl.length catalog = 0 then load_catalog conn;
      setup_conn w conn;
      Client.close c;
      conn)
    traffic_users

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

(* Earlier designs in turn, for re-runs. *)
let next_design conn =
  match conn.designs with
  | [] -> None
  | l -> Some (List.nth l (conn.flows mod List.length l))

let selective_filter conn =
  { Store.any_filter with
    Store.f_entities = Some [ E.stimuli ];
    f_user = Some conn.user;
    f_keywords = [ pick conn.rng vocab ] }

let one_batch conn =
  let ps = List.init 32 (fun _ -> stimuli_payload conn) in
  timed conn Batch (fun () -> batch_install conn ~entity:E.stimuli ps)

(* A designer session (the paper's Figs. 9-11): a new design or a re-run
   of an earlier one, a goal-based flow, its trace and uses, an
   annotation, an edit of the connection's netlist chain with a refresh
   of the result derived from it, optionally a tool batch, and two
   reads. *)
let session ?(late = 0.) conn (goal, rerun, batch) =
  let late = ref late in
  let take () =
    let l = !late in
    late := 0.;
    l
  in
  let d =
    match (rerun, next_design conn) with
    | true, Some d -> d
    | _ ->
      let d = new_design ~tm:(fun f -> timed ~late:(take ()) conn Write f) conn ~goal in
      conn.designs <- d :: conn.designs;
      d
  in
  checked_flow ~late:(take ()) conn d;
  (match conn.results with
  | r :: _ -> timed conn Write (fun () -> annotate conn r)
  | [] -> ());
  edit_and_refresh conn;
  if batch then one_batch conn;
  ignore (timed conn Read (fun () -> browse conn (selective_filter conn)));
  ignore (timed conn Read (fun () -> stat conn))

(* A deterministic share of goals, re-runs (1 in 4) and tool batches
   (1 in 4), shuffled by seed: every seed sends the same mix. *)
let session_plan rng n =
  let plan =
    Array.init n (fun i -> (goals.(i mod Array.length goals), i mod 4 = 3, i mod 4 = 1))
  in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = plan.(i) in
    plan.(i) <- plan.(j);
    plan.(j) <- x
  done;
  plan

let guarded f = try f () with Op_failed -> ()

(* Generator health of an open loop: how late the generator itself woke
   for sessions that found their connection idle, in seconds. *)
type health = { mutable wake_lag : float list; mutable backlog_max : float }

let health = { wake_lag = []; backlog_max = 0. }
let health_lock = Mutex.create ()

let note_start ~due ~idle =
  let late = now () -. due in
  Mutex.lock health_lock;
  if idle then health.wake_lag <- late :: health.wake_lag
  else health.backlog_max <- Float.max health.backlog_max late;
  Mutex.unlock health_lock;
  late

(* Open loop: [n] sessions with Poisson arrivals over [seconds] (the
   arrival times of a Poisson process given its count are uniform), dealt
   alternately to the connections; each session is timed from its due
   time. *)
let open_loop conns ~seconds ~seed =
  let rng = Random.State.make [| seed; 17 |] in
  let n = int_of_float (session_rate *. seconds) in
  let due = Array.init n (fun _ -> Random.State.float rng seconds) in
  Array.sort compare due;
  let plan = session_plan rng n in
  let t0 = now () +. 0.01 in
  let worker k conn =
    let i = ref k in
    while !i < n do
      let at = t0 +. due.(!i) in
      let idle = now () < at in
      let rec wait () =
        let d = at -. now () in
        if d > 0. then begin
          Unix.sleepf d;
          wait ()
        end
      in
      wait ();
      let late = note_start ~due:at ~idle in
      guarded (fun () -> session ~late conn plan.(!i));
      i := !i + Array.length conns
    done
  in
  let workers = Array.mapi (fun k c -> Domain.spawn (fun () -> worker k c)) conns in
  Array.iter Domain.join workers;
  now () -. t0

(* Offered rate recorded with the result. *)
let offered = Printf.sprintf "%.0f sessions/s Poisson on 2 connections" session_rate
