(* Fault injection: crash-point sweeps over the journal and the
   server proving the robustness contract — acked writes survive a
   crash, un-acked writes never half-apply, shed requests are never
   journaled, failures come back typed with an honest retry contract,
   and the client classifies them correctly. *)

open Ddf
module E = Standard_schemas.E

(* Every test disarms the global registry on the way out so an armed
   point can never leak into an unrelated test. *)
let with_faults f = Fun.protect ~finally:Fault.reset f

let stim_value = Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])
let stim_sexp = Codec.value_to_sexp stim_value

let only entity =
  { Store.f_entities = Some [ entity ]; f_user = None; f_from = None;
    f_to = None; f_keywords = []; f_text = None }

let check_code what want e =
  Alcotest.(check string) what want (Error.code_to_string e.Error.code)

(* ------------------------------------------------------------------ *)
(* The DDF_FAULT grammar                                               *)
(* ------------------------------------------------------------------ *)

let grammar =
  [
    Alcotest.test_case "configure arms skip windows and firing counts"
      `Quick (fun () ->
        with_faults @@ fun () ->
        Fault.configure "journal.fsync=fail@1x2;wire.send=torn:10";
        (* the first hit falls in the @1 skip window *)
        Fault.fire "journal.fsync";
        (match Fault.fire "journal.fsync" with
        | () -> Alcotest.fail "expected an injection"
        | exception Fault.Injected "journal.fsync" -> ());
        (match Fault.fire "journal.fsync" with
        | () -> Alcotest.fail "expected a second injection"
        | exception Fault.Injected _ -> ());
        (* x2 exhausted: the point is quiet again *)
        Fault.fire "journal.fsync";
        Alcotest.(check int) "fired twice" 2 (Fault.fired "journal.fsync");
        (match Fault.check "wire.send" with
        | Some (Fault.Torn 10) -> ()
        | _ -> Alcotest.fail "expected Torn 10");
        Fault.reset ();
        Fault.fire "journal.fsync" (* disarmed: a no-op *));
    Alcotest.test_case "a malformed spec is refused" `Quick (fun () ->
        with_faults @@ fun () ->
        match Fault.configure "journal.fsync=explode" with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Journal crash points                                                *)
(* ------------------------------------------------------------------ *)

let journal_faults =
  [
    Alcotest.test_case "a torn frame fail-stops now and truncates on reopen"
      `Quick (fun () ->
        with_faults @@ fun () ->
        Test_journal.with_dir @@ fun dir ->
        let j =
          Journal.open_ ~sync_mode:Journal.Always ~dir
            Standard_schemas.odyssey
        in
        let ctx = Journal.context j in
        ignore (Engine.install ctx ~entity:E.stimuli ~label:"acked" stim_value);
        let acked = Test_journal.state ctx in
        (* the next frame reaches the disk 5 bytes long — a crash
           mid-append *)
        Fault.arm "journal.torn_write" (Fault.Torn 5);
        (match Engine.install ctx ~entity:E.stimuli ~label:"torn" stim_value with
        | _ -> Alcotest.fail "expected an injected torn write"
        | exception Fault.Injected "journal.torn_write" -> ());
        Alcotest.(check int) "fired once" 1 (Fault.fired "journal.torn_write");
        (* fail-stop: the journal refuses every later mutation, so the
           torn frame can never be buried under good ones *)
        Alcotest.(check bool) "poisoned" true (Journal.failed j <> None);
        (match Engine.install ctx ~entity:E.stimuli ~label:"after" stim_value with
        | _ -> Alcotest.fail "expected a fail-stop refusal"
        | exception Journal.Journal_error e ->
          check_code "unavailable" "unavailable" e;
          Alcotest.(check bool) "names the fail-stop" true
            (Util.contains (Error.message e) "fail-stop"));
        Journal.close j;
        (* crash recovery: the torn tail is dropped, every acked entry
           replays *)
        let j2 = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check bool) "torn tail truncated" true
          (Journal.truncated_on_open j2 > 0);
        Alcotest.(check string) "acked state replays" acked
          (Test_journal.state (Journal.context j2));
        Alcotest.(check bool) "reopened journal is healthy" true
          (Journal.failed j2 = None);
        Journal.close j2);
    Alcotest.test_case "an fsync failure fail-stops the journal" `Quick
      (fun () ->
        with_faults @@ fun () ->
        Test_journal.with_dir @@ fun dir ->
        let j =
          Journal.open_ ~sync_mode:Journal.Always ~dir
            Standard_schemas.odyssey
        in
        let ctx = Journal.context j in
        ignore (Engine.install ctx ~entity:E.stimuli ~label:"pre" stim_value);
        Fault.arm "journal.fsync" Fault.Fail;
        (match Engine.install ctx ~entity:E.stimuli ~label:"boom" stim_value with
        | _ -> Alcotest.fail "expected an injected fsync failure"
        | exception Fault.Injected "journal.fsync" -> ());
        (match Journal.sync j with
        | _ -> Alcotest.fail "expected a fail-stop refusal"
        | exception Journal.Journal_error e ->
          check_code "unavailable" "unavailable" e);
        Journal.close j;
        (* reopening clears the fail-stop and the acked prefix is
           intact; the interrupted entry's durability was never
           acknowledged either way *)
        let j2 = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check bool) "healthy after reopen" true
          (Journal.failed j2 = None);
        Alcotest.(check bool) "acked entry replayed" true
          (Util.contains (Test_journal.state (Journal.context j2)) "pre");
        ignore
          (Engine.install (Journal.context j2) ~entity:E.stimuli
             ~label:"again" stim_value);
        Journal.close j2);
  ]

(* ------------------------------------------------------------------ *)
(* Background compaction crash points                                  *)
(* ------------------------------------------------------------------ *)

(* A crash image of a database directory: its files as they are now,
   which is what a power cut leaves once every write reached the OS.
   A file that vanishes mid-copy (a tmp being removed) is left out,
   like a crash a moment later. *)
let rec copy_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let s = Filename.concat src name and d = Filename.concat dst name in
      match Sys.is_directory s with
      | true -> copy_tree s d
      | false -> ( try Util.copy_file s d with Sys_error _ -> ())
      | exception Sys_error _ -> ())
    (Sys.readdir src)

(* Level a follower with its primary, as its replication loop does. *)
let rec catch_up p f =
  match Journal.entries_since p (Journal.seq f) with
  | Journal.Frames [] -> ()
  | Journal.Frames frames ->
    List.iter (fun (seq, payload) -> Journal.apply f ~seq payload) frames;
    catch_up p f
  | Journal.Snapshot_needed -> Alcotest.fail "the follower fell behind the base"

(* Each step of a compaction, and what the sweep does there: [Fail]
   kills that step (the writer's own steps fail-stop the journal),
   [Delay] holds the second domain in it while the writer goes on
   appending and syncing.  [after] skips that many earlier hits — the
   first directory fsync is the rotation's, the second the install's. *)
let crash_steps =
  [ ("segment rotation", "journal.rotate", Fault.Fail, 0);
    ("rotation directory fsync", "journal.dir_fsync", Fault.Fail, 0);
    ("snapshot tmp write held", "journal.snapshot_write", Fault.Delay 0.5, 0);
    ("snapshot tmp write fails", "journal.snapshot_write", Fault.Fail, 0);
    ("snapshot rename held", "journal.snapshot_rename", Fault.Delay 0.5, 0);
    ("install directory fsync held", "journal.dir_fsync", Fault.Delay 0.5, 1);
    ("install directory fsync fails", "journal.dir_fsync", Fault.Fail, 1);
    ("segment deletion", "journal.segment_delete", Fault.Fail, 0) ]

(* Poll [cond] for up to 10 s. *)
let wait_for what cond =
  let give_up = Unix.gettimeofday () +. 10.0 in
  while not (cond ()) do
    if Unix.gettimeofday () > give_up then Alcotest.failf "timed out: %s" what;
    Thread.delay 0.001
  done

let crash_at ~cement (what, point, action, after) =
  with_faults @@ fun () ->
  Test_journal.with_dir @@ fun root ->
  Unix.mkdir root 0o755;
  let open_ name =
    Journal.open_ ~cement ~compact_every:6 ~dir:(Filename.concat root name)
      Standard_schemas.odyssey
  in
  let p = open_ "p" and f = open_ "f" in
  let n = ref 0 in
  let write k =
    for _ = 1 to k do
      incr n;
      ignore
        (Engine.install (Journal.context p) ~entity:E.stimuli
           ~label:(Printf.sprintf "e%d" !n) stim_value)
    done;
    Journal.sync p;
    catch_up p f
  in
  write 8;
  let pinned = Journal.seq p in
  Fault.arm ~after point action;
  ignore (Journal.maybe_compact p : bool);
  (match action with
  | Fault.Delay _ -> wait_for what (fun () -> Fault.fired point > 0)
  | Fault.Fail | Fault.Torn _ -> ());
  if point = "journal.segment_delete" then begin
    (* the deletion runs when the writer settles the finished write *)
    let installed () =
      let seq, fd = Journal.pin_snapshot p in
      Unix.close fd;
      seq = pinned
    in
    wait_for what (fun () ->
        Sys.file_exists (Journal.snapshot_file p) && installed ());
    Thread.delay 0.01;
    ignore (Journal.maybe_compact p : bool);
    Alcotest.(check int) (what ^ ": fired") 1 (Fault.fired point)
  end;
  (* writes acknowledged while the step is in flight, or after it
     failed, unless it fail-stopped the journal *)
  if Journal.failed p = None then write 3;
  let synced = Journal.seq p in
  copy_tree (Filename.concat root "p") (Filename.concat root "image");
  let r = open_ "image" in
  let label = Printf.sprintf "%s (cement %b)" what cement in
  Alcotest.(check int) (label ^ ": exact seq") synced (Journal.seq r);
  Alcotest.(check int) (label ^ ": follower seq") synced (Journal.seq f);
  Alcotest.(check string) (label ^ ": fingerprint")
    (Sync.fingerprint (Journal.context f))
    (Sync.fingerprint (Journal.context r));
  Alcotest.(check (list int)) (label ^ ": segment seqnos")
    (List.init (synced - Journal.base_seq r) (fun i -> Journal.base_seq r + i + 1))
    (List.map fst (Journal.digest r));
  (* the reopened image journals on the same seqno line *)
  ignore (Engine.install (Journal.context r) ~entity:E.stimuli ~label:"next" stim_value);
  (match Journal.entries_since r synced with
  | Journal.Frames [ (s, _) ] -> Alcotest.(check int) (label ^ ": next") (synced + 1) s
  | _ -> Alcotest.failf "%s: expected one entry past %d" label synced);
  Journal.close r;
  Journal.close p;
  Journal.close f

let compaction_crashes =
  [ Alcotest.test_case "every compaction step is crash-safe" `Quick (fun () ->
        List.iter
          (fun cement -> List.iter (crash_at ~cement) crash_steps)
          [ true; false ]) ]

(* ------------------------------------------------------------------ *)
(* Server overload and deadlines                                       *)
(* ------------------------------------------------------------------ *)

let shedding =
  [
    Alcotest.test_case
      "a full write queue sheds typed and shed writes never journal" `Slow
      (fun () ->
        with_faults @@ fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed:Test_server.seed ~max_queue:2 ~db:dir ~socket
            Standard_schemas.odyssey
        in
        let n = 8 in
        let outcomes = Array.make n (Ok ()) in
        (* stall the writer (a slow disk) so the admission queue fills
           behind the job it is holding *)
        Fault.arm "server.writer_stall" (Fault.Delay 1.0);
        let trigger =
          Thread.create
            (fun () ->
              Client.with_client ~user:"trigger" ~socket @@ fun c ->
              ignore
                (Client.install c ~entity:E.stimuli ~label:"trigger"
                   stim_sexp))
            ()
        in
        Thread.delay 0.2 (* let the writer pick it up and stall *);
        let workers =
          List.init n (fun i ->
              Thread.create
                (fun () ->
                  outcomes.(i) <-
                    (Client.with_client ~user:(Printf.sprintf "w%d" i) ~socket
                     @@ fun c ->
                     match
                       Client.install c ~entity:E.stimuli
                         ~label:(Printf.sprintf "w%d" i) stim_sexp
                     with
                     | _ -> Ok ()
                     | exception Client.Client_error e -> Error e))
                ())
        in
        List.iter Thread.join workers;
        Thread.join trigger;
        let oks, sheds =
          Array.fold_left
            (fun (oks, sheds) -> function
              | Ok () -> (oks + 1, sheds)
              | Error e -> (oks, e :: sheds))
            (0, []) outcomes
        in
        Alcotest.(check bool) "someone was shed" true (sheds <> []);
        List.iter
          (fun e ->
            check_code "overloaded" "overloaded" e;
            Alcotest.(check bool) "shed is retryable" true e.Error.retryable;
            Alcotest.(check bool) "carries a backoff hint" true
              (e.Error.retry_after <> None))
          sheds;
        Server.stop t;
        Server.wait t;
        (* exactly the acked writes are on disk: a shed request was
           refused at admission, before anything could journal *)
        let t2 = Server.start ~db:dir ~socket Standard_schemas.odyssey in
        Client.with_client ~socket (fun c ->
            Alcotest.(check int) "acked writes replay, shed writes do not"
              (oks + 1)
              (List.length (Client.browse c (only E.stimuli))));
        Server.stop t2;
        Server.wait t2);
    Alcotest.test_case "a mutation past its deadline is dropped in the queue"
      `Slow (fun () ->
        with_faults @@ fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed:Test_server.seed ~db:dir ~socket
            Standard_schemas.odyssey
        in
        Fault.arm "server.writer_stall" (Fault.Delay 0.6);
        let trigger =
          Thread.create
            (fun () ->
              Client.with_client ~user:"trigger" ~socket @@ fun c ->
              ignore
                (Client.install c ~entity:E.stimuli ~label:"trigger"
                   stim_sexp))
            ()
        in
        Thread.delay 0.2;
        (* a 50ms budget spent entirely in the queue behind the stall;
           the retryable Timeout cannot be resent — the budget is gone *)
        (Client.with_client ~user:"hasty" ~deadline:0.05 ~retries:2 ~socket
         @@ fun c ->
         match Client.install c ~entity:E.stimuli ~label:"late" stim_sexp with
         | _ -> Alcotest.fail "expected a deadline miss"
         | exception Client.Client_error e ->
           check_code "timeout" "timeout" e;
           Alcotest.(check bool) "blames the deadline" true
             (Util.contains (Error.message e) "deadline"));
        Thread.join trigger;
        Server.stop t;
        Server.wait t;
        let t2 = Server.start ~db:dir ~socket Standard_schemas.odyssey in
        Client.with_client ~socket (fun c ->
            Alcotest.(check int) "the expired mutation never journaled" 1
              (List.length (Client.browse c (only E.stimuli))));
        Server.stop t2;
        Server.wait t2);
    Alcotest.test_case "an already-expired deadline is shed before dispatch"
      `Quick (fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed:Test_server.seed ~db:dir ~socket
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            Server.stop t;
            Server.wait t)
          (fun () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.connect fd (Unix.ADDR_UNIX socket);
                (* a hand-rolled peer that sets its own deadline
                   header, zero included *)
                let rpc ?deadline_ms req =
                  Wire.send_request ?deadline_ms fd req;
                  match Wire.recv_response fd with
                  | Some (resp, _) -> resp
                  | None -> Alcotest.fail "connection dropped"
                in
                (match
                   rpc
                     (Wire.Hello
                        { user = "raw"; version = Wire.protocol_version })
                 with
                | Wire.Ok_unit -> ()
                | _ -> Alcotest.fail "hello refused");
                (* a zero-budget frame is expired by the time it parses *)
                (match rpc ~deadline_ms:0 Wire.Ping with
                | Wire.Error e ->
                  check_code "timeout" "timeout" e;
                  Alcotest.(check bool) "blames the deadline" true
                    (Util.contains (Error.message e) "deadline")
                | _ -> Alcotest.fail "expected a pre-dispatch shed");
                (* shedding left the connection and the server healthy *)
                match rpc Wire.Ping with
                | Wire.Ok_unit -> ()
                | _ -> Alcotest.fail "connection no longer serves")));
  ]

(* ------------------------------------------------------------------ *)
(* Client classification                                               *)
(* ------------------------------------------------------------------ *)

let classification =
  [
    Alcotest.test_case
      "a connection lost after send is ambiguous for mutations" `Quick
      (fun () ->
        Test_journal.with_dir @@ fun dir ->
        Unix.mkdir dir 0o755;
        let socket = Filename.concat dir "fake.sock" in
        let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind srv (Unix.ADDR_UNIX socket);
        Unix.listen srv 1;
        (* a server that welcomes the client, swallows one request
           whole, then dies without answering: the mutation was fully
           sent, so its fate is unknowable *)
        let fake =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept srv in
              (match Wire.recv_request fd with
              | Some _ -> Wire.send_response fd Wire.Ok_unit
              | None -> ());
              ignore (Wire.recv_request fd);
              Unix.close fd)
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            Thread.join fake;
            Unix.close srv)
          (fun () ->
            let c = Client.connect ~retries:3 ~socket () in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                match
                  Client.install c ~entity:E.stimuli ~label:"maybe" stim_sexp
                with
                | _ -> Alcotest.fail "expected `Ambiguous_commit"
                | exception Client.Client_error e ->
                  (* retries:3, yet never resent: a resend could
                     double-apply a write that did commit *)
                  check_code "ambiguous-commit" "ambiguous-commit" e;
                  Alcotest.(check bool) "not retryable" false
                    e.Error.retryable)));
    Alcotest.test_case "a torn send is a safe retry, applied exactly once"
      `Quick (fun () ->
        with_faults @@ fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed:Test_server.seed ~db:dir ~socket
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            Server.stop t;
            Server.wait t)
          (fun () ->
            Client.with_client ~retries:2 ~socket @@ fun c ->
            Client.ping c (* dial and hello before arming the fault *);
            (* the next frame dies 10 bytes in — a mid-frame disconnect.
               The request never fully left, so resending a mutation is
               safe, and the client does it transparently *)
            Fault.arm "wire.send" (Fault.Torn 10);
            ignore
              (Client.install c ~entity:E.stimuli ~label:"torn-send"
                 stim_sexp);
            Alcotest.(check int) "the fault fired" 1 (Fault.fired "wire.send");
            Alcotest.(check int) "applied exactly once" 1
              (List.length (Client.browse c (only E.stimuli)))));
    Alcotest.test_case "a pool surfaces `Ambiguous_commit, never resends it"
      `Quick (fun () ->
        Test_journal.with_dir @@ fun dir ->
        Unix.mkdir dir 0o755;
        let socket = Filename.concat dir "fake.sock" in
        let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind srv (Unix.ADDR_UNIX socket);
        Unix.listen srv 1;
        (* a fake primary: answers the pool's probe (hello + stat),
           swallows the next request whole, then dies *)
        let fake =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept srv in
              let rec serve () =
                match Wire.recv_request fd with
                | None -> ()
                | Some (req, _) -> (
                  match req with
                  | Wire.Hello _ ->
                    Wire.send_response fd Wire.Ok_unit;
                    serve ()
                  | Wire.Stat ->
                    Wire.send_response fd
                      (Wire.Ok_stat
                         { st_role = "primary"; st_seq = 0; st_clock = 0;
                           st_instances = 0; st_records = 0;
                           st_store_tick = 0; st_history_tick = 0;
                           st_uptime_s = 0.0 });
                    serve ()
                  | _ -> () (* the mutation: received whole, unanswered *))
              in
              serve ();
              Unix.close fd)
            ()
        in
        Fun.protect
          ~finally:(fun () ->
            Thread.join fake;
            Unix.close srv)
          (fun () ->
            let pool = Client.Pool.connect ~user:"amb" [ socket ] in
            Fun.protect
              ~finally:(fun () -> Client.Pool.close pool)
              (fun () ->
                match
                  Client.Pool.write pool (fun c ->
                      Client.install c ~entity:E.stimuli ~label:"maybe"
                        stim_sexp)
                with
                | _ -> Alcotest.fail "expected `Ambiguous_commit"
                | exception Client.Client_error e ->
                  (* not `Unavailable: the pool must not re-probe and
                     resend a write whose fate is unknown *)
                  check_code "ambiguous-commit" "ambiguous-commit" e)));
    Alcotest.test_case "result-typed variants route on the code" `Quick
      (fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed:Test_server.seed ~db:dir ~socket
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            Server.stop t;
            Server.wait t)
          (fun () ->
            Client.with_client ~socket @@ fun c ->
            (match Client.ping_r c with
            | Ok () -> ()
            | Error e -> Alcotest.failf "ping: %s" (Error.to_string e));
            match Client.trace_r c 999 with
            | Ok _ -> Alcotest.fail "expected an error result"
            | Error e ->
              Alcotest.(check bool) "mentions the instance" true
                (Util.contains (Error.message e) "999")));
  ]

(* ------------------------------------------------------------------ *)
(* Degraded pool and idempotent lifecycle                              *)
(* ------------------------------------------------------------------ *)

let lifecycle =
  [
    Alcotest.test_case "a pool with no primary degrades to follower reads"
      `Slow (fun () ->
        Test_replica.with_pair @@ fun ~p ~fl:_ ~pdir:_ ~fdir:_ ~psock ~fsock ->
        let pool = Client.Pool.connect ~user:"deg" [ psock; fsock ] in
        Fun.protect
          ~finally:(fun () -> Client.Pool.close pool)
          (fun () ->
            Alcotest.(check bool) "healthy at first" false
              (Client.Pool.degraded pool);
            (* the primary dies; the write re-probes, finds nobody
               writable, fails fast and degrades the pool *)
            Server.stop p;
            Server.wait p;
            (match
               Client.Pool.write pool (fun c ->
                   Client.install c ~entity:E.stimuli ~label:"w" stim_sexp)
             with
            | _ -> Alcotest.fail "expected `Unavailable"
            | exception Client.Client_error e ->
              check_code "unavailable" "unavailable" e;
              Alcotest.(check bool) "final: do not hammer a dead set" false
                e.Error.retryable);
            Alcotest.(check bool) "degraded" true (Client.Pool.degraded pool);
            (* reads keep flowing to the surviving follower *)
            Alcotest.(check string) "served by the follower" "follower"
              (Client.Pool.read pool (fun c ->
                   (Client.stat c).Wire.st_role))));
    Alcotest.test_case "close, shutdown and stop are idempotent" `Quick
      (fun () ->
        Test_journal.with_dir @@ fun dir ->
        let socket = Filename.concat dir "s.sock" in
        let t =
          Server.start ~seed:Test_server.seed ~db:dir ~socket
            Standard_schemas.odyssey
        in
        let c = Client.connect ~socket () in
        Client.ping c;
        Client.close c;
        Client.close c (* a second close is a no-op *);
        Alcotest.(check bool) "closed" true (Client.closed c);
        Client.shutdown c (* a no-op on a closed client *);
        Server.stop t;
        Server.stop t (* a second stop is a no-op *);
        Server.wait t;
        Server.wait t (* and wait can be called again *));
  ]

let suite =
  [
    ("fault.grammar", grammar);
    ("fault.journal", journal_faults);
    ("fault.compaction", compaction_crashes);
    ("fault.shedding", shedding);
    ("fault.classification", classification);
    ("fault.lifecycle", lifecycle);
  ]
