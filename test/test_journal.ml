(* The write-ahead journal: durable replay, torn-tail crash recovery,
   snapshot compaction. *)

open Ddf
module E = Standard_schemas.E

let dir_counter = ref 0

(* A fresh scratch database directory per test. *)
let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-journal-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* The whole durable surface in one comparable string: instances with
   meta-data and payloads, history records, the clock.  The session
   [user] header is per-connection identity, not durable state (a
   server rebinds it on every mutation), so it is normalized out. *)
let state ctx =
  Persist.save (Session.of_context ctx)
  |> String.split_on_char '\n'
  |> List.map (fun line ->
         if String.length line >= 7 && String.sub line 0 7 = " (user " then
           " (user _)"
         else line)
  |> String.concat "\n"

(* Drive a journaled context through the kind of work a session does:
   tool installs (via the workspace wrapper), netlist installs, edit
   tasks through the engine, annotations. Returns the version chain. *)
let activity ?(seed = 7) ctx n =
  let w = Workspace.of_session (Session.of_context ctx) in
  let v0 =
    Workspace.install_netlist w
      (Eda.Circuits.random ~n_inputs:3 ~n_gates:6 (Eda.Rng.create seed))
  in
  let versions = ref [ v0 ] in
  for i = 1 to n do
    let base = List.hd !versions in
    let es =
      Workspace.install_editor_session w
        (Eda.Edit_script.create
           ~name:(Printf.sprintf "e%d" i)
           [ Eda.Edit_script.Rename (Printf.sprintf "v%d" i) ])
    in
    let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
    let g, fresh = Task_graph.expand g out in
    let editor, src =
      match fresh with [ a; b ] -> (a, b) | _ -> assert false
    in
    let run =
      Engine.execute (Workspace.ctx w) g
        ~bindings:[ (editor, es); (src, base) ]
    in
    versions := Engine.result_of run out :: !versions
  done;
  !versions

let reopened_equals dir reference =
  let j = Journal.open_ ~dir Standard_schemas.odyssey in
  let s = state (Journal.context j) in
  Journal.close j;
  Alcotest.(check string) "replayed state" reference s

let basics =
  [
    Alcotest.test_case "replay reconstructs the context" `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 5);
        Store.annotate ctx.Engine.store 1 ~label:"renamed" ~comment:"note"
          ~keywords:[ "k1"; "k2" ] ();
        let before = state ctx in
        Journal.close j;
        reopened_equals dir before);
    Alcotest.test_case "replay restores ticks and clock" `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 3);
        let st = Store.tick ctx.Engine.store
        and ht = History.tick ctx.Engine.history
        and clock = ctx.Engine.clock in
        Journal.close j;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        Alcotest.(check int) "store tick" st (Store.tick ctx.Engine.store);
        Alcotest.(check int) "history tick" ht (History.tick ctx.Engine.history);
        Alcotest.(check int) "clock" clock ctx.Engine.clock;
        (* and new ids continue densely after the replay *)
        let iid =
          Engine.install ctx ~entity:E.stimuli ~label:"more"
            (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]))
        in
        Alcotest.(check int) "next iid" st iid;
        Journal.close j);
    Alcotest.test_case "abandoned journal (crash) still replays" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        (* no [close], no fsync: mimic a killed process.  Appends are
           flushed per entry, so everything written must replay. *)
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 4);
        let before = state ctx in
        reopened_equals dir before);
  ]

let torn_tail =
  [
    Alcotest.test_case "torn tail is truncated, prefix survives" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 3);
        let before = state ctx in
        Journal.close j;
        (* half an entry at the end: a frame header promising more
           bytes than exist *)
        let wal = Filename.concat dir "wal.ddf" in
        let oc = open_out_gen [ Open_append ] 0o644 wal in
        output_string oc "J1 5000 0123456789abcdef0123456789abcdef\n(put";
        close_out oc;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check bool) "tail dropped" true (Journal.truncated_on_open j > 0);
        Alcotest.(check string) "prefix state" before (state (Journal.context j));
        (* the journal stays writable after recovery *)
        ignore
          (Engine.install (Journal.context j) ~entity:E.stimuli ~label:"after"
             (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])));
        let after = state (Journal.context j) in
        Journal.close j;
        reopened_equals dir after);
    Alcotest.test_case "corrupted checksum in the tail is dropped" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore
          (Engine.install ctx ~entity:E.stimuli ~label:"one"
             (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])));
        let before = state ctx in
        let wal = Filename.concat dir "wal.ddf" in
        let size = (Unix.stat wal).Unix.st_size in
        ignore
          (Engine.install ctx ~entity:E.stimuli ~label:"two"
             (Value.Stimuli (Eda.Stimuli.exhaustive [ "b" ])));
        Journal.close j;
        (* flip one payload byte of the last entry *)
        let fd = Unix.openfile wal [ Unix.O_WRONLY ] 0 in
        ignore (Unix.lseek fd (size + 40) Unix.SEEK_SET);
        ignore (Unix.write fd (Bytes.of_string "#") 0 1);
        Unix.close fd;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check bool) "tail dropped" true (Journal.truncated_on_open j > 0);
        Alcotest.(check string) "prefix state" before (state (Journal.context j));
        Journal.close j);
  ]

let compaction =
  [
    Alcotest.test_case "compact folds the log into the snapshot" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 4);
        let before = state ctx in
        Journal.compact j;
        Alcotest.(check int) "log emptied" 0 (Journal.entries_since_snapshot j);
        Alcotest.(check bool) "snapshot exists" true
          (Sys.file_exists (Filename.concat dir "snapshot.ddf"));
        (* post-compaction writes land in the fresh log *)
        ignore (activity ~seed:99 ctx 2);
        let after = state ctx in
        Alcotest.(check bool) "state advanced" true (before <> after);
        Journal.close j;
        reopened_equals dir after);
    Alcotest.test_case "maybe_compact honors the threshold" `Quick (fun () ->
        with_dir @@ fun dir ->
        let j =
          Journal.open_ ~compact_every:5 ~dir Standard_schemas.odyssey
        in
        let ctx = Journal.context j in
        ignore (activity ctx 6);
        (* activity wrote well over 5 entries *)
        Alcotest.(check bool) "over threshold" true
          (Journal.entries_since_snapshot j >= 5);
        Alcotest.(check bool) "compacted" true (Journal.maybe_compact j);
        Alcotest.(check int) "log emptied" 0 (Journal.entries_since_snapshot j);
        Alcotest.(check bool) "below threshold now" false
          (Journal.maybe_compact j);
        let final = state ctx in
        Journal.close j;
        reopened_equals dir final);
    Alcotest.test_case "torn snapshot write (.tmp) is ignored on open" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        ignore (activity (Journal.context j) 3);
        Journal.compact j;
        let final = state (Journal.context j) in
        Journal.close j;
        (* a crash mid-compaction leaves a half-written temp file; the
           atomic rename never happened, so replay must not read it *)
        let oc =
          open_out (Filename.concat dir "snapshot.ddf.tmp")
        in
        output_string oc "(store (instances (garbage";
        close_out oc;
        reopened_equals dir final);
    Alcotest.test_case "entries_since at exactly base_seq is the cutover"
      `Quick (fun () ->
        (* the snapshot covers [1..base_seq]: a follower that has
           applied exactly base_seq entries needs Frames [], one entry
           fewer needs a snapshot resync *)
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (activity ctx 2);
        Journal.compact j;
        let base = Journal.base_seq j in
        Alcotest.(check bool) "snapshot base advanced" true (base > 0);
        (match Journal.entries_since j base with
        | Journal.Frames [] -> ()
        | Journal.Frames fs ->
          Alcotest.failf "expected no frames, got %d" (List.length fs)
        | Journal.Snapshot_needed ->
          Alcotest.fail "base_seq itself must not demand a snapshot");
        (match Journal.entries_since j (base - 1) with
        | Journal.Snapshot_needed -> ()
        | Journal.Frames _ ->
          Alcotest.fail "pre-base seqnos were compacted away");
        (* a post-compaction append is served from the fresh wal,
           numbered base+1 *)
        ignore
          (Engine.install ctx ~entity:E.stimuli ~label:"tail"
             (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])));
        (match Journal.entries_since j base with
        | Journal.Frames [ (s, _) ] ->
          Alcotest.(check int) "first wal frame is base+1" (base + 1) s
        | Journal.Frames fs ->
          Alcotest.failf "expected one frame, got %d" (List.length fs)
        | Journal.Snapshot_needed ->
          Alcotest.fail "base_seq itself must not demand a snapshot");
        (* the sync reader no longer hits a wall at the base: cemented
           frames are served by positioned reads, continuing into the
           wal without a seam *)
        (match Journal.frames j ~after:(base - 1) ~limit:10 with
        | (s0, _, _) :: _ as fs ->
          Alcotest.(check int) "cold read starts at base" base s0;
          Alcotest.(check int) "cold read continues into the wal" (base + 1)
            (match List.rev fs with (s, _, _) :: _ -> s | [] -> 0)
        | [] -> Alcotest.fail "cemented frames must be served");
        Journal.close j;
        (* with cement disabled, the old contract holds: a typed
           `Conflict marks the compacted-away boundary *)
        with_dir @@ fun dir2 ->
        let j2 =
          Journal.open_ ~cement:false ~dir:dir2 Standard_schemas.odyssey
        in
        ignore (activity (Journal.context j2) 2);
        Journal.compact j2;
        let base2 = Journal.base_seq j2 in
        (match Journal.frames j2 ~after:(base2 - 1) ~limit:10 with
        | _ -> Alcotest.fail "compacted frames must not be served"
        | exception Error.Ddf_error e ->
          Alcotest.(check bool) "typed `Conflict" true
            (e.Error.code = `Conflict));
        Journal.close j2);
  ]

let stim = Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ])

let install ctx label = ignore (Engine.install ctx ~entity:E.stimuli ~label stim)

let seqnos j since =
  match Journal.entries_since j since with
  | Journal.Frames fs -> List.map fst fs
  | Journal.Snapshot_needed -> Alcotest.fail "unexpected snapshot resync"

let background =
  [
    Alcotest.test_case
      "a crash mid-compaction without cement reopens at the exact seqno"
      `Quick (fun () ->
        (* the first directory fsync is the rotation's, the second the
           snapshot install's: die at each *)
        List.iter
          (fun after ->
            Fun.protect ~finally:Fault.reset @@ fun () ->
            with_dir @@ fun dir ->
            let j =
              Journal.open_ ~cement:false ~dir Standard_schemas.odyssey
            in
            for i = 1 to 5 do
              install (Journal.context j) (Printf.sprintf "s%d" i)
            done;
            Journal.sync j;
            Fault.arm ~after "journal.dir_fsync" Fault.Fail;
            (match Journal.compact j with
            | () -> Alcotest.fail "expected the injected crash"
            | exception Fault.Injected _ -> ());
            Journal.close j;
            let j = Journal.open_ ~cement:false ~dir Standard_schemas.odyssey in
            Alcotest.(check int) "seq after reopen" 5 (Journal.seq j);
            Alcotest.(check int) "base after reopen"
              (if after = 0 then 0 else 5)
              (Journal.base_seq j);
            install (Journal.context j) "s6";
            Alcotest.(check (list int)) "the next entry is numbered 6" [ 6 ]
              (seqnos j 5);
            Journal.close j;
            let j = Journal.open_ ~cement:false ~dir Standard_schemas.odyssey in
            Alcotest.(check int) "seq after a second reopen" 6 (Journal.seq j);
            Journal.close j)
          [ 0; 1 ]);
    Alcotest.test_case "a compaction with nothing new leaves the snapshot alone"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        ignore (activity (Journal.context j) 2);
        Journal.compact j;
        let path = Journal.snapshot_file j in
        let st = Unix.stat path in
        let compactions () =
          Metrics.count (Metrics.counter "journal.compactions")
        in
        let n = compactions () in
        Journal.compact j;
        Journal.compact j;
        let st' = Unix.stat path in
        Alcotest.(check int) "same inode" st.Unix.st_ino st'.Unix.st_ino;
        Alcotest.(check (float 0.)) "same mtime" st.Unix.st_mtime
          st'.Unix.st_mtime;
        Alcotest.(check int) "no compaction ran" n (compactions ());
        (* the file a snapshot export streams names the current seqno *)
        let seq, fd = Journal.pin_snapshot j in
        Unix.close fd;
        Alcotest.(check int) "snapshot seqno" (Journal.seq j) seq;
        (* a write makes the next compaction real again *)
        install (Journal.context j) "more";
        Journal.compact j;
        Alcotest.(check int) "one more compaction" (n + 1) (compactions ());
        Alcotest.(check bool) "a new snapshot" true
          ((Unix.stat path).Unix.st_ino <> st.Unix.st_ino);
        Journal.close j);
    Alcotest.test_case "the writer is not blocked by a background snapshot"
      `Quick (fun () ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        with_dir @@ fun dir ->
        let j =
          Journal.open_ ~compact_every:5 ~dir Standard_schemas.odyssey
        in
        let ctx = Journal.context j in
        ignore (activity ctx 3);
        Journal.sync j;
        let pinned = Journal.seq j in
        (* hold the second domain inside its snapshot write; the clock
           runs from the trigger, so a compaction that held the caller
           for the delay would fail the bound below *)
        Fault.arm "journal.snapshot_write" (Fault.Delay 1.0);
        let t0 = Unix.gettimeofday () in
        Alcotest.(check bool) "started" true (Journal.maybe_compact j);
        while
          Fault.fired "journal.snapshot_write" = 0
          && Unix.gettimeofday () -. t0 < 5.0
        do
          Thread.delay 0.001
        done;
        Alcotest.(check int) "the snapshot write is held" 1
          (Fault.fired "journal.snapshot_write");
        for i = 1 to 20 do
          install ctx (Printf.sprintf "w%d" i);
          Journal.sync j
        done;
        let dt = Unix.gettimeofday () -. t0 in
        if dt > 0.5 then Alcotest.failf "20 synced installs took %.3fs" dt;
        let deferred () =
          Metrics.count (Metrics.counter "journal.compactions_deferred")
        in
        let d0 = deferred () in
        Alcotest.(check bool) "one at a time" false (Journal.maybe_compact j);
        Alcotest.(check int) "deferral counted" (d0 + 1) (deferred ());
        let final = state ctx and seq = Journal.seq j in
        Journal.close j;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check int) "snapshot at the pinned seqno" pinned
          (Journal.base_seq j);
        Alcotest.(check int) "every entry replays" seq (Journal.seq j);
        Alcotest.(check string) "replayed state" final
          (state (Journal.context j));
        Journal.close j);
  ]

let suite = [ ("journal", basics @ torn_tail @ compaction @ background) ]
