(* Tiered cold storage and streaming bootstrap: cement segment
   round-trips and torn-tail recovery, the journal's watermark
   behaviour (typed [entries_since] boundary, cold frame reads,
   payload eviction with reload-from-cement), recovery from a crash
   after the snapshot rename (the [journal.dir_fsync] fault point), and
   the streamed snapshot paths (late-follower bootstrap, client
   export). *)

open Ddf
module E = Standard_schemas.E

let with_dir = Test_journal.with_dir
let seed = Test_server.seed

let frames_for lo hi =
  List.init
    (hi - lo + 1)
    (fun i -> (lo + i, Printf.sprintf "(frame %d payload-%d)" (lo + i) (lo + i)))

let payload_of seq = Printf.sprintf "(frame %d payload-%d)" seq seq

let segments =
  [
    Alcotest.test_case "fold, read, iterate, reopen" `Quick (fun () ->
        with_dir @@ fun dir ->
        let c = Cement.open_ ~dir in
        Cement.fold c ~first:1 (frames_for 1 3);
        Cement.fold c ~first:4 (frames_for 4 6);
        Alcotest.(check int) "segments" 2 (Cement.segment_count c);
        Alcotest.(check int) "first" 1 (Cement.first_seq c);
        Alcotest.(check int) "last" 6 (Cement.last_seq c);
        Alcotest.(check bool) "bytes" true (Cement.total_bytes c > 0);
        Alcotest.(check (option string)) "read" (Some (payload_of 5))
          (Cement.read c 5);
        Alcotest.(check (option string)) "below window" None (Cement.read c 0);
        Alcotest.(check (option string)) "above window" None (Cement.read c 7);
        let seen = ref [] in
        Cement.iter_range c ~from:2 ~upto:5 (fun seq payload ->
            Alcotest.(check string) "iter payload" (payload_of seq) payload;
            seen := seq :: !seen);
        Alcotest.(check (list int)) "iter window" [ 2; 3; 4; 5 ]
          (List.rev !seen);
        Cement.close c;
        (* a fresh open sees the same store *)
        let c2 = Cement.open_ ~dir in
        Alcotest.(check int) "reopened last" 6 (Cement.last_seq c2);
        Alcotest.(check int) "no torn tail" 0 (Cement.truncated_on_open c2);
        Alcotest.(check (option string)) "reopened read" (Some (payload_of 2))
          (Cement.read c2 2);
        Cement.close c2);
    Alcotest.test_case "refolding cemented seqnos is idempotent, gaps refused"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let c = Cement.open_ ~dir in
        Cement.fold c ~first:1 (frames_for 1 4);
        (* a crash between fold and the watermark write retries with an
           overlapping window: the cemented prefix is skipped *)
        Cement.fold c ~first:1 (frames_for 1 6);
        Alcotest.(check int) "extended" 6 (Cement.last_seq c);
        Alcotest.(check (option string)) "old frame intact"
          (Some (payload_of 3)) (Cement.read c 3);
        Alcotest.(check (option string)) "new frame" (Some (payload_of 6))
          (Cement.read c 6);
        (match Cement.fold c ~first:9 (frames_for 9 10) with
        | () -> Alcotest.fail "expected a seqno-gap refusal"
        | exception Error.Ddf_error _ -> ());
        Cement.close c);
    Alcotest.test_case "a torn tail on the newest segment truncates on open"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let c = Cement.open_ ~dir in
        Cement.fold c ~first:1 (frames_for 1 3);
        Cement.fold c ~first:4 (frames_for 4 6);
        Cement.close c;
        (* cut the newest segment mid-frame, like a crash while the
           file system reordered writes *)
        let path = Filename.concat dir "segment-000000000004-000000000006.ddf" in
        let size = (Unix.stat path).Unix.st_size in
        Unix.truncate path (size - 5);
        let c2 = Cement.open_ ~dir in
        Alcotest.(check bool) "torn bytes reported" true
          (Cement.truncated_on_open c2 > 0);
        Alcotest.(check int) "window shrank to the good prefix" 5
          (Cement.last_seq c2);
        Alcotest.(check (option string)) "survivor reads" (Some (payload_of 5))
          (Cement.read c2 5);
        Alcotest.(check (option string)) "torn frame gone" None
          (Cement.read c2 6);
        (* the store extends contiguously from the surviving watermark *)
        Cement.fold c2 ~first:6 (frames_for 6 7);
        Alcotest.(check (option string)) "refolded" (Some (payload_of 6))
          (Cement.read c2 6);
        Cement.close c2);
  ]

let journal =
  [
    Alcotest.test_case "entries_since is typed exactly at the watermark"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ctx 2);
        Journal.compact j;
        let base = Journal.base_seq j in
        Alcotest.(check bool) "compacted" true (base > 0);
        (match Journal.cement_stats j with
        | Some (_, _, first, last) ->
          Alcotest.(check int) "cement starts at 1" 1 first;
          Alcotest.(check int) "cement reaches the watermark" base last
        | None -> Alcotest.fail "nothing cemented");
        ignore (Test_journal.activity ~seed:11 ctx 1);
        (* exactly at the watermark: the wal tail suffices *)
        (match Journal.entries_since j base with
        | Journal.Frames ((s0, _) :: _) ->
          Alcotest.(check int) "tail starts past the base" (base + 1) s0
        | Journal.Frames [] -> Alcotest.fail "expected a non-empty tail"
        | Journal.Snapshot_needed -> Alcotest.fail "at the watermark is servable");
        (* one below: those frames are folded away, resync required *)
        (match Journal.entries_since j (base - 1) with
        | Journal.Snapshot_needed -> ()
        | Journal.Frames _ -> Alcotest.fail "below the watermark needs a snapshot");
        (* ...but the cemented history still reads by seqno *)
        Alcotest.(check bool) "cold frame at the watermark" true
          (Journal.cold_frame j base <> None);
        Alcotest.(check bool) "cold frame at 1" true
          (Journal.cold_frame j 1 <> None);
        Alcotest.(check (option string)) "wal seqnos are not cold" None
          (Journal.cold_frame j (base + 1));
        Journal.close j);
    Alcotest.test_case "evicted payloads reload from cement" `Quick (fun () ->
        with_dir @@ fun dir ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ctx 3);
        let reference = Test_journal.state ctx in
        Journal.compact j;
        let evicted = Journal.evict_cold j in
        Alcotest.(check bool) "something evicted" true (evicted > 0);
        let store = ctx.Engine.store in
        let cold =
          List.filter
            (fun iid -> not (Store.payload_resident store iid))
            (Store.all_instances store)
        in
        Alcotest.(check int) "eviction count matches residency" evicted
          (List.length cold);
        let loads () = Metrics.count (Metrics.counter "store.cold_loads") in
        let l0 = loads () in
        (* reading the full durable surface forces every payload back *)
        Alcotest.(check string) "state intact after reload" reference
          (Test_journal.state ctx);
        Alcotest.(check bool) "reloads counted" true (loads () > l0);
        List.iter
          (fun iid ->
            Alcotest.(check bool) "re-promoted" true
              (Store.payload_resident store iid))
          cold;
        Journal.close j);
    Alcotest.test_case "a crash after the snapshot rename keeps the seqno line"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        Fun.protect ~finally:Fault.reset @@ fun () ->
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        let ctx = Journal.context j in
        ignore (Test_journal.activity ctx 2);
        Journal.sync j;
        let seq0 = Journal.seq j in
        let reference = Test_journal.state ctx in
        (* die exactly between the snapshot rename and the segment
           deletion: the cement fold, the rotation and the rename are
           on disk, the covered segment is still in place (the first
           directory fsync is the rotation's) *)
        Fault.arm ~after:1 "journal.dir_fsync" Fault.Fail;
        (match Journal.compact j with
        | () -> Alcotest.fail "expected the injected crash"
        | exception Fault.Injected _ -> ());
        Alcotest.(check int) "fired once" 1 (Fault.fired "journal.dir_fsync");
        Journal.close j;
        (* recovery must not double-count the leftover frames into the
           seqno line (seq = 2 * base): the snapshot names the seqno it
           holds, so replay skips the covered segment and deletes it *)
        let j2 = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check int) "seqno line repaired" seq0 (Journal.seq j2);
        Alcotest.(check int) "base at the crash point" seq0
          (Journal.base_seq j2);
        Alcotest.(check int) "wal emptied" 0 (Journal.entries_since_snapshot j2);
        Alcotest.(check bool) "covered segment deleted" false
          (Array.exists
             (fun f -> f <> "wal.ddf" && Filename.check_suffix f ".ddf"
                       && String.length f > 4 && String.sub f 0 4 = "wal.")
             (Sys.readdir dir));
        Alcotest.(check string) "state survived" reference
          (Test_journal.state (Journal.context j2));
        (* and the repaired journal keeps journaling on the same line *)
        ignore (Test_journal.activity ~seed:13 (Journal.context j2) 1);
        Alcotest.(check bool) "writes continue" true (Journal.seq j2 > seq0);
        let after = Test_journal.state (Journal.context j2) in
        Journal.close j2;
        Test_journal.reopened_equals dir after);
  ]

(* A primary with enough compacted history that a fresh subscriber's
   catch-up point predates the watermark. *)
let with_deep_primary f =
  with_dir @@ fun root ->
  Unix.mkdir root 0o755;
  let pdir = Filename.concat root "p" in
  let psock = Filename.concat root "p.sock" in
  let p =
    Server.start ~seed ~db:pdir ~socket:psock Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      try Server.stop p; Server.wait p with _ -> ())
    (fun () ->
      Client.with_client ~user:"w" ~socket:psock (fun cp ->
          ignore (Test_server.perf_run cp (Eda.Circuits.c17 ()) "c17");
          Client.compact cp);
      f ~root ~p ~pdir ~psock)

let bootstrap =
  [
    Alcotest.test_case "a late follower bootstraps by streaming" `Quick
      (fun () ->
        with_deep_primary @@ fun ~root ~p ~pdir:_ ~psock ->
        let streamed () =
          Metrics.count (Metrics.counter "replica.snapshots_streamed")
        in
        let resyncs () =
          Metrics.count (Metrics.counter "journal.snapshot_stream_resyncs")
        in
        let s0 = streamed () and r0 = resyncs () in
        let fdir = Filename.concat root "f" in
        let fsock = Filename.concat root "f.sock" in
        let fl =
          Server.start ~follow:psock ~db:fdir ~socket:fsock
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            try Server.stop fl; Server.wait fl with _ -> ())
          (fun () ->
            (Client.with_client ~socket:psock @@ fun cp ->
             Client.with_client ~socket:fsock @@ fun cf ->
             Test_replica.wait_until ~what:"streamed bootstrap"
               (Test_replica.caught_up cp cf));
            Alcotest.(check bool) "primary streamed a snapshot" true
              (streamed () > s0);
            (* exactly one resync: the follower lands past the
               watermark and never re-requests pre-watermark frames *)
            Alcotest.(check int) "one streamed resync" (r0 + 1) (resyncs ());
            Test_replica.assert_converged ~p ~fl ~fdir));
    Alcotest.test_case "snapshot-export streams to a client file" `Quick
      (fun () ->
        with_deep_primary @@ fun ~root ~p:_ ~pdir ~psock ->
        let out = Filename.concat root "export.ddf" in
        (Client.with_client ~user:"op" ~socket:psock @@ fun c ->
         let seq, bytes = Client.snapshot_export c ~out in
         Alcotest.(check int) "export covers everything" seq
           (Client.stat c).Wire.st_seq;
         Alcotest.(check int) "byte count verified" bytes
           (Unix.stat out).Unix.st_size;
         (* the exported bytes are exactly the primary's snapshot *)
         let slurp path =
           let ic = open_in_bin path in
           let s = really_input_string ic (in_channel_length ic) in
           close_in ic;
           s
         in
         Alcotest.(check string) "snapshot bytes"
           (slurp (Filename.concat pdir "snapshot.ddf"))
           (slurp out);
         (* the file is a loadable workspace on its own *)
         let session = Persist.load_file Standard_schemas.odyssey out in
         Alcotest.(check bool) "export parses" true
           (Store.instance_count (Session.context session).Engine.store > 0)));
  ]

let suite =
  [
    ("cement.segments", segments);
    ("cement.journal", journal);
    ("cement.bootstrap", bootstrap);
  ]
