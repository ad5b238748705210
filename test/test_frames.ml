(* The durable text: the one J1 frame codec, read through the codec
   itself, the wal's segment scanner and cement's, and a database
   written in the pretty layout that came before the flat printer. *)

open Ddf
module S = Sexp

let with_dir = Test_journal.with_dir

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* The codec                                                           *)
(* ------------------------------------------------------------------ *)

(* Empty payloads, short ones rich in newlines, and ones of 64 KiB or
   more; any byte may appear. *)
let payload_gen =
  let open QCheck2.Gen in
  let newline_rich = oneof [ char; oneofl [ '\n'; '\n'; ' '; 'J'; '1' ] ] in
  frequency
    [ (1, return "");
      (4, string_size ~gen:newline_rich (int_range 1 300));
      (2, string_size ~gen:char (int_range 65536 70000)) ]

(* Positions in [0, n): all of them for short frames; for long ones
   the header, the end and a spread of the middle. *)
let positions n =
  if n <= 400 then List.init n Fun.id
  else
    List.sort_uniq compare
      (List.init 64 Fun.id
      @ List.init 32 (fun i -> n - 1 - i)
      @ List.init 32 (fun i -> 64 + (i * (n - 96) / 32)))

(* Every frame in the file, then how the read ended: [`End] cleanly,
   or [`Torn at]. *)
let read_frames path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match Frame.input ic with
        | Some p -> go (p :: acc)
        | None -> (List.rev acc, `End)
        | exception Frame.Torn at -> (List.rev acc, `Torn at)
      in
      go [])

let lead = "lead"

(* A whole frame, then the frame under test, damaged by [damage] at
   each position in turn: the lead frame reads back, and the damaged
   one is torn exactly where it starts. *)
let torn_everywhere payload damage =
  let first = Frame.to_string lead and frame = Frame.to_string payload in
  let start = String.length first in
  let path = Filename.temp_file "ddf-frame" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  List.for_all
    (fun i ->
      match damage frame i with
      | None -> true
      | Some damaged ->
        write_file path (first ^ damaged);
        read_frames path = ([ lead ], `Torn start))
    (positions (String.length frame))

let flip frame i =
  let b = Bytes.of_string frame in
  Bytes.set b i (Char.chr (Char.code frame.[i] lxor (1 + (i mod 255))));
  Bytes.to_string b

let codec_cases =
  [
    Util.qcheck ~count:60 "write then read gives the payload back"
      QCheck2.Gen.(pair payload_gen payload_gen)
      (fun (a, b) ->
        let path = Filename.temp_file "ddf-frame" ".log" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        Out_channel.with_open_bin path (fun oc ->
            Frame.output oc a;
            Frame.output oc b);
        read_file path = Frame.to_string a ^ Frame.to_string b
        && read_frames path = ([ a; b ], `End));
    Util.qcheck ~count:30 "a proper prefix reads as torn at the frame's start"
      payload_gen (fun p ->
        (* the empty prefix is the clean end of the file *)
        torn_everywhere p (fun frame i ->
            if i = 0 then None else Some (String.sub frame 0 i)));
    Util.qcheck ~count:30 "one flipped byte anywhere is refused" payload_gen
      (fun p -> torn_everywhere p (fun frame i -> Some (flip frame i)));
  ]

(* ------------------------------------------------------------------ *)
(* Through the segment scanners                                        *)
(* ------------------------------------------------------------------ *)

let cement_segment dir =
  match
    List.filter
      (fun f -> Filename.check_suffix f ".ddf")
      (Array.to_list (Sys.readdir dir))
  with
  | [ f ] -> Filename.concat dir f
  | _ -> Alcotest.fail "expected one cement segment"

(* Cement: a folded pair reads back by seqno and by range; damage in
   the second frame truncates the segment to the first, at the second
   frame's start. *)
let through_cement (a, b, cut, pos) =
  with_dir @@ fun dir ->
  let c = Cement.open_ ~dir in
  Cement.fold c ~first:1 [ (1, a); (2, b) ];
  let ranged = ref [] in
  Cement.iter_range c ~from:1 ~upto:2 (fun seq p -> ranged := (seq, p) :: !ranged);
  let round_trip =
    Cement.read c 1 = Some a && Cement.read c 2 = Some b
    && List.rev !ranged = [ (1, a); (2, b) ]
  in
  Cement.close c;
  let path = cement_segment dir in
  let whole = read_file path in
  let frame = Frame.to_string b in
  let start = String.length whole - String.length frame in
  let survives damaged =
    write_file path damaged;
    let c = Cement.open_ ~dir in
    let ok =
      Cement.last_seq c = 1
      && Cement.truncated_on_open c = String.length damaged - start
      && Cement.read c 1 = Some a
    in
    Cement.close c;
    (* the survivor was renamed to its window: start afresh *)
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    ok
  in
  let cut = 1 + (cut mod (String.length frame - 1)) in
  let pos = pos mod String.length frame in
  round_trip
  && survives (String.sub whole 0 (start + cut))
  && survives (String.sub whole 0 start ^ flip frame pos)

(* Valid put entries for instance 1 onwards, as a live journal wrote
   them. *)
let puts =
  lazy
    (with_dir @@ fun dir ->
     let j = Journal.open_ ~dir Standard_schemas.odyssey in
     ignore
       (Workspace.install_netlist
          (Workspace.of_session (Session.of_context (Journal.context j)))
          (Eda.Circuits.c17 ())
         : Store.iid);
     let frames = Journal.frames j ~after:0 ~limit:1000 in
     Journal.close j;
     List.map (fun (_, _, p) -> p) frames)

(* The wal: a note entry whose label is the random text, printed
   pretty or flat, replays and reads back byte for byte; a torn or a
   flipped frame after it is cut off at its start. *)
let through_wal (label, pretty, tail, (cut, pos)) =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let meta = Store.meta ~user:"u" ~label ~created_at:1 () in
  let note =
    S.to_string ~pretty
      (S.list
         [ S.atom "note"; S.field "iid" [ S.int 1 ];
           S.field "meta" [ Persist.meta_to_sexp meta ] ])
  in
  let entries = Lazy.force puts @ [ note ] in
  let n = List.length entries in
  let good = "S1 1\n" ^ String.concat "" (List.map Frame.to_string entries) in
  let frame = Frame.to_string tail in
  let wal = Filename.concat dir "wal.ddf" in
  let replays damaged =
    write_file wal (good ^ damaged);
    let j = Journal.open_ ~dir Standard_schemas.odyssey in
    let read =
      List.map (fun (_, _, p) -> p) (Journal.frames j ~after:0 ~limit:(n + 1))
    in
    let snap = Store.snapshot (Journal.context j).Engine.store in
    let ok =
      Journal.seq j = n
      && Journal.truncated_on_open j = String.length damaged
      && read = entries
      && (Store.Snapshot.meta_of snap 1).Store.label = label
    in
    Journal.close j;
    ok && read_file wal = good
  in
  replays (String.sub frame 0 (1 + (cut mod (String.length frame - 1))))
  && replays (flip frame (pos mod String.length frame))

let scanner_cases =
  [
    Util.qcheck ~count:30 "cement's scanner: round trip, torn and flipped tails"
      QCheck2.Gen.(quad payload_gen payload_gen nat nat)
      through_cement;
    Util.qcheck ~count:30 "the wal's scanner: round trip, torn and flipped tails"
      QCheck2.Gen.(quad payload_gen bool payload_gen (pair nat nat))
      through_wal;
  ]

(* ------------------------------------------------------------------ *)
(* A database in the parent layout                                     *)
(* ------------------------------------------------------------------ *)

(* [fixtures/parent_layout] was written by the commit before the flat
   printer (2c1ec0f), through [Journal]: a pretty snapshot.ddf with a
   (seq 19) header, one cement segment holding entries 1..19 and its
   index, and a wal.ddf whose entries 20..27 are pretty frames.  These
   are the values that commit read back from it. *)
let fixture = "fixtures/parent_layout"
let fixture_seq = 27
let fixture_instances = 20
let fixture_records = 5
let fixture_fingerprint = "36a009f5536546e899b453bb230b5394"

let counts ctx =
  let v = Engine.pin ctx in
  ( Store.Snapshot.instance_count v.Engine.v_store,
    History.Snapshot.size v.Engine.v_history,
    Sync.fingerprint ctx )

let check_counts what (i, r, f) ctx =
  let i', r', f' = counts ctx in
  Alcotest.(check int) (what ^ ": instances") i i';
  Alcotest.(check int) (what ^ ": records") r r';
  Alcotest.(check string) (what ^ ": fingerprint") f f'

(* Whether a segment holds a pretty payload (one with a line break)
   followed, later in the segment, by a flat one. *)
let mixes_layouts path =
  let payloads =
    In_channel.with_open_bin path (fun ic ->
        ignore (input_line ic : string);
        let rec go acc =
          match Frame.input ic with Some p -> go (p :: acc) | None -> List.rev acc
        in
        go [])
  in
  let pretty p = String.contains p '\n' in
  let rec after_pretty = function
    | p :: rest ->
      if pretty p then List.exists (fun q -> not (pretty q)) rest
      else after_pretty rest
    | [] -> false
  in
  after_pretty payloads

let parent_layout_cases =
  [
    Alcotest.test_case "the pretty print is the parent's, byte for byte" `Quick
      (fun () ->
        let text = read_file (Filename.concat fixture "snapshot.ddf") in
        Alcotest.(check string) "snapshot.ddf" text
          (S.to_string (S.of_string text) ^ "\n"));
    Alcotest.test_case "a parent-layout database opens, appends, reopens" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        Test_sync.copy_dir fixture dir;
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        Alcotest.(check int) "seq" fixture_seq (Journal.seq j);
        Alcotest.(check int) "nothing torn" 0 (Journal.truncated_on_open j);
        let ctx = Journal.context j in
        check_counts "opened"
          (fixture_instances, fixture_records, fixture_fingerprint)
          ctx;
        (* flat entries after the pretty ones, in the same segment *)
        ignore (Test_journal.activity ~seed:3 ctx 2 : Store.iid list);
        Store.annotate ctx.Engine.store 2 ~label:"flat" ~comment:"a\nb" ();
        let after = counts ctx in
        let i, r, _ = after in
        Alcotest.(check bool) "grew" true
          (i > fixture_instances && r > fixture_records);
        Journal.close j;
        Alcotest.(check bool) "wal.ddf mixes both layouts" true
          (mixes_layouts (Filename.concat dir "wal.ddf"));
        let j = Journal.open_ ~dir Standard_schemas.odyssey in
        check_counts "reopened" after (Journal.context j);
        Journal.close j;
        (* a follower bootstrapped from it streams the pretty snapshot
           and the mixed segment *)
        let root = dir ^ "-r" in
        Fun.protect ~finally:(fun () -> Test_journal.rm_rf root) @@ fun () ->
        Unix.mkdir root 0o755;
        let psock = Filename.concat root "p.sock"
        and fdir = Filename.concat root "f"
        and fsock = Filename.concat root "f.sock" in
        let p = Server.start ~db:dir ~socket:psock Standard_schemas.odyssey in
        let fl =
          Server.start ~follow:psock ~db:fdir ~socket:fsock
            Standard_schemas.odyssey
        in
        Fun.protect
          ~finally:(fun () ->
            (try Server.stop fl; Server.wait fl with _ -> ());
            try Server.stop p; Server.wait p with _ -> ())
          (fun () ->
            (Client.with_client ~socket:psock @@ fun cp ->
             Client.with_client ~socket:fsock @@ fun cf ->
             Test_replica.wait_until ~what:"follower bootstrap"
               (Test_replica.caught_up cp cf));
            Server.stop fl;
            Server.wait fl;
            Server.stop p;
            Server.wait p;
            check_counts "primary" after (Server.context p);
            check_counts "follower" after (Server.context fl)));
  ]

let suite =
  [ ("frames.codec", codec_cases); ("frames.scanners", scanner_cases);
    ("frames.parent_layout", parent_layout_cases) ]
