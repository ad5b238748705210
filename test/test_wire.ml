(* The wire protocol: one binary framing, two codecs derived from one
   message description.  A golden fixture pins every tag's bytes, a
   qcheck round trip covers generated requests and responses in both
   the text and the binary form, decoders reject every malformed body
   with [Wire_error] alone, and real sockets check header fields,
   gathered batch writes, large payloads, refusal of foreign framing
   and versions, and redials after torn sends. *)

open Ddf
module E = Standard_schemas.E

let with_faults f = Fun.protect ~finally:Fault.reset f

(* ------------------------------------------------------------------ *)
(* Generators: every constructor of both wire types                    *)
(* ------------------------------------------------------------------ *)

let gen_text = QCheck2.Gen.(string_size ~gen:printable (int_range 0 24))

(* 64-bit extremes included: binary ints travel as 8-byte words. *)
let gen_int =
  QCheck2.Gen.(
    frequency
      [ (4, small_signed_int); (1, oneofl [ 0; 1; -1; max_int; min_int ]) ])

let gen_nat = QCheck2.Gen.(int_bound 1_000_000)

(* Finite floats only: both codecs are bit-exact (hex atoms on the
   sexp side), but NaN breaks the structural-equality oracle. *)
let gen_float =
  QCheck2.Gen.(
    map
      (fun (a, b) -> float_of_int a /. float_of_int (b + 1))
      (pair (int_range (-1_000_000) 1_000_000) (int_bound 1000)))

let gen_sexp =
  QCheck2.Gen.(
    sized @@ fix
    @@ fun self n ->
    if n <= 0 then map (fun s -> Sexp.Atom s) gen_text
    else
      frequency
        [ (2, map (fun s -> Sexp.Atom s) gen_text);
          (1, map (fun l -> Sexp.List l) (list_size (int_bound 4) (self (n / 2))))
        ])

let gen_filter =
  QCheck2.Gen.(
    map
      (fun ((ents, user), (from_, to_), (kws, text)) ->
        { Store.f_entities = ents; f_user = user; f_from = from_; f_to = to_;
          f_keywords = kws; f_text = text })
      (triple
         (pair (option (small_list gen_text)) (option gen_text))
         (pair (option gen_nat) (option gen_nat))
         (pair (small_list gen_text) (option gen_text))))

let gen_meta =
  QCheck2.Gen.(
    map
      (fun ((user, created_at), (label, comment), kws) ->
        { Store.user; created_at; label; comment; keywords = kws })
      (triple (pair gen_text gen_nat) (pair gen_text gen_text)
         (small_list gen_text)))

let gen_error =
  QCheck2.Gen.(
    map
      (fun (code, (msg, (ctx, (retryable, after)))) ->
        Error.make ~context:ctx ~retryable
          ?retry_after:(Option.map (fun n -> float_of_int n /. 1024.0) after)
          code msg)
      (pair (oneofl Error.all_codes)
         (pair gen_text
            (pair
               (small_list (pair gen_text gen_text))
               (pair bool (option (int_range 0 100_000)))))))

let gen_sync_frames = QCheck2.Gen.(small_list (triple gen_nat gen_text gen_text))

(* Every non-batch request constructor, uniformly. *)
let gen_simple_request =
  QCheck2.Gen.(
    oneof
      [ map (fun (user, version) -> Wire.Hello { user; version })
          (pair gen_text (int_range 1 20));
        return Wire.Ping;
        return Wire.Stat;
        map (fun c -> Wire.Catalog c)
          (oneofl [ Wire.Entities; Wire.Tools; Wire.Flows ]);
        map (fun f -> Wire.Browse f) gen_filter;
        map
          (fun ((entity, label), (kws, value)) ->
            Wire.Install { entity; label; keywords = kws; value })
          (pair (pair gen_text gen_text) (pair (small_list gen_text) gen_sexp));
        map
          (fun ((iid, label), (comment, kws)) ->
            Wire.Annotate { iid; label; comment; keywords = kws })
          (pair
             (pair gen_nat (option gen_text))
             (pair (option gen_text) (option (small_list gen_text))));
        map (fun s -> Wire.Start_goal s) gen_text;
        map (fun i -> Wire.Start_data i) gen_nat;
        map (fun n -> Wire.Expand n) gen_nat;
        map (fun (n, e) -> Wire.Specialize (n, e)) (pair gen_nat gen_text);
        map (fun (n, iids) -> Wire.Select (n, iids))
          (pair gen_nat (small_list gen_nat));
        map (fun (n, f) -> Wire.Node_browse (n, f)) (pair gen_nat gen_filter);
        return Wire.Leaves;
        map (fun n -> Wire.Run n) gen_nat;
        return Wire.Render;
        map (fun i -> Wire.Recall i) gen_nat;
        map (fun i -> Wire.Trace i) gen_nat;
        map (fun i -> Wire.Uses i) gen_nat;
        map (fun i -> Wire.Refresh i) gen_nat;
        map (fun s -> Wire.Save_flow s) gen_text;
        map (fun s -> Wire.Load_flow s) gen_text;
        return Wire.Shutdown;
        map (fun n -> Wire.Subscribe n) gen_nat;
        map (fun n -> Wire.Repl_ack n) gen_nat;
        return Wire.Lag;
        return Wire.Compact;
        return Wire.Metrics;
        return Wire.Sync_digest;
        map (fun (after, limit) -> Wire.Sync_frames { after; limit })
          (pair gen_nat gen_nat);
        map
          (fun ((origin, upto), frames) ->
            Wire.Sync_ack { origin; upto; frames })
          (pair (pair gen_text gen_nat) gen_sync_frames);
        return Wire.Conflicts;
        map (fun (conflict, winner) -> Wire.Resolve { conflict; winner })
          (pair gen_nat gen_nat);
        return Wire.Snapshot_export
      ])

let gen_request =
  QCheck2.Gen.(
    frequency
      [ (9, gen_simple_request);
        (1, map (fun rs -> Wire.Batch rs) (small_list gen_simple_request))
      ])

let gen_histo =
  QCheck2.Gen.(
    map
      (fun ((n, sum), (mn, mx), (p50, (p90, p99))) ->
        { Metrics.hs_n = n; hs_sum = sum; hs_min = mn; hs_max = mx;
          hs_p50 = p50; hs_p90 = p90; hs_p99 = p99 })
      (triple (pair gen_nat gen_float) (pair gen_float gen_float)
         (pair gen_float (pair gen_float gen_float))))

let gen_metric =
  QCheck2.Gen.(
    oneof
      [ map (fun (n, v) -> Metrics.Counter (n, v)) (pair gen_text gen_nat);
        map (fun (n, v) -> Metrics.Gauge (n, v)) (pair gen_text gen_float);
        map (fun (n, h) -> Metrics.Histogram (n, h)) (pair gen_text gen_histo)
      ])

let gen_simple_response =
  QCheck2.Gen.(
    oneof
      [ return Wire.Ok_unit;
        map (fun i -> Wire.Ok_int i) gen_int;
        map (fun is -> Wire.Ok_ints is) (small_list gen_int);
        map (fun ss -> Wire.Ok_atoms ss) (small_list gen_text);
        map (fun s -> Wire.Ok_text s) gen_text;
        map (fun ns -> Wire.Ok_nodes ns) (small_list (pair gen_nat gen_text));
        map (fun rows -> Wire.Ok_rows rows)
          (small_list
             (map
                (fun ((iid, entity), meta) ->
                  { Wire.row_iid = iid; row_entity = entity; row_meta = meta })
                (pair (pair gen_nat gen_text) gen_meta)));
        map
          (fun ((role, (seq, clock)), (insts, recs), (st, (ht, up))) ->
            Wire.Ok_stat
              { Wire.st_role = role; st_seq = seq; st_clock = clock;
                st_instances = insts; st_records = recs; st_store_tick = st;
                st_history_tick = ht; st_uptime_s = up })
          (triple (pair gen_text (pair gen_nat gen_nat)) (pair gen_nat gen_nat)
             (pair gen_nat (pair gen_nat gen_float)));
        map (fun ((fresh, reran), reused) ->
            Wire.Ok_refresh { fresh; reran; reused })
          (pair (pair gen_nat gen_nat) gen_nat);
        map (fun (seq, bytes) -> Wire.Ok_snapshot_begin { seq; bytes })
          (pair gen_nat gen_nat);
        map (fun data -> Wire.Ok_snapshot_chunk { data }) gen_text;
        map (fun digest -> Wire.Ok_snapshot_end { digest }) gen_text;
        map
          (fun ((seq, payload), digest) ->
            Wire.Ok_frame { seq; payload; digest })
          (pair (pair gen_nat gen_text) gen_text);
        map
          (fun (primary_seq, rows) -> Wire.Ok_lags { primary_seq; rows })
          (pair gen_nat
             (small_list
                (map
                   (fun ((f, a), s) ->
                     { Wire.lag_follower = f; lag_acked = a; lag_sent = s })
                   (pair (pair gen_text gen_nat) gen_nat))));
        map (fun ms -> Wire.Ok_metrics ms) (small_list gen_metric);
        map
          (fun ((wsid, (base, seq)), fingerprint, (cursors, entries)) ->
            Wire.Ok_digest { wsid; base; seq; fingerprint; cursors; entries })
          (triple (pair gen_text (pair gen_nat gen_nat)) gen_text
             (pair (small_list (pair gen_text gen_nat))
                (small_list (pair gen_nat gen_text))));
        map (fun fs -> Wire.Ok_frames fs) gen_sync_frames;
        map
          (fun ((ap, sk), (cf, cur)) ->
            Wire.Ok_sync
              { Wire.sy_applied = ap; sy_skipped = sk; sy_conflicts = cf;
                sy_cursor = cur })
          (pair (pair gen_nat gen_nat) (pair gen_nat gen_nat));
        map (fun rows -> Wire.Ok_conflicts rows)
          (small_list
             (map
                (fun ((id, base), (ours, theirs), (origin, (at, winner))) ->
                  { Wire.cf_id = id; cf_base = base; cf_ours = ours;
                    cf_theirs = theirs; cf_origin = origin; cf_at = at;
                    cf_winner = winner })
                (triple (pair gen_nat gen_nat) (pair gen_nat gen_nat)
                   (pair gen_text (pair gen_nat (option gen_nat))))));
        map (fun e -> Wire.Error e) gen_error
      ])

let gen_response =
  QCheck2.Gen.(
    frequency
      [ (9, gen_simple_response);
        (1, map (fun rs -> Wire.Ok_batch rs) (small_list gen_simple_response))
      ])

(* ------------------------------------------------------------------ *)
(* Round trips and rejection                                           *)
(* ------------------------------------------------------------------ *)

let roundtrip ~count name gen ~print ~of_text ~to_text ~of_bin ~to_bin =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print gen (fun m ->
         of_text (to_text m) = m && of_bin (to_bin m) = m))

(* [decode s] must fail with [Wire_error] and nothing else. *)
let rejects what decode s =
  match decode s with
  | _ -> Alcotest.failf "%s: decoded" what
  | exception Wire.Wire_error _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

(* Every golden message's body, with a decoder for its kind. *)
let golden_bodies () =
  List.map
    (fun (name, r) ->
      ( name, Wire.request_to_binary_string r,
        fun s -> ignore (Wire.request_of_binary_string s) ))
    Wire_golden.requests
  @ List.map
      (fun (name, r) ->
        ( name, Wire.response_to_binary_string r,
          fun s -> ignore (Wire.response_of_binary_string s) ))
      Wire_golden.responses

let set_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let codec_props =
  [
    Util.qcheck ~count:300 "requests round-trip the binary codec" gen_request
      (fun r ->
        Wire.request_of_binary_string (Wire.request_to_binary_string r) = r);
    Util.qcheck ~count:300 "responses round-trip the binary codec" gen_response
      (fun r ->
        Wire.response_of_binary_string (Wire.response_to_binary_string r) = r);
    roundtrip ~count:300 "request codecs agree (text and binary round-trip)"
      gen_request ~print:Wire.request_to_text ~of_text:Wire.request_of_text
      ~to_text:Wire.request_to_text ~of_bin:Wire.request_of_binary_string
      ~to_bin:Wire.request_to_binary_string;
    roundtrip ~count:300 "response codecs agree (text and binary round-trip)"
      gen_response ~print:Wire.response_to_text ~of_text:Wire.response_of_text
      ~to_text:Wire.response_to_text ~of_bin:Wire.response_of_binary_string
      ~to_bin:Wire.response_to_binary_string;
    Alcotest.test_case "binary decode rejects trailing bytes" `Quick (fun () ->
        List.iter
          (fun (name, body, decode) ->
            match decode (body ^ "\x00") with
            | _ -> Alcotest.failf "%s: expected a Wire_error" name
            | exception Wire.Wire_error m ->
              Alcotest.(check bool) "names the trailing bytes" true
                (Util.contains m "trailing"))
          (golden_bodies ()));
    Alcotest.test_case "binary decode rejects unknown tags" `Quick (fun () ->
        let tag_of body = Char.code body.[0] in
        let check known decode =
          for tag = 0 to 255 do
            if not (List.mem tag known) then
              rejects (Printf.sprintf "tag %d" tag) decode (String.make 1 (Char.chr tag))
          done
        in
        check
          (List.map (fun (_, r) -> tag_of (Wire.request_to_binary_string r)) Wire_golden.requests)
          Wire.request_of_binary_string;
        (* the retired monolithic-snapshot tag 10 is among the unknown *)
        check
          (List.map (fun (_, r) -> tag_of (Wire.response_to_binary_string r)) Wire_golden.responses)
          Wire.response_of_binary_string);
    Alcotest.test_case "binary decode rejects truncated bodies" `Quick
      (fun () ->
        (* every proper prefix of every tag's body *)
        List.iter
          (fun (name, body, decode) ->
            for n = 0 to String.length body - 1 do
              rejects (Printf.sprintf "%s cut at %d" name n) decode (String.sub body 0 n)
            done)
          (golden_bodies ()));
    Alcotest.test_case "binary decode rejects bad option and bool bytes" `Quick
      (fun () ->
        (* annotate: tag, iid, then the label's option byte *)
        let annotate =
          Wire.request_to_binary_string
            (Wire.Annotate { iid = 1; label = None; comment = None; keywords = None })
        in
        rejects "option byte 2" Wire.request_of_binary_string (set_byte annotate 9 '\x02');
        (* error: tag, code, message, then the retryable byte *)
        let e = Error.make ~retryable:false `Invalid "m" in
        let err = Wire.response_to_binary_string (Wire.Error e) in
        let at = 1 + 4 + String.length (Error.code_to_string `Invalid) + 4 + 1 in
        Alcotest.(check char) "the bool byte" '\x00' err.[at];
        rejects "bool byte 2" Wire.response_of_binary_string (set_byte err at '\x02');
        rejects "bool byte 255" Wire.response_of_binary_string (set_byte err at '\xff'));
    Alcotest.test_case "the writer verbs are exactly the mutations" `Quick
      (fun () ->
        Alcotest.(check (list string)) "mutating requests"
          [ "install"; "annotate"; "run"; "recall"; "refresh"; "compact";
            "sync-digest"; "sync-frames"; "sync-ack"; "resolve" ]
          (List.filter_map
             (fun (name, r) -> if Wire.is_mutation r then Some name else None)
             Wire_golden.requests
          |> List.filter (( <> ) "batch"));
        Alcotest.(check bool) "a batch mutates iff a member does" true
          (Wire.is_mutation (Wire.Batch [ Wire.Ping; Wire.Run 1 ])
          && not (Wire.is_mutation (Wire.Batch [ Wire.Ping; Wire.Stat ]))));
    Alcotest.test_case "the README and CI batch lines parse" `Quick (fun () ->
        Alcotest.(check bool) "ping, stat, (browse (filter))" true
          (List.map Wire.request_of_text [ "ping"; "stat"; "(browse (filter))" ]
          = [ Wire.Ping; Wire.Stat; Wire.Browse Store.any_filter ]));
  ]

(* ------------------------------------------------------------------ *)
(* Framing over real sockets                                           *)
(* ------------------------------------------------------------------ *)

let with_sockpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      (try Unix.close b with Unix.Unix_error _ -> ()))
    (fun () -> f a b)

(* Send from a thread: socketpair buffers are finite, so big frames
   need a concurrent reader. *)
let send_threaded f =
  let t = Thread.create f () in
  Fun.protect ~finally:(fun () -> Thread.join t)

let header_roundtrip () =
  with_sockpair @@ fun a b ->
  let span = Obs.new_root () in
  Wire.send_request ~deadline_ms:1234 ~trace:span a (Wire.Run 7);
  match Wire.recv_request b with
  | None -> Alcotest.fail "expected a frame"
  | Some (req, meta) ->
    Alcotest.(check bool) "request" true (req = Wire.Run 7);
    Alcotest.(check (option int)) "deadline" (Some 1234) meta.Wire.fm_deadline_ms;
    (match meta.Wire.fm_trace with
    | None -> Alcotest.fail "expected a trace token"
    | Some ctx ->
      Alcotest.(check string) "trace id" span.Obs.trace_id ctx.Obs.trace_id;
      Alcotest.(check int) "span id" span.Obs.span_id ctx.Obs.span_id)

(* Everything one send put on the socket. *)
let sent_bytes send =
  with_sockpair @@ fun a b ->
  send a;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 256 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read b chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ()

let hex s = String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))
let unhex h = String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* Each golden message with its two framings: (label, send, recv check). *)
let golden_frames () =
  let frames kind i name send check =
    let deadline_ms, trace = Wire_golden.header i in
    let label = kind ^ " " ^ name in
    let plain, headed =
      match List.assoc_opt label (List.map (fun (l, p, h) -> (l, (p, h))) Wire_golden.expected) with
      | Some ph -> ph
      | None -> Alcotest.failf "no golden bytes for %s" label
    in
    [ (label, plain, (fun fd -> send ?deadline_ms:None ?trace:None fd), check None None);
      (label ^ " (header)", headed, (fun fd -> send ?deadline_ms ?trace fd), check deadline_ms trace) ]
  in
  let meta_is deadline trace (meta : Wire.frame_meta) =
    meta.fm_deadline_ms = deadline
    && Option.map (fun c -> (c.Obs.trace_id, c.Obs.span_id)) meta.fm_trace
       = Option.map (fun c -> (c.Obs.trace_id, c.Obs.span_id)) trace
  in
  List.concat
    (List.mapi
       (fun i (name, r) ->
         frames "request" i name
           (fun ?deadline_ms ?trace fd -> Wire.send_request ?deadline_ms ?trace fd r)
           (fun d t fd ->
             match Wire.recv_request fd with
             | Some (r', meta) -> r' = r && meta_is d t meta
             | None -> false))
       Wire_golden.requests)
  @ List.concat
      (List.mapi
         (fun i (name, r) ->
           frames "response" i name
             (fun ?deadline_ms ?trace fd -> Wire.send_response ?deadline_ms ?trace fd r)
             (fun d t fd ->
               match Wire.recv_response fd with
               | Some (r', meta) -> r' = r && meta_is d t meta
               | None -> false))
         Wire_golden.responses)

let golden =
  [
    Alcotest.test_case "golden frames: every tag encodes byte-identically"
      `Quick (fun () ->
        let tags l to_bin = List.sort_uniq compare (List.map (fun (_, m) -> Char.code (to_bin m).[0]) l) in
        Alcotest.(check (list int)) "every request tag" (List.init 35 succ)
          (tags Wire_golden.requests Wire.request_to_binary_string);
        Alcotest.(check (list int)) "every live response tag"
          (List.filter (( <> ) 10) (List.init 22 succ))
          (tags Wire_golden.responses Wire.response_to_binary_string);
        List.iter
          (fun (label, want, send, _) ->
            Alcotest.(check string) label want (hex (sent_bytes send)))
          (golden_frames ()));
    Alcotest.test_case "golden frames decode back to equal values" `Quick
      (fun () ->
        List.iter
          (fun (label, bytes, _, check) ->
            with_sockpair @@ fun a b ->
            let raw = unhex bytes in
            ignore (Unix.write_substring a raw 0 (String.length raw));
            Alcotest.(check bool) label true (check b))
          (golden_frames ()));
  ]

let framing =
  [
    Alcotest.test_case "header tokens round-trip (binary)" `Quick header_roundtrip;
    Alcotest.test_case "large payload bodies survive binary framing" `Quick
      (fun () ->
        with_sockpair @@ fun a b ->
        (* well past [zero_copy_min]: the body rides as its own iovec
           slice through the gathered write *)
        let data = String.init 3_000_000 (fun i -> Char.chr (i land 0xff)) in
        send_threaded
          (fun () ->
            Wire.send_response a
              (Wire.Ok_frame { seq = 42; payload = data; digest = "d" }))
          (fun () ->
            match Wire.recv_response b with
            | Some (Wire.Ok_frame { seq; payload; digest }, _) ->
              Alcotest.(check int) "seq" 42 seq;
              Alcotest.(check string) "digest" "d" digest;
              Alcotest.(check bool) "payload intact" true (payload = data)
            | _ -> Alcotest.fail "expected a frame"));
    Alcotest.test_case "a batch flush delivers every frame in order" `Quick
      (fun () ->
        with_sockpair @@ fun a b ->
        let items =
          List.init 64 (fun i ->
              ( Wire.Ok_frame
                  { seq = i; payload = String.make (200 * i) 'x'; digest = "" },
                if i mod 2 = 0 then Some (Obs.new_root ()) else None ))
        in
        send_threaded
          (fun () -> Wire.send_response_batch a items)
          (fun () ->
            List.iteri
              (fun i (want, trace) ->
                match Wire.recv_response b with
                | Some (got, meta) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "frame %d" i)
                    true (got = want);
                  Alcotest.(check bool)
                    (Printf.sprintf "trace %d" i)
                    true
                    (Option.is_some meta.Wire.fm_trace = Option.is_some trace)
                | None -> Alcotest.fail "expected a frame")
              items));
    Alcotest.test_case "a deadline past 2^32 ms saturates instead of wrapping"
      `Quick (fun () ->
        (* on a raw socket ... *)
        (with_sockpair @@ fun a b ->
         Wire.send_request ~deadline_ms:(1 lsl 40) a Wire.Ping;
         match Wire.recv_request b with
         | Some (_, meta) ->
           Alcotest.(check (option int)) "saturated" (Some 0xFFFFFFFF)
             meta.Wire.fm_deadline_ms
         | None -> Alcotest.fail "expected a frame");
        (* ... and from a client whose budget is 4294968 s *)
        Test_journal.with_dir @@ fun dir ->
        Unix.mkdir dir 0o755;
        let socket = Filename.concat dir "fake.sock" in
        let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind srv (Unix.ADDR_UNIX socket);
        Unix.listen srv 1;
        let seen = ref None in
        let fake =
          Thread.create
            (fun () ->
              let fd, _ = Unix.accept srv in
              let rec serve () =
                match Wire.recv_request fd with
                | Some (Wire.Hello _, _) ->
                  Wire.send_response fd Wire.Ok_unit;
                  serve ()
                | Some (_, meta) ->
                  seen := meta.Wire.fm_deadline_ms;
                  Wire.send_response fd Wire.Ok_unit
                | None -> ()
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
            Client.with_client ~deadline:4294968. ~socket Client.ping;
            match !seen with
            | Some ms ->
              Alcotest.(check bool)
                (Printf.sprintf "budget of %d ms arrived" ms)
                true (ms >= 0xFFFFFFFF)
            | None -> Alcotest.fail "the request carried no deadline"));
  ]

(* ------------------------------------------------------------------ *)
(* Against a server: metering, refusals of foreign framing and versions *)
(* ------------------------------------------------------------------ *)

let stim_sexp =
  Codec.value_to_sexp (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]))

let only entity =
  { Test_server.no_filter with Store.f_entities = Some [ entity ] }

let counter_of name metrics =
  List.fold_left
    (fun acc m ->
      match m with
      | Metrics.Counter (n, v) when n = name -> acc + v
      | _ -> acc)
    0 metrics

let refusals =
  [
    Alcotest.test_case "a server meters wire bytes both ways" `Quick (fun () ->
        Test_server.with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~socket @@ fun c ->
        ignore (Client.install c ~entity:E.stimuli ~label:"metered" stim_sexp);
        let ms = Client.metrics c in
        Alcotest.(check bool) "bytes in and out" true
          (counter_of "wire.binary.bytes_in" ms > 0
          && counter_of "wire.binary.bytes_out" ms > 0);
        Alcotest.(check int) "one codec, one metric family" 0
          (List.length
             (List.filter
                (fun m -> Util.contains (Metrics.metric_name m) "wire.sexp")
                ms)));
    Alcotest.test_case "a ddf1-framed hello is refused; others stay served"
      `Quick (fun () ->
        Test_server.with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~user:"bystander" ~socket @@ fun c ->
        Client.ping c;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket);
            let payload = "(hello legacy (version 7))" in
            let frame =
              Printf.sprintf "ddf1 %d\n%s\n" (String.length payload) payload
            in
            ignore (Unix.write_substring fd frame 0 (String.length frame));
            (match Wire.recv_response fd with
            | Some (Wire.Error e, _) ->
              Alcotest.(check bool) "typed refusal" true (e.Error.code = `Invalid)
            | _ -> Alcotest.fail "expected a typed refusal");
            Alcotest.(check bool) "then the connection is dropped" true
              (Wire.recv_response fd = None));
        Client.ping c;
        Client.with_client ~socket Client.ping);
    Alcotest.test_case "a binary hello saying v7 or v9 is refused; others stay served"
      `Quick (fun () ->
        Test_server.with_server @@ fun _t ~dir:_ ~socket ->
        Client.with_client ~user:"bystander" ~socket @@ fun c ->
        List.iter
          (fun v ->
            (match Util.hello_as ~socket v with
            | Some (Wire.Error e) ->
              Alcotest.(check bool) (Printf.sprintf "v%d refused, final" v) true
                (e.Error.code = `Invalid && not e.Error.retryable)
            | _ -> Alcotest.failf "v%d was not refused" v);
            ignore (Client.install c ~entity:E.stimuli ~label:(Printf.sprintf "after-v%d" v) stim_sexp))
          [ 7; 9 ];
        Alcotest.(check int) "the bystander kept writing" 2
          (List.length (Client.browse c (only E.stimuli)));
        Client.with_client ~socket Client.ping);
  ]

(* ------------------------------------------------------------------ *)
(* Torn sends and redials                                             *)
(* ------------------------------------------------------------------ *)

let faults =
  [
    Alcotest.test_case "a redial after a torn binary frame renegotiates" `Quick
      (fun () ->
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
            (* the next frame dies 7 bytes in.  The client must drop,
               redial, redo the hello and retry — transparently *)
            Fault.arm ~times:1 "wire.send" (Fault.Torn 7);
            let stat = Client.stat c in
            Alcotest.(check string) "retried to an answer" "primary"
              stat.Wire.st_role;
            Alcotest.(check int) "the fault fired" 1 (Fault.fired "wire.send");
            (* the redialed connection keeps working *)
            ignore
              (Client.install c ~entity:E.stimuli ~label:"post-tear" stim_sexp);
            Alcotest.(check int) "applied exactly once" 1
              (List.length (Client.browse c (only E.stimuli)))));
    Alcotest.test_case "a torn hello fails the dial, not the codec state"
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
            (* the hello itself tears: no connection was ever
               established, so the injection surfaces raw from the
               eager dial *)
            Fault.arm ~times:1 "wire.send" (Fault.Torn 5);
            (match Client.connect ~socket () with
            | c ->
              Client.close c;
              Alcotest.fail "expected the torn hello to surface"
            | exception Fault.Injected _ -> ());
            Alcotest.(check int) "the fault fired" 1 (Fault.fired "wire.send");
            (* a fresh dial starts from scratch *)
            Client.with_client ~socket @@ fun c ->
            Alcotest.(check string) "a fresh hello is served" "primary"
              (Client.stat c).Wire.st_role));
  ]

let suite =
  [
    ("wire-v8 codec", codec_props);
    ("wire-v8 golden", golden);
    ("wire-v8 framing", framing);
    ("wire-v8 refusals", refusals);
    ("wire-v8 faults", faults);
  ]
