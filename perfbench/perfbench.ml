(* The design-server benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --hercules PATH --work DIR --out FILE [--flambda B]

   Starts `hercules serve` in its own process (default flags), builds the
   workload's initial state through the wire, drives it for S seconds
   from at most two connections, checks the outputs, restarts the server
   and bootstraps followers, and prints one JSON result as its last line
   of output.  --trace 0 reports the end-to-end metrics, their times
   stated on a reference host (see Host); --trace 1 the per-layer ones
   (see NOTES.md).  Everything is written under DIR, the full record to
   FILE. *)

open Ddf
open Load

type args = {
  workload : Workloads.t;
  seed : int;
  seconds : float;
  traced : bool;
  hercules : string;
  work : string;
  out : string;
  flambda : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let hercules = ref "" and work = ref "" and out = ref "" and flambda = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--hercules", Arg.Set_string hercules, "PATH of hercules.exe");
      ("--work", Arg.Set_string work, "DIR for databases and sockets");
      ("--out", Arg.Set_string out, "FILE for the full record");
      ("--flambda", Arg.Set_string flambda, "whether the compiler has flambda") ]
    (fun a -> raise (Arg.Bad a))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --hercules PATH --work DIR --out FILE";
  let workload =
    match Workloads.of_string !workload with
    | Some w -> w
    | None -> Proc.fail "unknown workload %S" !workload
  in
  if !hercules = "" || !work = "" || !out = "" then Proc.fail "--hercules, --work and --out are required";
  { workload; seed = !seed; seconds = !seconds; traced = !trace = 1; hercules = !hercules;
    work = !work; out = !out; flambda = !flambda }

let socket = "p.sock"
let log = "server.log"

(* ------------------------------------------------------------------ *)
(* Server registry (the Metrics verb)                                  *)
(* ------------------------------------------------------------------ *)

let admin_call socket f = Client.with_client ~user:"perfbench-admin" ~timeout:120. ~socket f

let counter ms name =
  List.fold_left
    (fun acc m -> match m with Metrics.Counter (n, v) when n = name -> v | _ -> acc)
    0 ms

let histo ms name =
  List.fold_left
    (fun acc m -> match m with Metrics.Histogram (n, h) when n = name -> Some h | _ -> acc)
    None ms

let dcount before after name = float_of_int (counter after name - counter before name)

(* Histogram n/sum difference; the bucket quantiles of *_seconds
   histograms are not used (every value <= 1 lands in bucket 0). *)
let dhisto before after name =
  let n_sum ms =
    match histo ms name with Some h -> (h.Metrics.hs_n, h.Metrics.hs_sum) | None -> (0, 0.)
  in
  let n0, s0 = n_sum before and n1, s1 = n_sum after in
  (n1 - n0, s1 -. s0)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

let wait_until ?(timeout = 120.) what f =
  let deadline = now () +. timeout in
  let rec go () =
    match f () with
    | Some x -> x
    | None ->
      if now () > deadline then Proc.fail "timed out waiting for %s" what;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Batches of 32 installs sent one after another on one connection,
   with nothing else in flight, right after each set-up: the time of a
   tool batch without the window's queueing (which delays a share of
   the window's batches that changes from run to run), sampled on every
   set-up, so that the samples span the run with the set-ups.  The journal is compacted
   first and the batches stay below the next compaction (15 x 32 < 512
   entries): otherwise where the compaction fell among them followed the
   seed, and so did the time of the batches after it. *)
let quiet_batches = 15
let batch_runs : stats list ref = ref []

(* Set up the workload's initial state on a fresh database [db<k>] served
   on [socket], then send the quiet batches.  Returns the server, the
   setup connections and the set-up time (launch to ready). *)
let setup a ~socket k =
  let db = Printf.sprintf "db%d" k in
  Hashtbl.reset catalog;
  Host.probe ();
  let t0 = now () in
  let srv = Proc.start ~hercules:a.hercules ~db ~socket ~log () in
  let conns = Workloads.setup a.workload ~socket ~seed:a.seed in
  let dt = now () -. t0 in
  admin_call socket Client.compact;
  let conn = conns.(0) in
  let c = Client.connect ~user:conn.user ~retries:2 ~timeout:60. ~socket () in
  conn.call <- Client.call c;
  reset_stats conn.stats;
  for _ = 1 to quiet_batches do
    Workloads.guarded (fun () -> Workloads.one_batch conn)
  done;
  Client.close c;
  batch_runs := merge_stats [ conn.stats ] :: !batch_runs;
  (srv, conns, dt)

(* One more set-up on database [db<k>] beside the primary, only timed
   (and its quiet batches).  An untraced run takes one after each
   restart and bootstrap, so that the set-up samples span the run and
   their median follows the host's speed over the whole run rather than
   over one second of it. *)
let timed_setup a k =
  let srv, _, dt = setup a ~socket:"s.sock" k in
  Proc.stop srv;
  Proc.rm_rf srv.Proc.db;
  dt

(* The measured window on fresh connections that continue the setup
   connections' state. *)
let run_traffic a ~seconds conns =
  let clients =
    Array.map
      (fun conn ->
        let c = Client.connect ~user:conn.user ~retries:2 ~timeout:60. ~socket () in
        conn.call <- Client.call c;
        reset_stats conn.stats;
        c)
      conns
  in
  let cpu0 = Unix.times () in
  let wall = Workloads.open_loop conns ~seconds ~seed:a.seed in
  let cpu1 = Unix.times () in
  Array.iter Client.close clients;
  let gen_cpu =
    cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime
  in
  (wall, gen_cpu /. wall, merge_stats (Array.to_list (Array.map (fun c -> c.stats) conns)))

(* Samples of each operator step per run. *)
let restarts = 11

type epilogue = {
  recover : float list;
  catchup : float list;
  served_kb : float list;  (* VmHWM of each restarted primary once it fed a follower *)
  disk_bytes : int;
  user_bytes : int;
  follower_reconnects : int;
  db_fs : string;
}

(* Journal entries after the snapshot when the operator steps start. *)
let tail_entries = 256

(* Restarts and follower bootstraps after the window, taken in turns so
   that each step's samples span the epilogue, each pair followed by
   [between i]; then the output checks.
   The journal is compacted first and given a fixed tail of annotations:
   the window leaves anywhere from 0 to 511 entries after the last
   compaction, and a follower applies each of them as a streamed frame,
   so without this its bootstrap time followed the seed. *)
let epilogue ?(between = ignore) a (srv : Proc.server) conns =
  let db = srv.Proc.db in
  let fingerprint sock =
    let _, _, seq, fp, _, _ = admin_call sock Client.sync_digest in
    (seq, fp)
  in
  admin_call socket Client.compact;
  (let conn = conns.(0) in
   let c = Client.connect ~user:conn.user ~retries:2 ~timeout:60. ~socket () in
   conn.call <- Client.call c;
   Workloads.annotate_history conn ~n:tail_entries;
   Client.close c);
  let before = admin_call socket Client.stat in
  let pseq, pfp = fingerprint socket in
  let srv = ref srv and recover = ref [] and catchup = ref [] and served = ref []
  and reconnects = ref 0 in
  for i = 1 to restarts do
    (* restart until stat answers with the same seq *)
    Host.probe ();
    Proc.stop !srv;
    let t0 = now () in
    let s = Proc.start ~hercules:a.hercules ~db ~socket ~log () in
    let st =
      wait_until "the restarted server" (fun () ->
          match admin_call socket Client.stat with
          | st when st.Wire.st_seq = before.Wire.st_seq -> Some st
          | _ -> None
          | exception _ -> None)
    in
    recover := (now () -. t0) :: !recover;
    srv := s;
    check
      (st.Wire.st_instances = before.Wire.st_instances
      && st.Wire.st_records = before.Wire.st_records)
      "after a restart: %d instances, %d records; before: %d, %d" st.Wire.st_instances
      st.Wire.st_records before.Wire.st_instances before.Wire.st_records;
    (* bootstrap a fresh follower until its fingerprint equals the
       primary's *)
    let fdb = Printf.sprintf "follower%d" i and fsock = "f.sock" in
    Host.probe ();
    let t0 = now () in
    let f = Proc.start ~hercules:a.hercules ~db:fdb ~socket:fsock ~extra:[ "--follow"; socket ] ~log () in
    (* poll the cheap stat until the follower has applied everything,
       then compare fingerprints once (the digest is a writer job) *)
    wait_until ~timeout:60. "the follower's seq" (fun () ->
        match admin_call fsock Client.stat with
        | st when st.Wire.st_seq >= pseq -> Some ()
        | _ -> None
        | exception _ -> None);
    let fseq, ffp = fingerprint fsock in
    check (fseq = pseq && ffp = pfp) "follower at seq %d (primary %d) has another fingerprint"
      fseq pseq;
    catchup := (now () -. t0) :: !catchup;
    served := float_of_int (Proc.vm_hwm_kb s.Proc.pid) :: !served;
    if a.traced then
      reconnects :=
        !reconnects + counter (admin_call fsock Client.metrics) "replica.follower_reconnects";
    Proc.stop f;
    Proc.rm_rf fdb;
    between i
  done;
  (* every acknowledged install is found by a final browse *)
  let all_conns = Array.to_list conns in
  let rows = admin_call socket (fun c -> Client.browse c Store.any_filter) in
  let present = Hashtbl.create 65536 in
  let labelled = ref 0 in
  List.iter
    (fun r ->
      Hashtbl.replace present r.Wire.row_iid ();
      let l = r.Wire.row_meta.Store.label in
      if String.length l > 3 && String.sub l 0 3 = "pb/" then incr labelled)
    rows;
  let acked = List.concat_map (fun c -> c.acked) all_conns in
  let missing = List.filter (fun i -> not (Hashtbl.mem present i)) acked in
  check (missing = []) "%d acknowledged install(s) missing from the final browse"
    (List.length missing);
  check (!labelled = List.length acked) "final browse has %d generated instances, %d acknowledged"
    !labelled (List.length acked);
  admin_call socket Client.compact;
  let disk_bytes = Proc.du db in
  Proc.stop !srv;
  { recover = !recover; catchup = !catchup; served_kb = !served; disk_bytes;
    user_bytes = List.fold_left (fun n (c : conn) -> n + c.user_bytes) 0 all_conns;
    follower_reconnects = !reconnects; db_fs = Proc.fs_type db }

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string x.m_name)
           (json_number x.m_value) (Span.json_string x.m_unit))
       ms)

(* Times are scaled by [scale] to the reference host (see Host); the
   rate is the open loop's achieved rate, which its schedule sets. *)
let end_to_end ~scale ~setup_s ~wall ~batches (s : stats) (e : epilogue) =
  [ m "setup_s" "s" (median setup_s *. scale);
    m "ops_per_s" "1/s" (float_of_int (s.attempted - s.failed) /. wall);
    m "batch_p50_us" "us" (quantile (samples batches Batch) 0.5 *. 1e6 *. scale);
    m "recover_s" "s" (median e.recover *. scale);
    m "catchup_s" "s" (median e.catchup *. scale);
    m "disk_bytes_per_user_byte" "ratio"
      (float_of_int e.disk_bytes /. float_of_int (max 1 e.user_bytes));
    m "server_rss_mb" "MiB" (median e.served_kb /. 1024.) ]

let descriptor a ~e ~s ~gen_cpu extra =
  let counts =
    String.concat ", "
      (List.map
         (fun c ->
           Printf.sprintf "\"%s\": %d" (cls_name c) (Array.length (samples s c)))
         classes)
  in
  let shape =
    String.concat ", "
      (List.filter_map
         (fun c ->
           let a = samples s c in
           if a = [||] then None
           else
             Some
               (Printf.sprintf "\"%s\": [%s]" (cls_name c)
                  (String.concat ", "
                     (List.map
                        (fun q -> Printf.sprintf "%.1f" (quantile a q *. 1e6))
                        [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.99; 1.0 ]))))
         classes)
  in
  let lag = Workloads.health.Workloads.wake_lag in
  Printf.sprintf
    "{\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"nproc\": %d, \
     \"ocaml\": \"%s\", \"flambda\": \"%s\", \"db_fs\": \"%s\", \"server_flags\": %s, \
     \"flush_policy\": \"group commit: one fsync per write batch before any ack\", \
     \"offered\": %s, \"cache\": \"every payload resident in the store; \
     Journal.evict_cold is never called by the server\", \"samples\": {%s}, \
     \"deciles_us\": {%s}, \
     \"generator_cpu_share\": %.4f, \"wake_lag_p50_ms\": %.3f, \"wake_lag_p99_ms\": %.3f, \
     \"backlog_max_s\": %.3f, \"errors\": [%s], \"check_failures\": [%s]%s}"
    (Workloads.name a.workload) a.seed a.seconds a.traced
    (Domain.recommended_domain_count ()) Sys.ocaml_version a.flambda e.db_fs
    (Span.json_string (String.concat " " Proc.server_flags))
    (Span.json_string Workloads.offered) counts shape gen_cpu
    (if lag = [] then 0. else median lag *. 1e3)
    (if lag = [] then 0. else quantile (Array.of_list lag) 0.99 *. 1e3)
    Workloads.health.Workloads.backlog_max
    (String.concat ", " (List.map Span.json_string s.errors))
    (String.concat ", " (List.map Span.json_string !check_failures))
    extra

(* An open loop's generator is behind when it wakes late for sessions
   that found their connection idle. *)
let generator_behind () =
  match Workloads.health.Workloads.wake_lag with
  | [] -> false
  | l -> quantile (Array.of_list l) 0.99 > 0.05

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let replay a ~db conns ~seconds =
  Proc.copy_tree db "replay";
  let t, open_s = Local.open_ ~dir:"replay" in
  Array.iter
    (fun conn ->
      conn.call <- Local.call t ~user:conn.user;
      reset_stats conn.stats)
    conns;
  let rng = Random.State.make [| a.seed; 31 |] in
  let plan = Workloads.session_plan rng 4096 in
  let stop = now () +. seconds and i = ref 0 in
  while now () < stop do
    let conn = conns.(!i mod Array.length conns) in
    Workloads.guarded (fun () -> Workloads.session conn plan.(!i mod Array.length plan));
    incr i
  done;
  (* version queries on the live handles, per edit chain *)
  Array.iter
    (fun conn ->
      match conn.chain with
      | Some ch ->
        for _ = 1 to 20 do
          ignore
            (Span.with_span "history.latest_version" (fun () ->
                 History.latest_version t.Local.ctx.Engine.history t.Local.ctx.Engine.store
                   schema ch.c_root));
          ignore
            (Span.with_span "history.versions" (fun () ->
                 History.versions t.Local.ctx.Engine.history t.Local.ctx.Engine.store schema
                   ch.c_root))
        done
      | None -> ())
    conns;
  Journal.close t.Local.j;
  let cement = Cement.open_ ~dir:(Filename.concat "replay" "cemented") in
  let first = Cement.first_seq cement and last = Cement.last_seq cement in
  if Cement.segment_count cement > 0 && last >= first then
    for _ = 1 to 500 do
      let seq = first + Random.State.int rng (last - first + 1) in
      ignore (Span.with_span "cement.read" (fun () -> Cement.read cement seq))
    done;
  Cement.close cement;
  let replayed = merge_stats (Array.to_list (Array.map (fun c -> c.stats) conns)) in
  (t, open_s, replayed)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let run a =
  Unix.chdir a.work;
  let srv, conns, setup_dt = setup a ~socket 0 in
  let srv_pid = srv.Proc.pid in
  let all_conns = Array.to_list conns in
  if not a.traced then begin
    Host.probe ();
    let wall, gen_cpu, s = run_traffic a ~seconds:a.seconds conns in
    (* the window's own peak, for the record: it depends on when the
       server's GC ran relative to the last compactions *)
    let window_kb = Proc.vm_hwm_kb srv_pid in
    let setups = ref [ setup_dt ] in
    let e = epilogue a srv conns ~between:(fun i -> setups := timed_setup a i :: !setups) in
    let setup_s = !setups in
    let scale = Host.scale () and batches = merge_stats !batch_runs in
    let metrics = end_to_end ~scale ~setup_s ~wall ~batches s e in
    let raw = end_to_end ~scale:1. ~setup_s ~wall ~batches s e in
    let behind = generator_behind () in
    check (not behind) "the open-loop generator fell behind its schedule";
    List.iter
      (fun x -> check (Float.is_finite x.m_value && x.m_value > 0.) "metric %s is %g" x.m_name x.m_value)
      metrics;
    let floats l = String.concat ", " (List.map (Printf.sprintf "%.4f") l) in
    let extra =
      Printf.sprintf
        ", \"window_hwm_mb\": %.1f, \"host_scale\": %.4f, \"host_samples_s\": [%s], \"raw_metrics\": {%s}, \
         \"quiet_batch_deciles_us\": [%s], \"quiet_batch_p50_per_setup_us\": [%s], \
         \"setup_samples_s\": [%s], \"recover_samples_s\": [%s], \"catchup_samples_s\": [%s], \
         \"served_hwm_kb\": [%s]"
        (float_of_int window_kb /. 1024.) scale (floats (List.rev !Host.samples)) (json_metrics raw)
        (String.concat ", "
           (List.map
              (fun q -> Printf.sprintf "%.1f" (quantile (samples batches Batch) q *. 1e6))
              [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.99; 1.0 ]))
        (String.concat ", "
           (List.rev_map
              (fun b -> Printf.sprintf "%.1f" (quantile (samples b Batch) 0.5 *. 1e6))
              !batch_runs))
        (floats setup_s) (floats e.recover) (floats e.catchup) (floats e.served_kb)
    in
    (metrics, merge_stats [ s; batches ], descriptor a ~e ~s ~gen_cpu extra)
  end
  else begin
    (* four windows of S/4: untraced, traced, traced, untraced, so that
       the store's growth over the run weighs equally on both sides of
       the tracing-overhead ratio *)
    let window traced =
      Span.enabled := traced;
      run_traffic a ~seconds:(a.seconds /. 4.) conns
    in
    let reg0 = admin_call socket Client.metrics in
    let cpu0 = Proc.cpu_s srv_pid in
    let w1, cpu_1, s1 = window false in
    let w2, _, s2 = window true in
    let w3, _, s3 = window true in
    let w4, cpu_4, s4 = window false in
    let reg1 = admin_call socket Client.metrics in
    let cpu1 = Proc.cpu_s srv_pid in
    let wall_u = w1 +. w4 and wall_t = w2 +. w3 in
    let s_u = merge_stats [ s1; s4 ] and s_t = merge_stats [ s2; s3 ] in
    let gen_cpu = ((cpu_1 *. w1) +. (cpu_4 *. w4)) /. wall_u in
    let wal_bytes =
      Proc.du (Filename.concat srv.Proc.db "wal.ddf")
      + Proc.du (Filename.concat srv.Proc.db "cemented")
    and cemented_bytes = Proc.du (Filename.concat srv.Proc.db "cemented") in
    let user_bytes_now = List.fold_left (fun n (c : conn) -> n + c.user_bytes) 0 all_conns in
    Span.enabled := true;
    let ping =
      admin_call socket (fun c ->
          List.init 2000 (fun _ ->
              let t0 = now () in
              Span.with_span "client.ping" (fun () -> Client.ping c);
              now () -. t0))
    in
    let export_s, export_bytes =
      admin_call socket (fun c ->
          let t0 = now () in
          let _, bytes = Client.snapshot_export c ~out:"export.snap" in
          (now () -. t0, bytes))
    in
    Proc.rm_rf "export.snap";
    let e = epilogue a srv conns in
    let remote_spans = Span.all () in
    Span.clear ();
    let t, open_s, replayed = replay a ~db:srv.Proc.db conns ~seconds:(Float.min (a.seconds /. 2.) 5.) in
    let spans = Span.all () in
    Span.write_jsonl "spans.jsonl" (remote_spans @ spans);
    let mean name = Option.value ~default:0. (Span.mean_us spans name) in
    let dc = dcount reg0 reg1 in
    let requests = dc "server.requests" in
    let fold_n, fold_sum = dhisto reg0 reg1 "cement.fold_seconds" in
    let cmp_n, cmp_sum = dhisto reg0 reg1 "journal.compact_seconds" in
    let depth_n, depth_sum = dhisto reg0 reg1 "history.backward_depth" in
    let hq name q =
      match histo reg1 name with
      | Some h -> if q = 0.5 then h.Metrics.hs_p50 else h.Metrics.hs_p99
      | None -> 0.
    in
    let wire_bytes =
      List.fold_left
        (fun acc n -> acc +. dc n)
        0.
        [ "wire.binary.bytes_in"; "wire.binary.bytes_out"; "wire.sexp.bytes_in";
          "wire.sexp.bytes_out" ]
    in
    let client_p50_us =
      quantile (Array.append (samples s_u Write) (samples s_u Read)) 0.5 *. 1e6
    in
    let ops_u = float_of_int (s_u.attempted - s_u.failed) /. wall_u
    and ops_t = float_of_int (s_t.attempted - s_t.failed) /. wall_t in
    let n_goal = float_of_int (Span.count spans "request.start-goal") in
    let build_total =
      List.fold_left
        (fun acc s -> if s.Span.name = "session.build" then acc +. Span.duration s else acc)
        0. spans
    in
    let compact_us =
      match Span.mean_us spans "journal.compact" with
      | Some v -> v
      | None -> ratio cmp_sum (float_of_int cmp_n) *. 1e6
    in
    let metrics =
      [ m "wire.decode_us" "us" (mean "wire.decode");
        m "wire.encode_us" "us" (mean "wire.encode");
        m "wire.bytes_per_op" "bytes" (ratio wire_bytes requests);
        m "client.ping_us" "us" (median ping *. 1e6);
        m "client.retries" "count" (float_of_int (counter (Metrics.snapshot Metrics.global) "client.retries"));
        m "client.ambiguous_commits" "count"
          (float_of_int (counter (Metrics.snapshot Metrics.global) "client.ambiguous_commits"));
        m "server.request_p50_us" "us" (hq "server.request_us" 0.5);
        m "server.request_p99_us" "us" (hq "server.request_us" 0.99);
        m "server.transport_p50_us" "us" (client_p50_us -. hq "server.request_us" 0.5);
        m "server.queue_wait_p50_us" "us" (hq "server.write_queue_wait_us" 0.5);
        m "server.queue_wait_p99_us" "us" (hq "server.write_queue_wait_us" 0.99);
        m "server.shed_per_op" "ratio" (ratio (dc "server.shed") requests);
        m "server.errors_per_op" "ratio" (ratio (dc "server.errors") requests);
        m "server.deadline_missed" "count" (dc "server.deadline_missed");
        m "server.lock_acquisitions_per_write" "ratio"
          (ratio (dc "server.lock_acquisitions") (dc "server.mutations"));
        m "server.cpu_us_per_op" "us" (ratio ((cpu1 -. cpu0) *. 1e6) requests);
        m "journal.writes_per_sync" "ratio" (ratio (dc "journal.appends") (dc "journal.syncs"));
        m "journal.sync_us" "us" (mean "journal.sync");
        m "journal.compactions_per_10k_writes" "ratio"
          (ratio (dc "journal.compactions" *. 1e4) (dc "journal.appends"));
        m "journal.compact_us" "us" compact_us;
        m "journal.bytes_per_write" "bytes"
          (ratio (float_of_int wal_bytes) (float_of_int (counter reg1 "journal.appends")));
        m "journal.open_s" "s" open_s;
        m "cement.fold_us" "us" (ratio fold_sum (float_of_int fold_n) *. 1e6);
        m "cement.bytes_per_user_byte" "ratio"
          (ratio (float_of_int cemented_bytes) (float_of_int user_bytes_now));
        m "cement.read_us" "us" (mean "cement.read");
        m "cement.reads" "count" (dc "cement.reads");
        m "store.browse_us" "us" (mean "store.browse");
        m "store.examined_per_returned" "ratio"
          (ratio (float_of_int t.Local.examined) (float_of_int t.Local.returned));
        m "store.dedup_ratio" "ratio" (ratio (dc "store.dedup_hits") (dc "store.puts"));
        m "history.trace_us" "us" (mean "history.trace");
        m "history.uses_us" "us" (mean "history.uses");
        m "history.latest_version_us" "us" (mean "history.latest_version");
        m "history.versions_us" "us" (mean "history.versions");
        m "history.backward_depth_mean" "count" (ratio depth_sum (float_of_int depth_n));
        m "exec.run_us" "us" (mean "exec.run");
        m "exec.memo_hit_ratio" "ratio"
          (ratio (dc "engine.memo_hits") (dc "engine.memo_hits" +. dc "engine.executed"));
        m "exec.refresh_us" "us" (mean "exec.refresh");
        m "exec.refresh_reuse_ratio" "ratio"
          (ratio (dc "consistency.reused") (dc "consistency.reran" +. dc "consistency.reused"));
        m "exec.pin_us" "us" (mean "exec.pin");
        m "exec.install_us" "us" (mean "exec.install");
        m "session.build_us" "us" (ratio build_total n_goal);
        m "session.expands_per_flow" "ratio"
          (ratio (float_of_int (Span.count spans "request.expand")) n_goal);
        m "replica.snapshot_export_s" "s" export_s;
        m "replica.bootstrap_bytes" "bytes" (float_of_int export_bytes);
        m "replica.follower_reconnects" "count" (float_of_int e.follower_reconnects);
        m "trace.ops_ratio" "ratio" (ratio ops_t ops_u);
        m "trace.unattributed_share" "ratio"
          (Span.unattributed_share spans ~is_request:(fun n ->
               String.length n > 8 && String.sub n 0 8 = "request."));
        m "gen.cpu_share" "ratio" gen_cpu;
        m "gen.wake_lag_p99_ms" "ms"
          (match Workloads.health.Workloads.wake_lag with
          | [] -> 0.
          | l -> quantile (Array.of_list l) 0.99 *. 1e3) ]
    in
    let s = merge_stats (s_u :: s_t :: !batch_runs) in
    let extra =
      Printf.sprintf
        ", \"untraced_ops_per_s\": %.3f, \"traced_ops_per_s\": %.3f, \"replayed_requests\": %d, \
         \"replay_failed\": %d, \"spans\": \"spans.jsonl\""
        ops_u ops_t replayed.attempted replayed.failed
    in
    (metrics, s, descriptor a ~e ~s ~gen_cpu extra)
  end

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  match
    let a = parse_args () in
    (a, run a)
  with
  | a, (metrics, s, desc) ->
    let correct = !check_failures = [] in
    let full =
      Printf.sprintf "{\"descriptor\": %s, \"metrics\": {%s}}\n" desc (json_metrics metrics)
    in
    let oc = open_out a.out in
    output_string oc full;
    close_out oc;
    if not correct then begin
      List.iter (Printf.printf "perfbench: check failed: %s\n") (List.rev !check_failures);
      Printf.printf "{\"correct\": false, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n%!"
        s.attempted s.failed;
      exit 1
    end;
    Printf.printf "# %s\n" desc;
    Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      s.attempted s.failed (json_metrics metrics)
  | exception e ->
    Proc.kill_all ();
    Printf.eprintf "perfbench: %s\n%!"
      (match e with Proc.Failed m -> m | e -> Printexc.to_string e);
    exit 1
