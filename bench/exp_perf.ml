(* Experiment P: the hot paths.

   1. Journal group commit -- write throughput against a scratch server
      with sync=always (one fsync inside every append) vs sync=group
      (one fsync per drained writer batch).  The workload pipelines
      installs in batches of 32, so group mode pays one disk flush
      where always mode pays 32.
   2. Wire pipelining -- one batch-of-32 frame vs 32 singleton round
      trips over the Unix socket.
   3. Versioning -- the cost of the 5k [History.add] calls of an edit
      chain per record (each derives its version edge), then versions /
      latest_version latency on a snapshot of that chain, answered from
      the version nodes the adds kept in the history state.

   Exported gauges (for --json): perf.write.{always_rps,group_rps,
   speedup}, perf.rtt.{singleton_rps,batch32_rps,speedup},
   perf.query.{add_us,versions_us,latest_us}. *)

open Ddf
module E = Standard_schemas.E

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddf-bench-perf-%d-%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let seed ctx = ignore (Workspace.of_session (Session.of_context ctx))

let with_scratch_server ?sync_mode f =
  let dir = fresh_dir () in
  let socket = Filename.concat dir "s.sock" in
  let t =
    Server.start ?sync_mode ~seed ~db:dir ~socket Standard_schemas.odyssey
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Server.wait t;
      rm_rf dir)
    (fun () -> f socket)

let batch_size = 32

(* ------------------------------------------------------------------ *)
(* 1. Group commit vs per-append fsync                                 *)
(* ------------------------------------------------------------------ *)

let write_batches = 32

let install_req i j =
  Wire.Install
    {
      entity = E.stimuli;
      label = Printf.sprintf "p%d-%d" i j;
      keywords = [];
      value =
        Codec.value_to_sexp (Value.Stimuli (Eda.Stimuli.exhaustive [ "a" ]));
    }

let write_throughput sync_mode =
  with_scratch_server ~sync_mode @@ fun socket ->
  Client.with_client ~user:"perf" ~socket @@ fun c ->
  ignore (Client.batch c (List.init batch_size (install_req 0)));  (* warmup *)
  let t0 = Unix.gettimeofday () in
  for i = 1 to write_batches do
    List.iter
      (function
        | Wire.Error e -> failwith ("install failed: " ^ Error.message e) | _ -> ())
      (Client.batch c (List.init batch_size (install_req i)))
  done;
  float_of_int (write_batches * batch_size) /. (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* 2. Pipelined batch vs singleton round trips                         *)
(* ------------------------------------------------------------------ *)

let rtt_rounds = 50

let round_trips () =
  with_scratch_server @@ fun socket ->
  Client.with_client ~user:"perf" ~socket @@ fun c ->
  Client.ping c;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rtt_rounds do
    for _ = 1 to batch_size do
      Client.ping c
    done
  done;
  let singleton_s = Unix.gettimeofday () -. t0 in
  let pings = List.init batch_size (fun _ -> Wire.Ping) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rtt_rounds do
    ignore (Client.batch c pings)
  done;
  let batched_s = Unix.gettimeofday () -. t0 in
  let n = float_of_int (rtt_rounds * batch_size) in
  (n /. singleton_s, n /. batched_s)

(* ------------------------------------------------------------------ *)
(* 3. Version queries over a long edit chain                           *)
(* ------------------------------------------------------------------ *)

let chain_len = 5_000
let query_rounds = 100

let version_queries () =
  let schema = Standard_schemas.odyssey in
  let store = Store.create () in
  let h = History.create () in
  let put i =
    Store.put store ~entity:E.edited_netlist
      ~hash:(Printf.sprintf "h%d" i)
      ~meta:(Store.meta ~created_at:i ())
      ()
  in
  let v0 = put 0 in
  let chain = Array.init chain_len (fun i -> put (i + 1)) in
  (* the adds derive the version edges: that cost is on the write path *)
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun i v ->
      let prev = if i = 0 then v0 else chain.(i - 1) in
      ignore
        (History.add h (Store.snapshot store) schema
           ~task_entity:E.edited_netlist ~tool:None
           ~inputs:[ ("source", prev) ]
           ~outputs:[ (E.edited_netlist, v) ]
           ~at:(i + 1)))
    chain;
  let add_us =
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int chain_len
  in
  let snap = History.snapshot h in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to query_rounds do
    ignore (History.Snapshot.versions snap v0)
  done;
  let versions_us =
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int query_rounds
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to query_rounds do
    ignore (History.Snapshot.latest_version snap chain.(chain_len - 1))
  done;
  let latest_us =
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int query_rounds
  in
  (add_us, versions_us, latest_us)

let run () =
  Bench_util.section
    (Printf.sprintf "group commit: %d batches of %d installs per sync mode"
       write_batches batch_size);
  let always_rps = write_throughput Journal.Always in
  let group_rps = write_throughput Journal.Group in
  let w_speedup = group_rps /. always_rps in
  Printf.printf "  sync=always %.0f writes/s, sync=group %.0f writes/s (%.1fx)\n"
    always_rps group_rps w_speedup;
  Metrics.set (Metrics.gauge "perf.write.always_rps") always_rps;
  Metrics.set (Metrics.gauge "perf.write.group_rps") group_rps;
  Metrics.set (Metrics.gauge "perf.write.speedup") w_speedup;

  Bench_util.section
    (Printf.sprintf "pipelining: batch of %d vs %d singleton round trips"
       batch_size batch_size);
  let singleton_rps, batch_rps = round_trips () in
  let r_speedup = batch_rps /. singleton_rps in
  Printf.printf "  singleton %.0f req/s, batch-of-%d %.0f req/s (%.1fx)\n"
    singleton_rps batch_size batch_rps r_speedup;
  Metrics.set (Metrics.gauge "perf.rtt.singleton_rps") singleton_rps;
  Metrics.set (Metrics.gauge "perf.rtt.batch32_rps") batch_rps;
  Metrics.set (Metrics.gauge "perf.rtt.speedup") r_speedup;

  Bench_util.section
    (Printf.sprintf "version queries over a %d-record edit chain" chain_len);
  let add_us, versions_us, latest_us = version_queries () in
  Printf.printf
    "  add %.2f us per record; versions %.1f us, latest_version %.2f us per \
     query\n"
    add_us versions_us latest_us;
  Metrics.set (Metrics.gauge "perf.query.add_us") add_us;
  Metrics.set (Metrics.gauge "perf.query.versions_us") versions_us;
  Metrics.set (Metrics.gauge "perf.query.latest_us") latest_us
