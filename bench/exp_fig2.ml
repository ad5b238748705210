(* E2 / Fig. 2: a tool created during the design -- the compiled
   simulator, and its crossover against interpretive simulation. *)

open Ddf
open Bechamel
module E = Standard_schemas.E

let run () =
  Bench_util.header "E2" "Fig. 2: tool created during a design (COSMOS)";
  Bench_util.paper_claim
    "a simulator compiled for a given netlist is itself a design object; \
     compile once, then run cheaply on different stimuli";

  (* structural regeneration: the Fig. 2 flow through the engine *)
  let w = Workspace.create ~user:"bench" () in
  let ctx = Workspace.ctx w in
  let nl = Eda.Circuits.ripple_adder 8 in
  let nl_iid = Workspace.install_netlist w nl in
  let stim_iid =
    Workspace.install_stimuli w
      (Eda.Stimuli.for_netlist ~n:32 nl (Eda.Rng.create 4))
  in
  let f = Standard_flows.fig2 () in
  let bindings =
    Workspace.bind_catalog_tools w f.Standard_flows.f2_graph
      ~already:
        [ (f.Standard_flows.f2_netlist, nl_iid);
          (f.Standard_flows.f2_stimuli, stim_iid) ]
  in
  let run1 = Engine.execute ctx f.Standard_flows.f2_graph ~bindings in
  let tool_iid = Engine.result_of run1 f.Standard_flows.f2_compiled_simulator in
  Printf.printf "flow executed: %d tasks; compiled simulator is instance #%d\n"
    run1.Engine.stats.Engine.executed tool_iid;
  Printf.printf "the tool has a derivation record: %b\n"
    (History.(Snapshot.derivation_of (snapshot (Workspace.history w)) tool_iid)
     <> None);
  (* run on new stimuli: the compile memo-hits *)
  let stim2 =
    Workspace.install_stimuli w
      (Eda.Stimuli.for_netlist ~n:64 nl (Eda.Rng.create 5))
  in
  let bindings2 =
    List.map
      (fun (n, i) -> if n = f.Standard_flows.f2_stimuli then (n, stim2) else (n, i))
      bindings
  in
  let run2 = Engine.execute ctx f.Standard_flows.f2_graph ~bindings:bindings2 in
  Printf.printf
    "rerun on new stimuli: %d executed, %d memo hits (the compile is reused)\n"
    run2.Engine.stats.Engine.executed run2.Engine.stats.Engine.memo_hits;

  (* crossover sweep: event-driven vs compile+run *)
  Bench_util.section "crossover sweep (adder8, median wall-clock, us)";
  let nl = Eda.Circuits.ripple_adder 8 in
  let compiled = Eda.Sim_compiled.compile nl in
  let compile_us = Bench_util.time_us (fun () -> Eda.Sim_compiled.compile nl) in
  let rows =
    List.map
      (fun k ->
        let stim = Eda.Stimuli.for_netlist ~n:k nl (Eda.Rng.create 7) in
        let event = Bench_util.time_us (fun () -> Eda.Sim_event.run nl stim) in
        let crun =
          Bench_util.time_us (fun () -> Eda.Sim_compiled.run compiled stim)
        in
        let total = compile_us +. crun in
        [
          string_of_int k;
          Printf.sprintf "%.0f" event;
          Printf.sprintf "%.0f" compile_us;
          Printf.sprintf "%.0f" crun;
          Printf.sprintf "%.0f" total;
          (if total < event then "compiled" else "event");
        ])
      [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]
  in
  Bench_util.print_table
    [ "vectors"; "event"; "compile"; "comp-run"; "comp-total"; "winner" ]
    rows;

  Bench_util.section "per-operation latency";
  let stim1 = Eda.Stimuli.for_netlist ~n:1 nl (Eda.Rng.create 9) in
  Bench_util.run_bechamel ~name:"fig2"
    [
      Test.make ~name:"compile adder8" (Staged.stage (fun () -> Eda.Sim_compiled.compile nl));
      Test.make ~name:"compiled run, 1 vector"
        (Staged.stage (fun () -> Eda.Sim_compiled.run (Eda.Sim_compiled.compile nl) stim1));
      Test.make ~name:"event-driven, 1 vector"
        (Staged.stage (fun () -> Eda.Sim_event.run nl stim1));
    ]
