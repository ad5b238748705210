(* The standard-cell-to-PLA re-implementation scenario the paper
   borrows from Chiueh & Katz (section 2): a designer implements a
   logic circuit with standard cells, then repositions to the netlist
   and creates a new branch that re-implements the same circuit as a
   PLA.  In Hercules terms: a data-based start from the netlist
   instance, a new goal, and the design history then shows both
   implementation branches hanging off the same netlist. *)

open Ddf
module E = Standard_schemas.E

let () =
  let w = Workspace.create ~user:"chiueh" () in
  let ctx = Workspace.ctx w in
  let session = Workspace.session w in

  let spec = Eda.Circuits.mux4 () in
  let netlist_iid =
    Workspace.install_netlist w ~label:"mux4 logic" ~keywords:[ "mux" ] spec
  in

  (* ---- branch 1: standard cells ------------------------------------ *)
  print_endline "# branch 1: standard-cell implementation";
  let std_node = Session.start_data_based session netlist_iid in
  let layout_node, _fresh =
    Session.expand_up ~include_optional:false session std_node
      ~consumer:E.synthesized_layout
  in
  let flow = Session.current_flow session in
  (match Workspace.find_nodes flow E.placer with
  | [ placer ] -> Session.select session placer [ Workspace.tool w E.placer ]
  | _ -> assert false);
  let std_layout_iid = List.hd (Session.run session layout_node) in
  let std_layout = Workspace.layout_of w std_layout_iid in
  Format.printf "standard cells: %a@." Eda.Layout.pp std_layout;

  (* ---- branch 2: reposition to the netlist, create a PLA ----------- *)
  print_endline "\n# branch 2: data-based restart, PLA re-implementation";
  let pla_start = Session.start_data_based session netlist_iid in
  let pla_node, _ =
    Session.expand_up session pla_start ~consumer:E.pla_layout
  in
  let flow = Session.current_flow session in
  (match Workspace.find_nodes flow E.pla_generator with
  | [ gen ] -> Session.select session gen [ Workspace.tool w E.pla_generator ]
  | _ -> assert false);
  let pla_layout_iid = List.hd (Session.run session pla_node) in
  let pla_layout = Workspace.layout_of w pla_layout_iid in
  Format.printf "PLA:            %a@." Eda.Layout.pp pla_layout;

  (* area and depth comparison between the two implementations *)
  let extract l =
    let nl, _ = Eda.Extract.run l in
    nl
  in
  let std_nl = extract std_layout and pla_nl = extract pla_layout in
  Printf.printf
    "\nstd-cell: area %d, depth %d | PLA: area %d, depth %d\n"
    (Eda.Layout.area std_layout)
    (Eda.Netlist.depth std_nl)
    (Eda.Layout.area pla_layout)
    (Eda.Netlist.depth pla_nl);

  (* the PLA branch must implement the same function: compare truth
     tables through compiled simulation *)
  let tt nl =
    let c = Eda.Sim_compiled.compile nl in
    Eda.Sim_compiled.run c (Eda.Stimuli.exhaustive spec.Eda.Netlist.primary_inputs)
    |> List.map (List.map snd)
  in
  Printf.printf "functionally equivalent implementations: %b\n"
    (tt spec = tt std_nl && tt spec = tt pla_nl);

  (* ---- the history shows both branches off the netlist ------------- *)
  print_endline "\n# forward chaining from the shared netlist";
  let view = Engine.pin ctx in
  let records =
    History.Snapshot.forward_closure view.Engine.v_history netlist_iid
  in
  List.iter
    (fun (r : History.record) ->
      Printf.printf "  r%d: %s -> %s\n" r.History.rid r.History.task_entity
        (String.concat ", "
           (List.map
              (fun (e, i) -> Printf.sprintf "#%d:%s" i e)
              r.History.outputs)))
    records;
  Printf.printf "branches rooted at the netlist: %d\n" (List.length records);

  (* a template query (section 4.2): "find the layouts synthesized from
     this netlist" *)
  let g, root = Task_graph.create (Workspace.schema w) E.layout in
  let matches =
    History.Snapshot.query_template view.Engine.v_history view.Engine.v_store g
      ~bound:[]
  in
  ignore root;
  Printf.printf "layout instances known to the history: %d\n"
    (List.length matches)
