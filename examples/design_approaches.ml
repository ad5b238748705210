(* The four design approaches of section 3.4 -- goal-based, tool-based,
   data-based and plan-based -- all reaching the same flow through the
   same interface, plus the Fig. 9 instance browser with its user,
   date and keyword filters. *)

open Ddf
module E = Standard_schemas.E

(* Build the standard extraction flow starting from [start]: extracted
   netlist with its extractor and layout. *)
let build_extraction_flow session start_entity start_node =
  if start_entity = E.extracted_netlist then
    (* goal-based: expand downward *)
    let _ = Session.expand session start_node in
    ()
  else if start_entity = E.extractor then begin
    (* tool-based: the goal options come from the schema *)
    let goals = Session.goal_options session start_node in
    assert (List.mem E.extracted_netlist goals);
    let cnid, _ =
      Session.expand_up session start_node ~consumer:E.extracted_netlist
        ~role:"tool"
    in
    ignore cnid
  end
  else if Schema.is_subtype Standard_schemas.odyssey ~sub:start_entity ~super:E.layout
  then begin
    (* data-based: expand upward from the selected datum *)
    let cnid, _ =
      Session.expand_up session start_node ~consumer:E.extracted_netlist
        ~role:E.layout
    in
    ignore cnid
  end

(* The goal- and tool-based flows leave the layout leaf abstract; a
   data-based start types it by the selected instance.  Specializing
   the leaf (Fig. 4's operation) aligns all of them. *)
let normalize session =
  let flow = Session.current_flow session in
  List.iter
    (fun (n : Task_graph.node) ->
      if n.Task_graph.entity = E.layout then
        Session.specialize session n.Task_graph.nid E.edited_layout)
    (Task_graph.nodes flow)

let () =
  let w = Workspace.create ~user:"jacome" () in
  let session = Workspace.session w in

  (* some data, from several users over time (for the browser) *)
  let ctx = Workspace.ctx w in
  let installs =
    [ ("jbb", "Low pass filter", [ "filter"; "analog" ]);
      ("director", "CMOS Full adder", [ "adder"; "cmos" ]);
      ("sutton", "Operational Amplifier", [ "opamp"; "analog" ]) ]
  in
  List.iter
    (fun (user, label, keywords) ->
      ignore
        (Engine.install ctx ~entity:E.edited_netlist ~label ~keywords ~user
           (Value.Netlist (Eda.Circuits.full_adder ()))))
    installs;
  let layout_iid =
    Workspace.install_layout w ~label:"fa layout"
      (Eda.Layout.place (Eda.Circuits.full_adder ()))
  in

  (* ---- four approaches, one flow ------------------------------------ *)
  print_endline "# four approaches produce the same flow";
  (* 1. goal-based *)
  let n = Session.start_goal_based session E.extracted_netlist in
  build_extraction_flow session E.extracted_netlist n;
  normalize session;
  let goal_flow = Session.current_flow session in
  (* 2. tool-based *)
  let n = Session.start_tool_based session E.extractor in
  build_extraction_flow session E.extractor n;
  normalize session;
  let tool_flow = Session.current_flow session in
  (* 3. data-based *)
  let n = Session.start_data_based session layout_iid in
  build_extraction_flow session E.layout n;
  let data_flow = Session.current_flow session in
  (* save it to the flow catalog, then 4. plan-based *)
  Session.save_flow session "extract-netlist";
  let _roots = Session.start_plan_based session "extract-netlist" in
  let plan_flow = Session.current_flow session in

  Printf.printf "goal == tool: %b\n" (Canonical.equal goal_flow tool_flow);
  Printf.printf "goal == data: %b\n" (Canonical.equal goal_flow data_flow);
  Printf.printf "goal == plan: %b\n" (Canonical.equal goal_flow plan_flow);
  print_newline ();
  print_string (Task_graph.to_ascii goal_flow);

  (* the flow in its three representations (Fig. 3) *)
  print_endline "\n# the same flow in the paper's representations";
  (match Task_graph.roots goal_flow with
  | [ root ] ->
    Printf.printf "paper form:   %s\n" (Sexp_form.to_paper_string goal_flow root);
    Printf.printf "round-trip:   %s\n" (Sexp_form.to_string goal_flow);
    let bip = Bipartite.of_graph goal_flow in
    print_string (Bipartite.to_ascii bip)
  | _ -> assert false);

  (* ---- the Fig. 9 browser ------------------------------------------- *)
  print_endline "\n# the instance browser with filters (Fig. 9)";
  let show title filter =
    Printf.printf "%s:\n" title;
    let snap = Store.snapshot (Workspace.store w) in
    List.iter
      (fun iid ->
        let m = Store.Snapshot.meta_of snap iid in
        Printf.printf "  #%-3d %-24s %-10s @%d [%s]\n" iid m.Store.label
          m.Store.user m.Store.created_at
          (String.concat "," m.Store.keywords))
      (Store.Snapshot.browse snap filter)
  in
  show "all netlists"
    { Store.any_filter with Store.f_entities = Some [ E.edited_netlist ] };
  show "user limits: sutton"
    { Store.any_filter with Store.f_user = Some "sutton" };
  show "keyword: analog" { Store.any_filter with Store.f_keywords = [ "analog" ] };
  show "text search: adder"
    { Store.any_filter with Store.f_text = Some "adder" }
