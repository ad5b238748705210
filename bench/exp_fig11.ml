(* E11 / Fig. 11: version trees vs flow traces. *)

open Ddf
module E = Standard_schemas.E
module B = Baselines

(* Reproduce the Fig. 11 editing history: c1 edited to c2 and c3; c3
   edited to c4 and c5 -- through real editing tasks. *)
let fig11_scenario () =
  let w = Workspace.create ~user:"bench" () in
  let ctx = Workspace.ctx w in
  let c1 = Workspace.install_netlist w ~label:"c1" (Eda.Circuits.full_adder ()) in
  let edit label net source =
    let session =
      Workspace.install_editor_session w ~label
        (Eda.Edit_script.create ~name:label
           [ Eda.Edit_script.Insert_buffer { net; gname = "b_" ^ label } ])
    in
    let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
    let g, fresh = Task_graph.expand g out in
    let editor, src = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
    let run = Engine.execute ctx g ~bindings:[ (editor, session); (src, source) ] in
    Engine.result_of run out
  in
  let c2 = edit "e1" "x1" c1 in
  let c3 = edit "e2" "a1" c1 in
  let c4 = edit "e3" "a2" c3 in
  let c5 = edit "e4" "x1" c3 in
  (w, c1, [ c2; c3; c4; c5 ])

let run () =
  Bench_util.header "E11" "Fig. 11: version tree vs flow trace";
  Bench_util.paper_claim
    "a flow trace is a semantically richer superset of a version tree: \
     it also shows the tools used to create each version";

  let w, c1, versions = fig11_scenario () in
  let v = Engine.pin (Workspace.ctx w) in
  let h = v.Engine.v_history and st = v.Engine.v_store in

  Bench_util.section "(a) the dedicated version tree";
  let vt = B.Version_tree.create () in
  let vids = Hashtbl.create 8 in
  let check_in parent iid =
    let v =
      B.Version_tree.check_in vt
        ?parent:(Option.map (Hashtbl.find vids) parent)
        ~payload_hash:(Store.Snapshot.hash_of st iid)
        ~author:(Store.Snapshot.meta_of st iid).Store.user
        ~at:(Store.Snapshot.meta_of st iid).Store.created_at ()
    in
    Hashtbl.add vids iid v
  in
  check_in None c1;
  List.iter
    (fun v -> check_in (History.Snapshot.version_parent h v) v)
    versions;
  Format.printf "%a@." B.Version_tree.pp vt;

  Bench_util.section "(b) the flow trace, reconstructed from history";
  let tree = History.Snapshot.version_tree h c1 in
  let rec render indent t =
    let m = Store.Snapshot.meta_of st t.History.v_iid in
    let tool =
      match History.Snapshot.derivation_of h t.History.v_iid with
      | Some r -> (
        match r.History.tool with
        | Some tool_iid -> (Store.Snapshot.meta_of st tool_iid).Store.label
        | None -> "(composed)")
      | None -> "(installed)"
    in
    Printf.printf "%s#%d %s  <- %s\n" indent t.History.v_iid m.Store.label tool;
    List.iter (render (indent ^ "  ")) t.History.v_children
  in
  render "" tree;

  Bench_util.section "comparison";
  let shapes_match =
    (* compare tree shapes: sizes and branching degrees multiset *)
    let rec degrees t =
      List.length t.History.v_children
      :: List.concat_map degrees t.History.v_children
    in
    let rec vt_degrees vid =
      let kids = B.Version_tree.children vt vid in
      List.length kids :: List.concat_map vt_degrees kids
    in
    List.sort compare (degrees tree)
    = List.sort compare (vt_degrees (Hashtbl.find vids c1))
  in
  let history_bytes =
    (* per-record footprint of the derivation meta-data *)
    List.fold_left
      (fun acc (r : History.record) ->
        acc + 8 (* task *) + 8 (* tool *) + 8 (* at *)
        + (16 * List.length r.History.inputs)
        + (16 * List.length r.History.outputs))
      0 (History.Snapshot.records h)
  in
  Bench_util.print_table
    [ "scheme"; "tree size"; "same shape"; "metadata bytes"; "knows the tool?" ]
    [
      [
        "version tree"; string_of_int (B.Version_tree.size vt);
        "-"; string_of_int (B.Version_tree.metadata_bytes vt);
        (match B.Version_tree.tool_used vt 1 with Some _ -> "yes" | None -> "no");
      ];
      [
        "flow trace"; string_of_int (History.version_tree_size tree);
        string_of_bool shapes_match; string_of_int history_bytes; "yes";
      ];
    ];
  Printf.printf
    "\nno separate version store was needed: versioning fell out of the\n\
     derivation history (records: %d, store instances: %d, shared payloads: %d)\n"
    (History.Snapshot.size h)
    (Store.Snapshot.instance_count st)
    (Store.Snapshot.physical_count st)
