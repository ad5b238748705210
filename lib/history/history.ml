(* The design-history database.

   Each task invocation leaves one record: the goal entity, the tool
   instance used, the input instances per role, and every co-produced
   output.  That is the "small amount of meta-data" from which the
   paper derives the complete derivation history: backward chaining
   reconstructs how an object was made (Fig. 10), forward chaining
   finds what depends on it, and a flow trace -- the same form as a
   task graph -- is a semantically richer superset of a version tree
   (Fig. 11).

   MVCC: like the store, the whole hot state is one immutable record
   behind an [Atomic.t]; a snapshot is that record itself, mutations
   CAS a new one in.  Every read goes through [Snapshot].  The version
   tree is part of the state: [add] derives a record's version edges
   when it writes the record, so version queries need no store.
   Store-joined reads (traces, templates) pair a history snapshot with
   a {!Store.Snapshot.t} so the two views are frozen together. *)

open Ddf_schema
open Ddf_store
module Int_map = Map.Make (Int)

type record = {
  rid : int;
  task_entity : string;                   (* goal entity of the task *)
  tool : Store.iid option;                (* None for compositions *)
  inputs : (string * Store.iid) list;     (* role -> instance *)
  outputs : (string * Store.iid) list;    (* entity -> instance *)
  at : int;                               (* logical time of execution *)
}

(* A sync conflict: two journal histories derived different versions
   of the same design object.  Both derivations stay in the history as
   alternative versions (the paper's Fig. 11 version branches); the
   conflict is a first-class, queryable pointer at the branch point,
   resolvable by picking a winner but never by deleting a branch.
   Immutable: resolution replaces the record, so a conflict value read
   through a snapshot can never be torn by a concurrent resolve. *)
type conflict = {
  cid : int;
  c_base : Store.iid;      (* the shared version both sides edited *)
  c_ours : Store.iid;      (* the locally derived alternative *)
  c_theirs : Store.iid;    (* the remotely derived alternative *)
  c_origin : string;       (* workspace id the remote branch came from *)
  c_at : int;              (* logical time the conflict was detected *)
  c_winner : Store.iid option;
}

type conflict_event = Conflict_added of conflict | Conflict_resolved of conflict

(* One node per instance that sits on a version edge (see "Versioning"
   below).  The edges are derived once, when the record that creates
   them is added, so every history state carries its own version tree:
   a query on any snapshot reads that snapshot's nodes and nothing
   else. *)
type vnode = {
  vn_parent : Store.iid option;
  vn_origin : Store.iid;            (* the first version of the tree *)
  vn_at : int;                      (* the instance's creation time *)
  vn_children : Store.iid list;     (* direct edit successors, newest first *)
}

(* The immutable hot state. *)
type state = {
  hs_next_rid : int;
  hs_records : record Int_map.t;
  hs_produced_by : int Int_map.t;         (* instance -> record *)
  hs_used_by : int list Int_map.t;        (* instance -> rids, newest first *)
  hs_next_cid : int;
  hs_conflicts : conflict Int_map.t;
  hs_versions : vnode Int_map.t;          (* instance -> its version node *)
  hs_latest : Store.iid Int_map.t;
  (* origin -> newest version of its tree, by (creation time, iid) *)
}

type t = {
  state : state Atomic.t;
  mutable observer : (record -> unit) option;
  mutable conflict_observer : (conflict_event -> unit) option;
}

type snapshot = state

let history_errorf ?(code = `Invalid) fmt = Ddf_core.Error.errorf code fmt

let m_appends = Ddf_obs.Metrics.counter "history.appends"
let m_queries = Ddf_obs.Metrics.counter "history.template_queries"
let h_backward = Ddf_obs.Metrics.histogram "history.backward_depth"
let h_forward = Ddf_obs.Metrics.histogram "history.forward_depth"

let empty_state =
  {
    hs_next_rid = 1;
    hs_records = Int_map.empty;
    hs_produced_by = Int_map.empty;
    hs_used_by = Int_map.empty;
    hs_next_cid = 1;
    hs_conflicts = Int_map.empty;
    hs_versions = Int_map.empty;
    hs_latest = Int_map.empty;
  }

let create () =
  { state = Atomic.make empty_state; observer = None; conflict_observer = None }

(* Pure-state CAS retry loop; [f]'s side effects must be none (it may
   run twice under contention). *)
let rec update h f =
  let old_state = Atomic.get h.state in
  let new_state, ret = f old_state in
  if Atomic.compare_and_set h.state old_state new_state then ret
  else update h f

let snapshot h = Atomic.get h.state

let restore_tick h n =
  update h (fun st ->
      if n < st.hs_next_rid then
        history_errorf "cannot move the record counter back (%d < %d)" n
          st.hs_next_rid;
      ({ st with hs_next_rid = n }, ()))

let set_observer h f = h.observer <- Some f
let clear_observer h = h.observer <- None

let set_conflict_observer h f = h.conflict_observer <- Some f
let clear_conflict_observer h = h.conflict_observer <- None

let add_conflict h ~base ~ours ~theirs ~origin ~at =
  let c =
    update h (fun st ->
        let cid = st.hs_next_cid in
        let c =
          { cid; c_base = base; c_ours = ours; c_theirs = theirs;
            c_origin = origin; c_at = at; c_winner = None }
        in
        ( { st with
            hs_next_cid = cid + 1;
            hs_conflicts = Int_map.add cid c st.hs_conflicts },
          c ))
  in
  (match h.conflict_observer with None -> () | Some f -> f (Conflict_added c));
  c

(* ------------------------------------------------------------------ *)
(* Version edges (Fig. 11), derived at write time                      *)
(* ------------------------------------------------------------------ *)

(* A record is an editing task when one input has the same root entity
   type as an output: versioning is characterized exactly so in the
   paper.  The version parent of such an output is the first input
   sharing its root.  Returns [(parent, parent's creation time, output,
   output's creation time)] per edge.  Entities and creation times
   never change once an instance is installed, so reading them from
   the caller's store snapshot before the CAS is exact. *)
let version_edges store schema ~inputs ~outputs =
  match inputs with
  | [] -> []
  | _ ->
    let info iid =
      let inst = Store.Snapshot.find store iid in
      (Schema.root_of schema inst.Store.entity, inst.Store.meta.Store.created_at)
    in
    let inputs = List.map (fun (_, i) -> (i, info i)) inputs in
    List.filter_map
      (fun (_, out) ->
        let root, out_at = info out in
        List.find_map
          (fun (p, (r, p_at)) ->
            if r = root then Some (p, p_at, out, out_at) else None)
          inputs)
      outputs

let newest versions a b =
  let at v = (Int_map.find v versions).vn_at in
  if (at a, a) >= (at b, b) then a else b

(* Add the edge [p -> out] to the version maps.  [out] is fresh as an
   output ([add] has checked it has no producer yet), but it may
   already head a tree of its own when it was edited before the record
   producing it arrived (a sync can deliver that order); that tree then
   joins [p]'s.  An edge that would close a cycle is dropped. *)
let link (versions, latest) (p, p_at, out, out_at) =
  let pn =
    match Int_map.find_opt p versions with
    | Some n -> n
    | None -> { vn_parent = None; vn_origin = p; vn_at = p_at; vn_children = [] }
  in
  let origin = pn.vn_origin in
  if origin = out then (versions, latest)
  else
    let versions, latest, top =
      match Int_map.find_opt out versions with
      | None ->
        ( Int_map.add out
            { vn_parent = Some p; vn_origin = origin; vn_at = out_at;
              vn_children = [] }
            versions,
          latest,
          out )
      | Some on ->
        let rec reroot versions iid =
          let n = Int_map.find iid versions in
          List.fold_left reroot
            (Int_map.add iid { n with vn_origin = origin } versions)
            n.vn_children
        in
        ( reroot (Int_map.add out { on with vn_parent = Some p } versions) out,
          Int_map.remove out latest,
          Int_map.find out latest )
    in
    let versions =
      Int_map.add p { pn with vn_children = out :: pn.vn_children } versions
    in
    let cur = Option.value (Int_map.find_opt origin latest) ~default:origin in
    (versions, Int_map.add origin (newest versions cur top) latest)

let add h store schema ~task_entity ~tool ~inputs ~outputs ~at =
  if outputs = [] then history_errorf "a record needs at least one output";
  let edges = version_edges store schema ~inputs ~outputs in
  let r =
    update h (fun st ->
        let rid = st.hs_next_rid in
        let r = { rid; task_entity; tool; inputs; outputs; at } in
        let produced_by =
          List.fold_left
            (fun acc (_, iid) ->
              if Int_map.mem iid acc then
                history_errorf ~code:`Conflict
                  "instance %d already has a producing record" iid;
              Int_map.add iid rid acc)
            st.hs_produced_by outputs
        in
        let note_use acc iid =
          let l = Option.value (Int_map.find_opt iid acc) ~default:[] in
          Int_map.add iid (rid :: l) acc
        in
        let used_by =
          List.fold_left (fun acc (_, iid) -> note_use acc iid)
            st.hs_used_by inputs
        in
        let used_by =
          match tool with Some t -> note_use used_by t | None -> used_by
        in
        let versions, latest =
          List.fold_left link (st.hs_versions, st.hs_latest) edges
        in
        ( { st with
            hs_next_rid = rid + 1;
            hs_records = Int_map.add rid r st.hs_records;
            hs_produced_by = produced_by;
            hs_used_by = used_by;
            hs_versions = versions;
            hs_latest = latest },
          r ))
  in
  Ddf_obs.Metrics.incr m_appends;
  (match h.observer with None -> () | Some f -> f r);
  r

let resolve_conflict h cid ~winner =
  let c, resolved =
    update h (fun st ->
        match Int_map.find_opt cid st.hs_conflicts with
        | None -> history_errorf ~code:`Not_found "no conflict %d" cid
        | Some c -> (
          if winner <> c.c_base && winner <> c.c_ours && winner <> c.c_theirs
          then
            history_errorf "conflict %d: %d is not one of its versions" cid
              winner;
          match c.c_winner with
          | Some w when w = winner ->
            (st, (c, false))   (* idempotent: re-applying a synced resolution *)
          | Some w ->
            history_errorf ~code:`Conflict
              "conflict %d already resolved in favour of %d" cid w
          | None ->
            let c = { c with c_winner = Some winner } in
            ( { st with hs_conflicts = Int_map.add cid c st.hs_conflicts },
              (c, true) )))
  in
  (if resolved then
     match h.conflict_observer with
     | None -> ()
     | Some f -> f (Conflict_resolved c));
  c

type version_tree = {
  v_iid : Store.iid;
  v_children : version_tree list;
}

let rec version_tree_size t =
  1 + List.fold_left (fun acc c -> acc + version_tree_size c) 0 t.v_children

(* ------------------------------------------------------------------ *)
(* The read surface: every read is over one frozen state               *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type t = snapshot

  let size st = Int_map.cardinal st.hs_records
  let tick st = st.hs_next_rid
  let conflict_tick st = st.hs_next_cid


  (* Everything below is pure over one [state] (plus, for store-joined
     queries, a [Store.Snapshot.t] and a schema). *)

  let find st rid =
    match Int_map.find_opt rid st.hs_records with
    | Some r -> r
    | None -> history_errorf ~code:`Not_found "no record %d" rid

  let records st = List.map snd (Int_map.bindings st.hs_records)

  let find_conflict st cid =
    match Int_map.find_opt cid st.hs_conflicts with
    | Some c -> c
    | None -> history_errorf ~code:`Not_found "no conflict %d" cid

  (* Unordered-pair lookup: the two sides of a sync each record the same
     divergence with [ours]/[theirs] swapped, so dedup ignores the
     orientation. *)
  let find_conflict_pair st a b =
    let key x = (min x.c_ours x.c_theirs, max x.c_ours x.c_theirs) in
    let want = (min a b, max a b) in
    Int_map.fold
      (fun _ c acc -> if acc = None && key c = want then Some c else acc)
      st.hs_conflicts None

  let all_conflicts st = List.map snd (Int_map.bindings st.hs_conflicts)

  let conflicts st =
    List.filter (fun c -> c.c_winner = None) (all_conflicts st)

  (* The record that created an instance; None for instances installed
     directly by the designer (sources). *)
  let derivation_of st iid =
    Option.map (find st) (Int_map.find_opt iid st.hs_produced_by)

  let uses_of st iid =
    match Int_map.find_opt iid st.hs_used_by with
    | Some l -> List.rev_map (find st) l
    | None -> []

  (* Backward chaining: every record in the derivation history of an
     instance, nearest first. *)
  let backward_closure st iid =
    let seen_records = Hashtbl.create 16 in
    let acc = ref [] in
    let rec go iid =
      match derivation_of st iid with
      | None -> ()
      | Some r ->
        if not (Hashtbl.mem seen_records r.rid) then begin
          Hashtbl.add seen_records r.rid ();
          acc := r :: !acc;
          List.iter (fun (_, i) -> go i) r.inputs;
          Option.iter go r.tool
        end
    in
    go iid;
    Ddf_obs.Metrics.observe h_backward (float_of_int (Hashtbl.length seen_records));
    List.rev !acc

  (* Forward chaining: every record that transitively depends on an
     instance -- e.g. all the performances derived from a netlist. *)
  let forward_closure st iid =
    let seen_records = Hashtbl.create 16 in
    let acc = ref [] in
    let rec go iid =
      List.iter
        (fun r ->
          if not (Hashtbl.mem seen_records r.rid) then begin
            Hashtbl.add seen_records r.rid ();
            acc := r :: !acc;
            List.iter (fun (_, out) -> go out) r.outputs
          end)
        (uses_of st iid)
    in
    go iid;
    Ddf_obs.Metrics.observe h_forward (float_of_int (Hashtbl.length seen_records));
    List.rev !acc

  let derived_instances st iid =
    forward_closure st iid
    |> List.concat_map (fun r -> List.map snd r.outputs)
    |> List.sort_uniq compare

  let ancestor_instances st iid =
    backward_closure st iid
    |> List.concat_map (fun r ->
           (match r.tool with Some t -> [ t ] | None -> [])
           @ List.map snd r.inputs)
    |> List.sort_uniq compare

  (* ------------------------------------------------------------------ *)
  (* Flow traces (Fig. 11(b))                                            *)
  (* ------------------------------------------------------------------ *)

  (* The derivation history of an instance as a task graph with an
     instance binding: the same form queries and re-execution use. *)
  let trace st store schema iid =
    (* gather nodes and edges, then assemble the graph in one pass *)
    let binding = Hashtbl.create 16 in  (* iid -> node *)
    let nodes = ref [] and edges = ref [] in
    let counter = ref 0 in
    let rec node_of iid =
      match Hashtbl.find_opt binding iid with
      | Some nid -> nid
      | None ->
        let entity = Store.Snapshot.entity_of store iid in
        let nid = !counter in
        incr counter;
        Hashtbl.add binding iid nid;
        nodes := (nid, entity) :: !nodes;
        (match derivation_of st iid with
        | None -> ()
        | Some r ->
          (match (r.tool, Schema.functional_dep schema entity) with
          | Some tool, Some d ->
            let tnid = node_of tool in
            edges := (nid, d.Schema.role, tnid) :: !edges
          | Some _, None | None, Some _ | None, None -> ());
          List.iter
            (fun (role, input) ->
              let inid = node_of input in
              edges := (nid, role, inid) :: !edges)
            r.inputs);
        nid
    in
    let root = node_of iid in
    let g =
      Ddf_graph.Task_graph.of_parts schema (List.rev !nodes) (List.rev !edges)
    in
    let pairs = Hashtbl.fold (fun iid nid acc -> (nid, iid) :: acc) binding [] in
    (g, root, pairs)

  (* ------------------------------------------------------------------ *)
  (* Query by template (section 4.2)                                     *)
  (* ------------------------------------------------------------------ *)

  (* Find bindings of a task graph's nodes to instances consistent with
     the history: bound nodes are fixed, the rest are solved for.  Used
     for queries like "find the simulations performed on this netlist"
     where the template is the flow itself. *)
  let query_template st store (g : Ddf_graph.Task_graph.t) ~bound =
    Ddf_obs.Metrics.incr m_queries;
    let schema = Ddf_graph.Task_graph.schema g in
    let satisfies nid iid =
      Schema.is_subtype schema
        ~sub:(Store.Snapshot.entity_of store iid)
        ~super:(Ddf_graph.Task_graph.entity_of g nid)
    in
    (* candidate instances for a node under a partial binding *)
    let candidates partial nid =
      (* if a user of this node is bound, the candidates come straight
         from its derivation record *)
      let from_users =
        List.filter_map
          (fun (user, role) ->
            match List.assoc_opt user partial with
            | None -> None
            | Some user_iid -> (
              match derivation_of st user_iid with
              | None -> Some []
              | Some r -> (
                match
                  Schema.functional_dep schema
                    (Store.Snapshot.entity_of store user_iid)
                with
                | Some d when d.Schema.role = role ->
                  Some (match r.tool with Some t -> [ t ] | None -> [])
                | Some _ | None ->
                  Some
                    (match List.assoc_opt role r.inputs with
                    | Some i -> [ i ]
                    | None -> []))))
          (Ddf_graph.Task_graph.in_edges g nid)
      in
      match from_users with
      | constraints when constraints <> [] ->
        (* intersect the per-user constraints *)
        let inter a b = List.filter (fun x -> List.mem x b) a in
        (match constraints with
        | first :: rest -> List.fold_left inter first rest
        | [] -> [])
      | _ ->
        (* otherwise any instance of the entity's subtree *)
        let entity = Ddf_graph.Task_graph.entity_of g nid in
        List.concat_map
          (Store.Snapshot.instances_of_entity store)
          (entity :: Schema.descendants schema entity)
    in
    (* does the history record of [user_iid] really bind [role] to
       [dep_iid]? *)
    let edge_ok user_iid role dep_iid =
      match derivation_of st user_iid with
      | None -> false
      | Some r -> (
        match
          Schema.functional_dep schema (Store.Snapshot.entity_of store user_iid)
        with
        | Some d when d.Schema.role = role -> r.tool = Some dep_iid
        | Some _ | None -> List.assoc_opt role r.inputs = Some dep_iid)
    in
    (* every edge between the newly assigned node and an already assigned
       neighbour must agree with the history *)
    let consistent partial nid iid =
      List.for_all
        (fun (e : Ddf_graph.Task_graph.edge) ->
          match List.assoc_opt e.Ddf_graph.Task_graph.dst partial with
          | None -> true
          | Some dep_iid -> edge_ok iid e.Ddf_graph.Task_graph.role dep_iid)
        (Ddf_graph.Task_graph.out_edges g nid)
      && List.for_all
           (fun (user, role) ->
             match List.assoc_opt user partial with
             | None -> true
             | Some user_iid -> edge_ok user_iid role iid)
           (Ddf_graph.Task_graph.in_edges g nid)
    in
    (* order: bound nodes first, then reverse topological (users before
       dependencies) so derivations drive the search downward *)
    let order =
      let topo = List.rev (Ddf_graph.Task_graph.topological_order g) in
      let bound_nodes = List.map fst bound in
      bound_nodes @ List.filter (fun n -> not (List.mem n bound_nodes)) topo
    in
    let max_results = 1000 in
    let results = ref [] and count = ref 0 in
    let rec search partial = function
      | [] ->
        if !count < max_results then begin
          incr count;
          results := List.rev partial :: !results
        end
      | nid :: rest ->
        let cands =
          match List.assoc_opt nid bound with
          | Some iid -> [ iid ]
          | None -> candidates partial nid
        in
        List.iter
          (fun iid ->
            if satisfies nid iid && consistent partial nid iid
               && !count < max_results
            then search ((nid, iid) :: partial) rest)
          (List.sort_uniq compare cands)
    in
    search [] order;
    List.rev !results

  (* ------------------------------------------------------------------ *)
  (* Versioning (Fig. 11)                                                *)
  (* ------------------------------------------------------------------ *)

  (* Every query below reads the version nodes [add] derived, so it costs
     O(answer) on any snapshot. *)

  let version_node st iid = Int_map.find_opt iid st.hs_versions

  let version_parent st iid =
    Option.bind (version_node st iid) (fun n -> n.vn_parent)

  (* Direct edit successors: the alternative versions branching off an
     instance.  More than one child -- siblings -- is exactly the shape
     an anti-entropy merge of divergent workspaces produces. *)
  let version_children st iid =
    match version_node st iid with
    | Some n -> List.sort Int.compare n.vn_children
    | None -> []

  let version_tree st iid =
    let rec build iid =
      { v_iid = iid; v_children = List.map build (version_children st iid) }
    in
    build iid

  let origin st iid =
    match version_node st iid with Some n -> n.vn_origin | None -> iid

  (* All versions (the instances in the version tree), oldest first. *)
  let versions st iid =
    let rec walk acc iid =
      match version_node st iid with
      | Some n -> List.fold_left walk (iid :: acc) n.vn_children
      | None -> iid :: acc
    in
    walk [] (origin st iid) |> List.sort Int.compare

  (* The newest instance in the version tree by creation time (ties go
     to the higher iid); the instance itself when it has no versions. *)
  let latest_version st iid =
    Option.value (Int_map.find_opt (origin st iid) st.hs_latest) ~default:iid

  (* ------------------------------------------------------------------ *)
  (* Consistency (out-of-date analysis)                                  *)
  (* ------------------------------------------------------------------ *)

  (* An instance is out of date when some input of its derivation has a
     newer version: e.g. the layout was edited after this netlist was
     extracted from it.  Returns the stale (input, newer-version) pairs.
     Every member of a tree with more than one version has a node, so
     the creation times come from the state too. *)
  let out_of_date st iid =
    match derivation_of st iid with
    | None -> []
    | Some r ->
      List.filter_map
        (fun (role, input) ->
          let newer =
            versions st input
            |> List.filter (fun v ->
                   v <> input && (Int_map.find v st.hs_versions).vn_at > r.at)
          in
          match newer with
          | [] -> None
          | _ -> Some (role, input, newer))
        r.inputs

  let is_up_to_date st iid = out_of_date st iid = []
end

(* The design-server benchmark's traced run (perfbench/) calls these two
   on the live handle with its store and schema.  They read one fresh
   snapshot; the store and schema are not needed any more. *)
let versions h _store _schema iid = Snapshot.versions (snapshot h) iid
let latest_version h _store _schema iid = Snapshot.latest_version (snapshot h) iid

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_record ppf r =
  Fmt.pf ppf "r%d@%d %s: (%a)%a -> %a" r.rid r.at r.task_entity
    Fmt.(option ~none:(any "compose") int)
    r.tool
    Fmt.(list ~sep:nop (fun ppf (role, i) -> Fmt.pf ppf " %s=#%d" role i))
    r.inputs
    Fmt.(list ~sep:comma (fun ppf (e, i) -> Fmt.pf ppf "#%d:%s" i e))
    r.outputs

