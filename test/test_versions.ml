(* The version tree the history keeps in its state, against an oracle.

   The oracle is a from-scratch fold of one snapshot's records with the
   paper's editing rule: an output's version parent is the first input
   that shares its root entity type.  Random edit, branch and
   sync-shaped histories are written straight to a store and history;
   every snapshot pinned along the way must answer each version query
   like the oracle does for that snapshot, and must keep answering the
   same after more writes.  Every other path that rebuilds records --
   journal replay, a workspace file load, a replica follower and a sync
   merge -- must rebuild the same edges. *)

open Ddf
module E = Standard_schemas.E

let schema = Standard_schemas.odyssey

(* Entity families: members of one family share a root type, so a
   record from one to another is an edit. *)
let families =
  [|
    [| E.netlist; E.edited_netlist; E.extracted_netlist; E.optimized_netlist |];
    [| E.layout; E.edited_layout; E.synthesized_layout |];
    [| E.performance; E.switch_performance |];
  |]

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let root_of e =
  match List.rev (Schema.ancestors schema e) with [] -> e | r :: _ -> r

type answers = {
  parent : Store.iid option;
  children : Store.iid list;
  tree : History.version_tree;
  versions : Store.iid list;
  latest : Store.iid;
  stale : (string * Store.iid * Store.iid list) list;
  up_to_date : bool;
}

let answers hist iid =
  let open History.Snapshot in
  {
    parent = version_parent hist iid;
    children = version_children hist iid;
    tree = version_tree hist iid;
    versions = versions hist iid;
    latest = latest_version hist iid;
    stale = out_of_date hist iid;
    up_to_date = is_up_to_date hist iid;
  }

(* The answers a from-scratch fold of [hist]'s records gives, reading
   entities and creation times from [store]. *)
let oracle hist store =
  let entity i = Store.Snapshot.entity_of store i in
  let at i = (Store.Snapshot.meta_of store i).Store.created_at in
  let records = History.Snapshot.records hist in
  let record_version_parent (r : History.record) out =
    let root = root_of (entity out) in
    List.find_opt (fun (_, i) -> root_of (entity i) = root) r.History.inputs
    |> Option.map snd
  in
  let parent = Hashtbl.create 64 and children = Hashtbl.create 64 in
  List.iter
    (fun (r : History.record) ->
      List.iter
        (fun (_, out) ->
          match record_version_parent r out with
          | None -> ()
          | Some p ->
            Hashtbl.replace parent out p;
            Hashtbl.replace children p
              (out :: Option.value (Hashtbl.find_opt children p) ~default:[]))
        r.History.outputs)
    records;
  let kids i =
    List.sort_uniq compare (Option.value (Hashtbl.find_opt children i) ~default:[])
  in
  let rec tree i = { History.v_iid = i; v_children = List.map tree (kids i) } in
  let rec origin i =
    match Hashtbl.find_opt parent i with Some p -> origin p | None -> i
  in
  let versions i =
    let rec flat acc t =
      List.fold_left flat (t.History.v_iid :: acc) t.History.v_children
    in
    List.sort_uniq compare (flat [] (tree (origin i)))
  in
  let latest i =
    List.fold_left
      (fun best v -> if (at v, v) > (at best, best) then v else best)
      i (versions i)
  in
  let stale i =
    match
      List.find_opt
        (fun (r : History.record) -> List.exists (fun (_, o) -> o = i) r.outputs)
        records
    with
    | None -> []
    | Some r ->
      List.filter_map
        (fun (role, input) ->
          match
            List.filter
              (fun v -> v <> input && at v > r.History.at)
              (versions input)
          with
          | [] -> None
          | newer -> Some (role, input, newer))
        r.History.inputs
  in
  fun i ->
    {
      parent = Hashtbl.find_opt parent i;
      children = kids i;
      tree = tree i;
      versions = versions i;
      latest = latest i;
      stale = stale i;
      up_to_date = stale i = [];
    }

(* Every instance's answers on a pinned (history, store) pair. *)
let all_answers hist store =
  List.map (fun i -> (i, answers hist i)) (Store.Snapshot.all_instances store)

let agrees hist store =
  let want = oracle hist store in
  List.for_all (fun (i, got) -> got = want i) (all_answers hist store)

(* ------------------------------------------------------------------ *)
(* Random histories                                                    *)
(* ------------------------------------------------------------------ *)

let pick rng a = a.(Eda.Rng.int rng (Array.length a))

let put ~tag rng store entity =
  let v =
    let text = Printf.sprintf "%s%d" tag (Eda.Rng.int rng 1_000_000) in
    Value.Blob { blob_kind = "v"; text }
  in
  Store.put store ~entity ~hash:(Ddf_data.hash v)
    ~meta:(Store.meta ~created_at:(Eda.Rng.int rng 30) ())
    v

(* One random write: a source install, an edit (of any version, so the
   tree branches), a cross-family derivation (no edge), a two-output
   task, or -- with [late] -- a producing record arriving for a source
   that already has versions of its own, the order a sync can deliver. *)
let step ?(late = true) ?(tag = "") rng store history =
  let snap = Store.snapshot store in
  let instances = Array.of_list (Store.Snapshot.all_instances snap) in
  let family_of i =
    let root = root_of (Store.Snapshot.entity_of snap i) in
    Option.get
      (Array.find_index (fun f -> root_of f.(0) = root) families)
  in
  let record ~inputs ~outputs =
    ignore
      (History.add history (Store.snapshot store) schema
         ~task_entity:(fst (List.hd outputs)) ~tool:None ~inputs ~outputs
         ~at:(Eda.Rng.int rng 30)
        : History.record)
  in
  let fresh f =
    let e = pick rng families.(f) in
    (e, put ~tag rng store e)
  in
  match Eda.Rng.int rng 7 with
  | _ when Array.length instances = 0 || Eda.Rng.int rng 5 = 0 ->
    ignore (fresh (Eda.Rng.int rng (Array.length families)))
  | 0 | 1 | 2 ->
    (* an edit, sometimes with an unrelated extra input *)
    let base = pick rng instances in
    let f = family_of base in
    let extra =
      let o = pick rng instances in
      if Eda.Rng.int rng 2 = 0 then [ ("extra", o) ] else []
    in
    let inputs =
      if Eda.Rng.int rng 2 = 0 then ("source", base) :: extra
      else extra @ [ ("source", base) ]
    in
    record ~inputs ~outputs:[ fresh f ]
  | 3 ->
    let a = pick rng instances in
    let f = (family_of a + 1 + Eda.Rng.int rng 2) mod Array.length families in
    record ~inputs:[ ("in", a) ] ~outputs:[ fresh f ]
  | 4 ->
    let a = pick rng instances and b = pick rng instances in
    let fa = family_of a and fb = family_of b in
    if fa <> fb then
      record ~inputs:[ ("a", a); ("b", b) ] ~outputs:[ fresh fa; fresh fb ]
  | _ when late ->
    (* produce an existing source from another version of its family,
       never from inside its own tree (that would be a cycle) *)
    let hist = History.snapshot history in
    let known = oracle hist snap in
    let x = pick rng instances in
    let candidates =
      Array.to_list instances
      |> List.filter (fun y ->
             family_of y = family_of x
             && not (List.mem x (known y).versions))
    in
    if History.Snapshot.derivation_of hist x = None && candidates <> [] then
      let y = List.nth candidates (Eda.Rng.int rng (List.length candidates)) in
      record ~inputs:[ ("source", y) ]
        ~outputs:[ (Store.Snapshot.entity_of snap x, x) ]
  | _ -> ()

(* Run [n] random steps; after some, pin a snapshot pair and record its
   answers. *)
let generate ?late ?tag rng store history n =
  let pins = ref [] in
  for _ = 1 to n do
    step ?late ?tag rng store history;
    if Eda.Rng.int rng 4 = 0 then begin
      let hist = History.snapshot history and st = Store.snapshot store in
      pins := (hist, st, all_answers hist st) :: !pins
    end
  done;
  !pins

let history_gen = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 40))

(* ------------------------------------------------------------------ *)
(* Pinned snapshots against the oracle                                 *)
(* ------------------------------------------------------------------ *)

let oracle_props =
  [
    Util.qcheck ~count:250 "version queries on pinned snapshots match the oracle"
      history_gen (fun (seed, n) ->
        let rng = Eda.Rng.create seed in
        let store = Store.create () and history = History.create () in
        let pins = generate rng store history n in
        (* every pinned snapshot still answers as it did when pinned,
           and as the oracle does for its own records *)
        List.for_all
          (fun (hist, st, pinned) ->
            all_answers hist st = pinned && agrees hist st)
          pins
        && agrees (History.snapshot history) (Store.snapshot store));
  ]

(* ------------------------------------------------------------------ *)
(* Every path that rebuilds records rebuilds the same edges            *)
(* ------------------------------------------------------------------ *)

let view ctx =
  let v = Engine.pin ctx in
  (v.Engine.v_history, v.Engine.v_store)

let answers_of ctx =
  let hist, st = view ctx in
  all_answers hist st

let agrees_ctx ctx =
  let hist, st = view ctx in
  agrees hist st

let write ?late ?tag rng ctx n =
  ignore (generate ?late ?tag rng ctx.Engine.store ctx.Engine.history n : _ list)

(* The follower loop: pull the tail, apply frames, resync from a
   spooled copy of the primary's snapshot when compaction has dropped
   the needed frames. *)
let follow ~spool p f =
  let rec go () =
    match Journal.entries_since p (Journal.seq f) with
    | Journal.Snapshot_needed ->
      Util.copy_file (Journal.snapshot_file p) spool;
      Journal.reset_to_snapshot_file f ~seq:(Journal.base_seq p) spool;
      go ()
    | Journal.Frames [] -> ()
    | Journal.Frames frames ->
      List.iter (fun (seq, payload) -> Journal.apply f ~seq payload) frames;
      go ()
  in
  go ()

let rebuild_props =
  let gen = QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 25)) in
  [
    Util.qcheck ~count:20 "replay, load and a follower rebuild the same edges" gen
      (fun (seed, n) ->
        Test_journal.with_dir @@ fun root ->
        Unix.mkdir root 0o755;
        let pdir = Filename.concat root "p" and fdir = Filename.concat root "f" in
        let rng = Eda.Rng.create seed in
        let p = Journal.open_ ~dir:pdir schema in
        let f = Journal.open_ ~dir:fdir schema in
        let ctx = Journal.context p in
        write rng ctx n;
        if seed mod 2 = 0 then Journal.compact p;
        write rng ctx (n / 2);
        let want = answers_of ctx in
        let loaded =
          Session.context
            (Persist.load schema (Persist.save (Session.of_context ctx)))
        in
        follow ~spool:(Filename.concat root "snapshot.spool") p f;
        let followed = answers_of (Journal.context f) in
        Journal.close p;
        Journal.close f;
        let p2 = Journal.open_ ~dir:pdir schema in
        let replayed = answers_of (Journal.context p2) in
        Journal.close p2;
        agrees_ctx ctx
        && answers_of loaded = want
        && followed = want
        && replayed = want);
    Util.qcheck ~count:10
      "a sync merge with sibling versions rebuilds the same edges" gen
      (fun (seed, n) ->
        let rng = Eda.Rng.create seed in
        let base = ref 0 in
        Test_sync.with_clone_pair
          ~prep:(fun ctx ->
            write rng ctx n;
            (* the shared version both sides will edit *)
            base := put ~tag:"base" rng ctx.Engine.store E.netlist)
        @@ fun ja jb ->
        let edit ctx tag =
          let store = ctx.Engine.store in
          let out = put ~tag rng store E.edited_netlist in
          ignore
            (History.add ctx.Engine.history (Store.snapshot store) schema
               ~task_entity:E.edited_netlist ~tool:None
               ~inputs:[ ("source", !base) ]
               ~outputs:[ (E.edited_netlist, out) ] ~at:(Eda.Rng.int rng 30)
              : History.record)
        in
        let ca = Journal.context ja and cb = Journal.context jb in
        edit ca "ours";
        write ~late:false ~tag:"a" rng ca (n / 2);
        edit cb "theirs";
        write ~late:false ~tag:"b" rng cb (n / 2);
        ignore (Sync.run ~a:(Sync.of_journal ja) ~b:(Sync.of_journal jb) ());
        let siblings ctx =
          let hist, _ = view ctx in
          List.length (History.Snapshot.version_children hist !base) >= 2
          && History.Snapshot.conflicts hist <> []
        in
        siblings ca && siblings cb && agrees_ctx ca && agrees_ctx cb);
  ]

let suite =
  [ ("versions.oracle", oracle_props); ("versions.rebuild", rebuild_props) ]
