(* Tests for workspace persistence: the save/load round trip over a
   session with real derivations, tools-as-data and catalog flows. *)

open Ddf
module E = Standard_schemas.E

let check = Alcotest.check
let t name f = Alcotest.test_case name `Quick f

(* A workspace exercising every payload class: netlists, layouts,
   stimuli, circuit composites, performances, verifications, plots,
   statistics, transistor views, options, editor sessions and a
   compiled simulator. *)
let rich_session () =
  let w = Workspace.create ~user:"persist" () in
  let ctx = Workspace.ctx w in
  let session = Workspace.session w in
  (* run fig5 *)
  let reference = Eda.Circuits.full_adder () in
  let layout_iid = Workspace.install_layout w (Eda.Layout.place reference) in
  let reference_iid = Workspace.install_netlist w reference in
  let stimuli_iid =
    Workspace.install_stimuli w
      (Eda.Stimuli.exhaustive reference.Eda.Netlist.primary_inputs)
  in
  let f = Standard_flows.fig5 () in
  let bindings =
    Workspace.bind_catalog_tools w f.Standard_flows.f5_graph
      ~already:
        [ (f.Standard_flows.f5_layout, layout_iid);
          (f.Standard_flows.f5_stimuli, stimuli_iid);
          (f.Standard_flows.f5_reference, reference_iid);
          (f.Standard_flows.f5_device_models, Workspace.default_device_models w) ]
  in
  let run = Engine.execute ctx f.Standard_flows.f5_graph ~bindings in
  (* an editor session + edit *)
  let edit =
    Workspace.install_editor_session w
      (Eda.Edit_script.create
         [ Eda.Edit_script.Insert_buffer { net = "x1"; gname = "pb" } ])
  in
  let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
  let g, fresh = Task_graph.expand g out in
  let editor, src = match fresh with [ a; b ] -> (a, b) | _ -> assert false in
  let _ = Engine.execute ctx g ~bindings:[ (editor, edit); (src, reference_iid) ] in
  (* a compiled simulator (Fig. 2) + transistor view *)
  let f2 = Standard_flows.fig2 () in
  let b2 =
    Workspace.bind_catalog_tools w f2.Standard_flows.f2_graph
      ~already:
        [ (f2.Standard_flows.f2_netlist, reference_iid);
          (f2.Standard_flows.f2_stimuli, stimuli_iid) ]
  in
  let _ = Engine.execute ctx f2.Standard_flows.f2_graph ~bindings:b2 in
  ignore
    (Views.derive_views ctx ~logic:reference_iid
       ~placer_tool:(Workspace.tool w E.placer)
       ~expander_tool:(Workspace.tool w E.transistor_expander));
  (* a catalog flow *)
  ignore (Session.start_goal_based session E.performance);
  let perf_root = List.hd (Task_graph.roots (Session.current_flow session)) in
  ignore (Session.expand session perf_root);
  Session.save_flow session "simulate";
  (w, run, f)

let reload session =
  Persist.load Standard_schemas.odyssey (Persist.save session)

let suite_cases =
  [
    t "round trip preserves counts and hashes" (fun () ->
        let w, _, _ = rich_session () in
        let s2 = reload (Workspace.session w) in
        let ctx1 = Workspace.ctx w and ctx2 = Session.context s2 in
        check Alcotest.int "instances"
          (Store.instance_count ctx1.Engine.store)
          (Store.instance_count ctx2.Engine.store);
        check Alcotest.int "payloads"
          (Store.physical_count ctx1.Engine.store)
          (Store.physical_count ctx2.Engine.store);
        check Alcotest.int "records"
          (History.size ctx1.Engine.history)
          (History.size ctx2.Engine.history);
        check Alcotest.int "clock" ctx1.Engine.clock ctx2.Engine.clock;
        List.iter
          (fun iid ->
            check Alcotest.string
              (Printf.sprintf "hash of #%d" iid)
              (Store.hash_of ctx1.Engine.store iid)
              (Store.hash_of ctx2.Engine.store iid);
            check Alcotest.string
              (Printf.sprintf "entity of #%d" iid)
              (Store.entity_of ctx1.Engine.store iid)
              (Store.entity_of ctx2.Engine.store iid))
          (Store.all_instances ctx1.Engine.store));
    t "history chains survive" (fun () ->
        let w, run, f = rich_session () in
        let perf = Engine.result_of run f.Standard_flows.f5_performance in
        let s2 = reload (Workspace.session w) in
        let ctx2 = Session.context s2 in
        let g, root, _ =
          History.trace ctx2.Engine.history ctx2.Engine.store ctx2.Engine.schema
            perf
        in
        check Alcotest.string "root entity" E.performance
          (Task_graph.entity_of g root);
        check Alcotest.bool "non-trivial trace" true (Task_graph.size g > 5));
    t "memoization works across a reload" (fun () ->
        let w, _, f = rich_session () in
        let s2 = reload (Workspace.session w) in
        let ctx2 = Session.context s2 in
        (* re-bind the same flow against the reloaded instances *)
        let layout_iid =
          List.hd (Store.instances_of_entity ctx2.Engine.store E.edited_layout)
        in
        let reference_iid =
          List.hd (Store.instances_of_entity ctx2.Engine.store E.edited_netlist)
        in
        let stim_iid =
          List.hd (Store.instances_of_entity ctx2.Engine.store E.stimuli)
        in
        let models =
          List.hd (Store.instances_of_entity ctx2.Engine.store E.device_models)
        in
        let tool entity =
          List.hd (Store.instances_of_entity ctx2.Engine.store entity)
        in
        let g = f.Standard_flows.f5_graph in
        let bindings =
          [ (f.Standard_flows.f5_layout, layout_iid);
            (f.Standard_flows.f5_stimuli, stim_iid);
            (f.Standard_flows.f5_reference, reference_iid);
            (f.Standard_flows.f5_device_models, models);
            (f.Standard_flows.f5_extractor, tool E.extractor) ]
        in
        let bindings =
          List.map
            (fun nid ->
              match List.assoc_opt nid bindings with
              | Some iid -> (nid, iid)
              | None -> (nid, tool (Task_graph.entity_of g nid)))
            (Task_graph.leaves g)
        in
        let run = Engine.execute ctx2 g ~bindings in
        check Alcotest.int "all memo hits" 0 run.Engine.stats.Engine.executed);
    t "the compiled simulator survives (recompiled from source)" (fun () ->
        let w, _, _ = rich_session () in
        let ctx1 = Workspace.ctx w in
        let sim1 =
          List.hd (Store.instances_of_entity ctx1.Engine.store E.compiled_simulator)
        in
        let s2 = reload (Workspace.session w) in
        let ctx2 = Session.context s2 in
        match Store.payload ctx2.Engine.store sim1 with
        | Value.Tool (Value.Compiled_simulator c) ->
          check Alcotest.bool "has instructions" true
            (Eda.Sim_compiled.instruction_count c > 0)
        | _ -> Alcotest.fail "compiled simulator payload lost");
    t "the flow catalog survives" (fun () ->
        let w, _, _ = rich_session () in
        let s1 = Workspace.session w in
        let s2 = reload s1 in
        check (Alcotest.list Alcotest.string) "names"
          (Session.flow_catalog s1) (Session.flow_catalog s2);
        match (Session.catalog_flow s1 "simulate", Session.catalog_flow s2 "simulate") with
        | Some a, Some b ->
          check Alcotest.bool "isomorphic" true (Canonical.equal a b)
        | _ -> Alcotest.fail "catalog flow lost");
    t "save is deterministic" (fun () ->
        let w, _, _ = rich_session () in
        let s = Workspace.session w in
        check Alcotest.string "same bytes" (Persist.save s) (Persist.save s));
    t "a second save/load cycle is a fixpoint" (fun () ->
        let w, _, _ = rich_session () in
        let text1 = Persist.save (Workspace.session w) in
        let text2 = Persist.save (reload (Workspace.session w)) in
        check Alcotest.string "fixpoint" text1 text2);
    Util.expect_exn "corrupt file rejected"
      (function Persist.Persist_error _ -> true | _ -> false)
      (fun () -> Persist.load Standard_schemas.odyssey "(not_a_workspace)");
    Util.expect_exn "tampered payload rejected by hash check"
      (function Persist.Persist_error _ -> true | _ -> false)
      (fun () ->
        let w = Workspace.create () in
        ignore (Workspace.install_netlist w (Eda.Circuits.inverter ()));
        let text = Persist.save (Workspace.session w) in
        (* tamper: flip the gate operator in the serialized payload *)
        let tampered = Util.replace_first text "(g_inv not" "(g_inv buf" in
        if tampered = text then Alcotest.fail "tampering failed to apply";
        Persist.load Standard_schemas.odyssey tampered);
  ]

let sexp_cases =
  let module S = Ddf_persist.Sexp in
  [
    t "sexp round-trips tricky atoms" (fun () ->
        let cases =
          [ "plain"; "with space"; "quo\"te"; "back\\slash"; "new\nline";
            "tab\there"; "(parens)"; "" ]
        in
        List.iter
          (fun s ->
            let sexp = S.List [ S.Atom "k"; S.Atom s ] in
            check Alcotest.bool s true
              (S.of_string (S.to_string sexp) = sexp))
          cases);
    Util.expect_exn "unterminated list"
      (function S.Sexp_error _ -> true | _ -> false)
      (fun () -> S.of_string "(a (b c)");
    Util.expect_exn "trailing garbage"
      (function S.Sexp_error _ -> true | _ -> false)
      (fun () -> S.of_string "(a) b");
    t "comments are skipped" (fun () ->
        check Alcotest.bool "parsed" true
          (S.of_string "(a ; comment\n b)" = S.List [ S.Atom "a"; S.Atom "b" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Reader properties                                                   *)
(* ------------------------------------------------------------------ *)

module S = Ddf_persist.Sexp

(* Atoms over an alphabet that needs every escape and every quoting
   rule: delimiters, quotes, backslashes, newlines, tabs, carriage
   returns and comment starts, plus the empty atom. *)
let atom_gen =
  let open QCheck2.Gen in
  let chars =
    oneof
      [ char_range 'a' 'z'; char_range '0' '9';
        oneofl [ ' '; '\t'; '\n'; '\r'; '('; ')'; '"'; ';'; '\\'; '-'; '#' ] ]
  in
  map (fun s -> S.Atom s) (string_size ~gen:chars (int_range 0 6))

let sexp_gen =
  QCheck2.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           if depth = 0 then atom_gen
           else
             frequency
               [ (1, atom_gen);
                 (3, map (fun l -> S.List l) (list_size (int_range 0 5) (self (depth - 1)))) ]))

let list_gen =
  QCheck2.Gen.(map (fun l -> S.List l) (list_size (int_range 0 6) sexp_gen))

(* Whitespace a reader must skip: blanks, carriage returns and
   comments (which may themselves hold delimiters). *)
let noise_gen =
  QCheck2.Gen.oneofl
    [ " "; "\t"; "\r\n"; "\n  "; " ; a comment ( \" ) \\\n"; "\r ;;\r\n" ]

(* A printing of [sexp] with random noise around every element. *)
let noisy_print_gen sexp =
  let open QCheck2.Gen in
  let rec go = function
    | S.Atom _ as a -> return (S.to_string a)
    | S.List items ->
      let* parts =
        flatten_l
          (List.map
             (fun item ->
               let* sep = noise_gen in
               let* body = go item in
               return (sep ^ body))
             items)
      in
      let* tail = noise_gen in
      return ("(" ^ String.concat "" parts ^ tail ^ ")")
  in
  let* lead = noise_gen in
  let* body = go sexp in
  let* trail = noise_gen in
  return (lead ^ body ^ trail)

(* Read a tree of the given shape by cursor steps alone: lists are
   entered, walked with [at_close] and left; atoms come from [next]. *)
let rec walk c = function
  | S.Atom _ -> S.next c
  | S.List items ->
    S.enter c;
    let got = List.map (walk c) items in
    if not (S.at_close c) then Alcotest.fail "list has more elements";
    S.leave c;
    S.List got

let sexp_error f =
  match f () with
  | _ -> false
  | exception S.Sexp_error _ -> true

let reader_properties =
  [
    Util.qcheck ~count:300 "of_string inverts the pretty and compact prints"
      sexp_gen (fun sexp ->
        S.of_string (S.to_string sexp) = sexp
        && S.of_string (S.to_string ~pretty:false sexp) = sexp);
    Util.qcheck ~count:300 "whitespace, \\r and comments are skipped"
      QCheck2.Gen.(list_gen >>= fun sexp -> pair (return sexp) (noisy_print_gen sexp))
      (fun (sexp, text) -> S.of_string text = sexp);
    Util.qcheck ~count:300 "a cursor walk yields the same elements" list_gen
      (fun sexp ->
        let c = S.cursor (S.to_string sexp) in
        let got = walk c sexp in
        S.finish c;
        got = sexp
        &&
        (* the flat walk: next on each element of the outer list *)
        let c = S.cursor (S.to_string ~pretty:false sexp) in
        S.enter c;
        let rec items acc =
          if S.at_close c then List.rev acc else items (S.next c :: acc)
        in
        let flat = items [] in
        S.leave c;
        S.finish c;
        S.List flat = sexp);
    Util.qcheck ~count:300 "a proper prefix of a list never parses" list_gen
      (fun sexp ->
        let text = S.to_string sexp in
        List.for_all
          (fun n -> sexp_error (fun () -> S.of_string (String.sub text 0 n)))
          (List.init (String.length text) Fun.id));
    Util.qcheck ~count:200 "a stray ) or trailing input is refused" list_gen
      (fun sexp ->
        let text = S.to_string sexp in
        sexp_error (fun () -> S.of_string (text ^ ")"))
        && sexp_error (fun () -> S.of_string (text ^ " x"))
        && sexp_error (fun () -> S.of_string (text ^ text)));
  ]
  @ List.map
      (fun (name, text) ->
        Util.expect_exn name
          (function S.Sexp_error _ -> true | _ -> false)
          (fun () -> S.of_string text))
      [ ("unterminated string", "(a \"bc)");
        ("unterminated string after an escape", "(a \"b\\\"");
        ("unterminated nested list", "(a (b c) (d");
        ("a stray )", ")");
        ("a stray ) after a list", "(a) )");
        ("trailing atom", "(a) b");
        ("bad escape", "(a \"\\q\")");
        ("dangling escape", "\"\\");
        ("empty input", "");
        ("only a comment", "; nothing\n") ]

(* ------------------------------------------------------------------ *)
(* Random sessions                                                     *)
(* ------------------------------------------------------------------ *)

(* A session grown by seeded random steps: netlist and stimuli
   installs, annotations (with text that needs quoting), edit tasks
   that add history records, sync conflicts (some resolved) and
   catalog flows. *)
let random_session seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let w = Workspace.create ~user:"oracle" () in
  let ctx = Workspace.ctx w in
  let session = Workspace.session w in
  let netlist () =
    Eda.Circuits.random ~n_inputs:(2 + int 3) ~n_gates:(1 + int 8)
      (Eda.Rng.create (int 1_000_000))
  in
  let chain = ref [ Workspace.install_netlist w (netlist ()) ] in
  let texts = [ "plain"; "two words"; "quo\"te\\"; "line\nbreak\r"; ""; "(p);c" ] in
  let pick l = List.nth l (int (List.length l)) in
  for step = 1 to 4 + int 10 do
    match int 5 with
    | 0 -> chain := Workspace.install_netlist w (netlist ()) :: !chain
    | 1 ->
      let nl = netlist () in
      ignore
        (Workspace.install_stimuli w
           (Eda.Stimuli.exhaustive nl.Eda.Netlist.primary_inputs))
    | 2 ->
      let iid = 1 + int (Store.instance_count ctx.Engine.store) in
      Store.annotate ctx.Engine.store iid ~label:(pick texts)
        ~comment:(pick texts) ~keywords:[ pick texts; pick texts ] ()
    | 3 ->
      let es =
        Workspace.install_editor_session w
          (Eda.Edit_script.create
             ~name:(Printf.sprintf "e%d" step)
             [ Eda.Edit_script.Rename (Printf.sprintf "v%d" step) ])
      in
      let g, out = Task_graph.create (Workspace.schema w) E.edited_netlist in
      let g, fresh = Task_graph.expand g out in
      let editor, src =
        match fresh with [ a; b ] -> (a, b) | _ -> assert false
      in
      let run =
        Engine.execute ctx g ~bindings:[ (editor, es); (src, List.hd !chain) ]
      in
      chain := Engine.result_of run out :: !chain
    | _ -> (
      match !chain with
      | ours :: theirs :: base :: _ ->
        let c =
          History.add_conflict ctx.Engine.history ~base ~ours ~theirs
            ~origin:(pick texts) ~at:step
        in
        if int 2 = 0 then
          ignore
            (History.resolve_conflict ctx.Engine.history c.History.cid
               ~winner:ours)
      | _ -> ())
  done;
  if int 2 = 0 then begin
    ignore (Session.start_goal_based session (pick [ E.performance; E.performance_plot ]));
    Session.save_flow session (pick texts ^ "flow")
  end;
  ctx.Engine.clock <- ctx.Engine.clock + int 100;
  session

(* The file as the tree of public codecs it is specified to print. *)
let oracle_text session =
  let ctx = Session.context session in
  let store = ctx.Engine.store and history = ctx.Engine.history in
  let instance iid =
    S.list
      [ S.int iid; S.atom (Store.entity_of store iid);
        Persist.meta_to_sexp (Store.meta_of store iid);
        S.atom (Store.hash_of store iid);
        Codec.value_to_sexp (Store.payload store iid) ]
  in
  let conflict (c : History.conflict) =
    S.list
      [ S.int c.History.cid; S.int c.History.c_base; S.int c.History.c_ours;
        S.int c.History.c_theirs; S.atom c.History.c_origin;
        S.int c.History.c_at;
        (match c.History.c_winner with None -> S.atom "-" | Some w -> S.int w) ]
  in
  let flow name =
    match Session.catalog_flow session name with
    | Some g -> [ S.list [ S.atom name; S.atom (Sexp_form.to_string g) ] ]
    | None -> []
  in
  S.to_string
    (S.list
       ([ S.atom "ddf_workspace";
          S.field "version" [ S.int Persist.format_version ];
          S.field "user" [ S.atom ctx.Engine.user ];
          S.field "clock" [ S.int ctx.Engine.clock ];
          S.field "instances" (List.map instance (Store.all_instances store));
          S.field "records" (List.map Persist.record_to_sexp (History.records history)) ]
       @ (match History.all_conflicts history with
         | [] -> []
         | cs -> [ S.field "conflicts" (List.map conflict cs) ])
       @ [ S.field "flows" (List.concat_map flow (Session.flow_catalog session)) ]))
  ^ "\n"

let session_seed = QCheck2.Gen.int_bound 1_000_000

let oracle_cases =
  [
    Util.qcheck ~count:30 "the streamed save prints the codec tree" session_seed
      (fun seed ->
        let session = random_session seed in
        Persist.save session = oracle_text session);
    Util.qcheck ~count:30 "save (load (save s)) is a fixpoint" session_seed
      (fun seed ->
        let text = Persist.save (random_session seed) in
        Persist.save (Persist.load Standard_schemas.odyssey text) = text);
    (* The snapshot writer's contract: an image pinned before another
       domain starts committing still writes exactly the quiescent
       save of the pinned instant. *)
    Util.qcheck ~count:10 "a pinned save ignores concurrent commits"
      session_seed (fun seed ->
        let session = random_session seed in
        let quiescent = Persist.save session in
        let img = Persist.image session in
        let ctx = Session.context session in
        let finished = Atomic.make false in
        let committer =
          Domain.spawn (fun () ->
              let w = Workspace.of_session (Session.of_context ctx) in
              for i = 1 to 60 do
                ignore
                  (Workspace.install_netlist w
                     (Eda.Circuits.random ~n_inputs:3 ~n_gates:6
                        (Eda.Rng.create (seed + i)))
                    : Store.iid);
                Store.annotate ctx.Engine.store 1
                  ~label:(Printf.sprintf "l%d" i) ()
              done;
              Atomic.set finished true)
        in
        (* save the image over and over for as long as the commits run *)
        let rec saves ok =
          let ok = ok && Persist.save_image img = quiescent in
          if Atomic.get finished then ok else saves ok
        in
        let ok = saves true in
        Domain.join committer;
        ok && Persist.save session <> quiescent);
    t "a channel save writes the same bytes as save" (fun () ->
        (* enough instances that the bounded buffer drains mid-save *)
        let w, _, _ = rich_session () in
        for i = 1 to 200 do
          ignore
            (Workspace.install_netlist w
               (Eda.Circuits.random ~n_inputs:4 ~n_gates:12 (Eda.Rng.create i)))
        done;
        let session = Workspace.session w in
        let text = Persist.save session in
        check Alcotest.bool "larger than one chunk" true
          (String.length text > 65536);
        let path = Filename.temp_file "ddf-persist" ".ddf" in
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            Persist.save_file session path;
            let ic = open_in_bin path in
            let written = really_input_string ic (in_channel_length ic) in
            close_in ic;
            check Alcotest.string "same bytes" text written));
  ]

(* ------------------------------------------------------------------ *)
(* Loader rejection                                                    *)
(* ------------------------------------------------------------------ *)

let snapshot_text =
  let text = lazy (Persist.save (random_session 42)) in
  fun () -> Lazy.force text

(* Each bad snapshot must be refused with [Persist_error] by [load], and
   with the journal's "snapshot: ..." error by [Journal.open_] -- never
   with any other exception. *)
let rejected text =
  (match Persist.load Standard_schemas.odyssey text with
  | _ -> Alcotest.fail "load accepted a bad snapshot"
  | exception Persist.Persist_error _ -> ()
  | exception e -> Alcotest.failf "load raised %s" (Printexc.to_string e));
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddf-persist-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  let snapshot = Filename.concat dir "snapshot.ddf" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Out_channel.with_open_bin snapshot (fun oc -> output_string oc text);
      match Journal.open_ ~dir Standard_schemas.odyssey with
      | j ->
        Journal.close j;
        Alcotest.fail "Journal.open_ accepted a bad snapshot"
      | exception Error.Ddf_error e ->
        let m = Error.message e in
        if not (String.length m >= 10 && String.sub m 0 10 = "snapshot: ") then
          Alcotest.failf "unexpected journal error %S" m
      | exception e ->
        Alcotest.failf "Journal.open_ raised %s" (Printexc.to_string e))

(* Swap the first two instance elements, cut out by their start
   markers: each instance starts its own line at indent 2. *)
let swap_instances text =
  let find_from i needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length text then raise Not_found
      else if String.sub text i n = needle then i
      else go (i + 1)
    in
    go i
  in
  let a = find_from 0 "\n  (1 " + 1 in
  let b = find_from a "\n  (2 " + 1 in
  let c = find_from b "\n  (" + 1 in
  String.sub text 0 a
  ^ String.sub text b (c - b)
  ^ String.sub text a (b - a)
  ^ String.sub text c (String.length text - c)

let loader_cases =
  [
    t "the fixture loads" (fun () ->
        ignore (Persist.load Standard_schemas.odyssey (snapshot_text ())));
    Util.qcheck ~count:40 "a truncated snapshot is refused"
      QCheck2.Gen.(float_bound_exclusive 1.0)
      (fun frac ->
        let text = snapshot_text () in
        (* dropping only the final newline leaves a whole file *)
        let n = int_of_float (frac *. float_of_int (String.length text - 1)) in
        rejected (String.sub text 0 n);
        true);
    t "a flipped payload hash is refused" (fun () ->
        let text = snapshot_text () in
        let tampered = Util.replace_first text " nl:" " nl:0" in
        if tampered = text then Alcotest.fail "no hash to flip";
        rejected tampered);
    t "instances out of iid order are refused" (fun () ->
        let text = snapshot_text () in
        let swapped = swap_instances text in
        if swapped = text then Alcotest.fail "swap failed to apply";
        rejected swapped);
    t "instances before version are refused" (fun () ->
        rejected
          (Util.replace_first (snapshot_text ()) "(ddf_workspace\n (version 1)"
             "(ddf_workspace\n (instances)\n (version 1)"));
    t "trailing garbage is refused" (fun () ->
        rejected (snapshot_text () ^ "(more)\n"));
    t "a wrong format version is refused" (fun () ->
        rejected
          (Util.replace_first (snapshot_text ()) "(version 1)" "(version 2)"));
  ]

let suite =
  [ ("persist.workspace", suite_cases); ("persist.sexp", sexp_cases);
    ("persist.reader", reader_properties); ("persist.loader", loader_cases);
    ("persist.oracle", oracle_cases) ]
