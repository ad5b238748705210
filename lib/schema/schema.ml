(* Task schemas (Sutton, Brockman & Director, DAC'93, section 3.1).

   A schema is a graph over design entities -- tools and data alike --
   whose arcs are the functional and data dependencies that state how
   each entity may be constructed.  The same arcs double as the data
   schema of the design-history database.  Cycles are legal only when
   broken by an optional data dependency (the dashed arc of Fig. 1). *)

module String_map = Map.Make (String)
module String_set = Set.Make (String)

type kind =
  | Tool
  | Design_data

type dep_kind =
  | Functional
  | Data_dep of { optional : bool }

type dep = {
  role : string;
  target : string;
  dep_kind : dep_kind;
}

type entity = {
  id : string;
  kind : kind;
  parent : string option;
  deps : dep list;
  description : string;
}

(* Memoized subtype-closure tables.  A schema value is immutable —
   [add_entity]/[remove_entity] build a new record — so each record
   carries its own lazily-built cache: extension invalidates by
   construction.  The cache itself is an *immutable* record behind an
   [Atomic.t] so concurrent domain readers are safe: builders publish
   a fully-constructed closure with one CAS, and per-root descendant
   lists extend the record by CAS-swapping a new map in.  Losing a
   race just means recomputing a pure value — no torn Hashtbl state. *)
type closure = {
  cl_children : string list String_map.t;
      (* direct subtypes, ascending id order *)
  cl_ancestors : String_set.t String_map.t;
      (* proper ancestors (the parent chain) as a set *)
  cl_descendants : string list String_map.t;
      (* transitive subtypes in BFS order, filled per queried root *)
}

type t = {
  name : string;
  entities : entity String_map.t;
  closure : closure option Atomic.t;
}

exception Schema_error of string

let schema_errorf fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let functional ?(role = "tool") target = { role; target; dep_kind = Functional }

let data ?role ?(optional = false) target =
  let role = match role with Some r -> r | None -> target in
  { role; target; dep_kind = Data_dep { optional } }

let entity ?(kind = Design_data) ?parent ?(description = "") id deps =
  if id = "" then schema_errorf "entity id must be non-empty";
  { id; kind; parent; deps; description }

let tool ?parent ?description id deps =
  entity ~kind:Tool ?parent ?description id deps

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let name s = s.name
let mem s id = String_map.mem id s.entities
let find_opt s id = String_map.find_opt id s.entities

let find s id =
  match find_opt s id with
  | Some e -> e
  | None -> schema_errorf "unknown entity %S in schema %S" id s.name

let entities s = List.map snd (String_map.bindings s.entities)
let entity_ids s = List.map fst (String_map.bindings s.entities)
let size s = String_map.cardinal s.entities

let kind_of s id = (find s id).kind
let is_tool s id = kind_of s id = Tool

(* ------------------------------------------------------------------ *)
(* Subtyping                                                           *)
(* ------------------------------------------------------------------ *)

let parent_of s id = (find s id).parent

let ancestors s id =
  let rec up acc id =
    match parent_of s id with
    | None -> List.rev acc
    | Some p -> up (p :: acc) p
  in
  up [] id

let rec root_of s id =
  match parent_of s id with
  | None -> id
  | Some p -> root_of s p

(* Build the children lists and ancestor sets in one pass over the
   entity map; descendant lists are filled on demand per queried root.
   Parent chains are acyclic (validated), so the memoized ancestor
   recursion terminates. *)
let build_closure s =
  let children =
    String_map.fold
      (fun id e acc ->
        match e.parent with
        | None -> acc
        | Some p ->
          let prev = Option.value (String_map.find_opt p acc) ~default:[] in
          String_map.add p (id :: prev) acc)
      s.entities String_map.empty
  in
  (* the fold visits ids in ascending order; un-reverse each list *)
  let children = String_map.map List.rev children in
  let ancs = ref String_map.empty in
  let rec anc_of id =
    match String_map.find_opt id !ancs with
    | Some set -> set
    | None ->
      let set =
        match (String_map.find id s.entities).parent with
        | None -> String_set.empty
        | Some p -> String_set.add p (anc_of p)
      in
      ancs := String_map.add id set !ancs;
      set
  in
  String_map.iter (fun id _ -> ignore (anc_of id)) s.entities;
  { cl_children = children; cl_ancestors = !ancs;
    cl_descendants = String_map.empty }

let closure_of s =
  match Atomic.get s.closure with
  | Some cl -> cl
  | None ->
    let cl = build_closure s in
    if Atomic.compare_and_set s.closure None (Some cl) then cl
    else (
      (* another domain published first; its tables are identical *)
      match Atomic.get s.closure with Some cl -> cl | None -> cl)

let subtypes s id =
  match String_map.find_opt id (closure_of s).cl_children with
  | Some subs -> subs
  | None -> []

let descendants s id =
  match String_map.find_opt id (closure_of s).cl_descendants with
  | Some l -> l
  | None ->
    (* BFS with an explicit visited set and a reversed accumulator:
       linear, and terminating even on (invalid) cyclic subtype edges *)
    let visited = Hashtbl.create 16 in
    let out = ref [] in
    let q = Queue.create () in
    Hashtbl.add visited id ();
    Queue.add id q;
    while not (Queue.is_empty q) do
      let x = Queue.pop q in
      List.iter
        (fun sub ->
          if not (Hashtbl.mem visited sub) then begin
            Hashtbl.add visited sub ();
            out := sub :: !out;
            Queue.add sub q
          end)
        (subtypes s x)
    done;
    let l = List.rev !out in
    (* memoize by swapping an extended closure in; a lost race means
       someone else cached this (or another) root — retry the extend *)
    let rec publish () =
      (* the CAS expected value must be the physically-identical option
         cell read from the atomic — a fresh [Some cl] never compares
         equal and would spin forever *)
      let cur = Atomic.get s.closure in
      match cur with
      | None -> ()    (* closure vanished is impossible; nothing to extend *)
      | Some cl ->
        if String_map.mem id cl.cl_descendants then ()
        else
          let cl' =
            { cl with
              cl_descendants = String_map.add id l cl.cl_descendants }
          in
          if Atomic.compare_and_set s.closure cur (Some cl') then ()
          else publish ()
    in
    publish ();
    l

let is_subtype s ~sub ~super =
  sub = super
  ||
  match String_map.find_opt sub (closure_of s).cl_ancestors with
  | Some ancs -> String_set.mem super ancs
  | None -> schema_errorf "unknown entity %S in schema %S" sub s.name

(* ------------------------------------------------------------------ *)
(* Construction rules                                                  *)
(* ------------------------------------------------------------------ *)

(* A subtype with its own dependency list overrides its parent's rule;
   a subtype with none inherits the nearest ancestor rule. *)
let effective_deps s id =
  let rec look id =
    let e = find s id in
    if e.deps <> [] then e.deps
    else
      match e.parent with
      | None -> []
      | Some p -> look p
  in
  look id

let functional_dep s id =
  List.find_opt (fun d -> d.dep_kind = Functional) (effective_deps s id)

let data_deps s id =
  let keep d = match d.dep_kind with Data_dep _ -> true | Functional -> false in
  List.filter keep (effective_deps s id)

let is_composite s id =
  effective_deps s id <> [] && functional_dep s id = None

let is_primitive_source s id =
  effective_deps s id = [] && subtypes s id = []

type rule =
  | Constructed of dep list  (* primitive or composite task over these deps *)
  | Abstract of string list  (* must be specialized to one of these subtypes *)
  | Source                   (* no construction; instantiated from the store *)

let construction_rule s id =
  let deps = effective_deps s id in
  if deps <> [] then Constructed deps
  else
    match subtypes s id with
    | [] -> Source
    | subs -> Abstract subs

(* ------------------------------------------------------------------ *)
(* Consumers: who can take an instance of [id] as an input?            *)
(* ------------------------------------------------------------------ *)

(* A dependency on entity E is satisfiable by any subtype of E, so the
   consumers of [id] are all entities one of whose dependencies targets
   [id] or one of its ancestors. *)
let consumers s id =
  let accepted = String_set.of_list (id :: ancestors s id) in
  String_map.fold
    (fun cid _ acc ->
      let takes d = String_set.mem d.target accepted in
      if List.exists takes (effective_deps s cid) then cid :: acc else acc)
    s.entities []
  |> List.rev

let consuming_roles s id =
  let accepted = String_set.of_list (id :: ancestors s id) in
  String_map.fold
    (fun cid _ acc ->
      let here =
        List.filter_map
          (fun d ->
            if String_set.mem d.target accepted then Some (cid, d) else None)
          (effective_deps s cid)
      in
      here @ acc)
    s.entities []
  |> List.rev

(* Entities whose construction rule names the tool [tool_id] as its
   functional dependency: the goals reachable from a tool-based start. *)
let goals_of_tool s tool_id =
  String_map.fold
    (fun gid _ acc ->
      match functional_dep s gid with
      | Some d when is_subtype s ~sub:tool_id ~super:d.target -> gid :: acc
      | Some _ | None -> acc)
    s.entities []
  |> List.rev

(* Sibling outputs: entities sharing the same functional tool and the
   same data-dependency targets are produced by one task invocation
   (Fig. 5: extracted netlist + extraction statistics). *)
let coproduced s id =
  match functional_dep s id with
  | None -> []
  | Some f ->
    let my_data =
      List.sort compare (List.map (fun d -> d.target) (data_deps s id))
    in
    String_map.fold
      (fun oid _ acc ->
        if oid = id then acc
        else
          match functional_dep s oid with
          | Some f' when f'.target = f.target ->
            let other =
              List.sort compare (List.map (fun d -> d.target) (data_deps s oid))
            in
            if other = my_data then oid :: acc else acc
          | Some _ | None -> acc)
      s.entities []
    |> List.rev

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let check_entity s e =
  let seen_roles = Hashtbl.create 8 in
  let check_dep d =
    if not (mem s d.target) then
      schema_errorf "entity %S depends on unknown entity %S" e.id d.target;
    if Hashtbl.mem seen_roles d.role then
      schema_errorf "entity %S has duplicate dependency role %S" e.id d.role;
    Hashtbl.add seen_roles d.role ();
    match d.dep_kind with
    | Functional ->
      if kind_of s d.target <> Tool then
        schema_errorf
          "entity %S has a functional dependency on %S, which is not a tool"
          e.id d.target
    | Data_dep _ -> ()
  in
  List.iter check_dep e.deps;
  let functionals =
    List.filter (fun d -> d.dep_kind = Functional) e.deps
  in
  if List.length functionals > 1 then
    schema_errorf "entity %S has more than one functional dependency" e.id;
  match e.parent with
  | None -> ()
  | Some p ->
    if not (mem s p) then
      schema_errorf "entity %S has unknown parent %S" e.id p;
    if kind_of s p <> e.kind then
      schema_errorf "entity %S and its parent %S differ in kind" e.id p

let check_no_parent_cycle s =
  let check id =
    let rec up seen id =
      match parent_of s id with
      | None -> ()
      | Some p ->
        if String_set.mem p seen then
          schema_errorf "subtype cycle through entity %S" p
        else up (String_set.add p seen) p
    in
    up (String_set.singleton id) id
  in
  List.iter check (entity_ids s)

(* Mandatory-dependency graph must be acyclic: every dependency cycle
   has to be broken by an optional arc (the paper's dashed edges). *)
let check_loops_broken s =
  let mandatory id =
    List.filter_map
      (fun d ->
        match d.dep_kind with
        | Functional | Data_dep { optional = false } -> Some d.target
        | Data_dep { optional = true } -> None)
      (effective_deps s id)
  in
  (* Iterative three-colour DFS to keep large schemas stack-safe. *)
  let colour = Hashtbl.create (size s) in
  let state id = try Hashtbl.find colour id with Not_found -> `White in
  let visit start =
    let rec go = function
      | [] -> ()
      | `Enter id :: rest -> (
        match state id with
        | `Black -> go rest
        | `Grey -> schema_errorf "mandatory dependency cycle through %S" id
        | `White ->
          Hashtbl.replace colour id `Grey;
          let succs = List.map (fun x -> `Enter x) (mandatory id) in
          go (succs @ (`Exit id :: rest)))
      | `Exit id :: rest ->
        Hashtbl.replace colour id `Black;
        go rest
    in
    if state start = `White then go [ `Enter start ]
  in
  List.iter visit (entity_ids s)

let validate s =
  List.iter (check_entity s) (entities s);
  check_no_parent_cycle s;
  check_loops_broken s

let create name entity_list =
  let add acc e =
    if String_map.mem e.id acc then
      schema_errorf "duplicate entity %S in schema %S" e.id name
    else String_map.add e.id e acc
  in
  let entities = List.fold_left add String_map.empty entity_list in
  let s = { name; entities; closure = Atomic.make None } in
  validate s;
  s

(* Extension and removal build a fresh record with a fresh (empty)
   closure cache — never [{ s with ... }], which would share the stale
   cache ref with the original schema. *)
let add_entity s e =
  if mem s e.id then schema_errorf "entity %S already present" e.id;
  let s =
    { name = s.name; entities = String_map.add e.id e s.entities;
      closure = Atomic.make None }
  in
  validate s;
  s

let remove_entity s id =
  let _ = find s id in
  let s =
    { name = s.name; entities = String_map.remove id s.entities;
      closure = Atomic.make None }
  in
  validate s;
  s

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_kind ppf = function
  | Tool -> Fmt.string ppf "tool"
  | Design_data -> Fmt.string ppf "data"

let pp_dep ppf d =
  match d.dep_kind with
  | Functional -> Fmt.pf ppf "f:%s" d.target
  | Data_dep { optional = false } -> Fmt.pf ppf "d:%s" d.target
  | Data_dep { optional = true } -> Fmt.pf ppf "d?:%s" d.target

let pp_entity ppf e =
  Fmt.pf ppf "@[<h>%s (%a%a)%a@]" e.id pp_kind e.kind
    (fun ppf -> function
      | None -> ()
      | Some p -> Fmt.pf ppf " <: %s" p)
    e.parent
    (fun ppf deps ->
      if deps <> [] then Fmt.pf ppf " <- %a" Fmt.(list ~sep:comma pp_dep) deps)
    e.deps

let pp ppf s =
  Fmt.pf ppf "@[<v>schema %s:@,%a@]" s.name
    Fmt.(list ~sep:cut pp_entity)
    (entities s)

let to_dot s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" s.name);
  let emit e =
    let shape = match e.kind with Tool -> "ellipse" | Design_data -> "box" in
    Buffer.add_string buf
      (Printf.sprintf "  %S [shape=%s];\n" e.id shape);
    (match e.parent with
    | None -> ()
    | Some p ->
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S [style=bold,label=\"subtype\"];\n" e.id p));
    let edge d =
      let label, style =
        match d.dep_kind with
        | Functional -> ("f", "solid")
        | Data_dep { optional = false } -> ("d", "solid")
        | Data_dep { optional = true } -> ("d", "dashed")
      in
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S [label=%S,style=%s];\n" e.id d.target label
           style)
    in
    List.iter edge e.deps
  in
  List.iter emit (entities s);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
