(* Design-consistency maintenance (section 3.3): automatic re-tracing
   of a flow to update derived design data.

   The design history answers "is this netlist out of date with respect
   to the layout it was extracted from?"; when it is, [refresh] rebuilds
   only the stale part of the derivation flow -- everything else is a
   memo hit against the history. *)

open Ddf_store
open Ddf_history
module Obs = Ddf_obs.Obs
module Metrics = Ddf_obs.Metrics

let m_refreshes = Metrics.counter "consistency.refreshes"
let m_reran = Metrics.counter "consistency.reran"
let m_reused = Metrics.counter "consistency.reused"

type refresh_report = {
  fresh_instance : Store.iid;   (* up-to-date equivalent of the input *)
  reran : int;                  (* invocations recomputed *)
  reused : int;                 (* invocations satisfied from history *)
  rebound : (Store.iid * Store.iid) list;  (* source rebindings applied *)
}

(* Re-derive an instance against the current state of its sources:
   reconstruct its flow trace, cut the trace at every node whose bound
   instance has a newer version (the newer version replaces the whole
   sub-derivation that produced the old one), rebind the remaining
   leaves to their latest versions, and re-execute with memoization.
   Only the sub-flows affected by newer versions actually run. *)
let refresh (ctx : Engine.context) iid =
  Metrics.incr m_refreshes;
  Obs.with_span ~cat:"consistency"
    ~attrs:[ ("instance", Obs.Int iid) ]
    "consistency.refresh"
  @@ fun () ->
  let view = Engine.pin ctx in
  let hist = view.Engine.v_history in
  let g, root, binding =
    History.Snapshot.trace hist view.Engine.v_store ctx.Engine.schema iid
  in
  (* prune: an interior node superseded by a newer version becomes a
     leaf to be re-bound, discarding the stale sub-derivation below it *)
  let g =
    List.fold_left
      (fun g (nid, inst) ->
        if nid = root || not (Ddf_graph.Task_graph.mem g nid) then g
        else if
          History.Snapshot.latest_version hist inst <> inst
          && Ddf_graph.Task_graph.out_edges g nid <> []
        then Ddf_graph.Task_graph.unexpand g nid
        else g)
      g binding
  in
  let rebound = ref [] in
  let bindings =
    List.filter_map
      (fun (nid, source_iid) ->
        if
          Ddf_graph.Task_graph.mem g nid
          && Ddf_graph.Task_graph.out_edges g nid = []
        then begin
          let latest = History.Snapshot.latest_version hist source_iid in
          if latest <> source_iid then
            rebound := (source_iid, latest) :: !rebound;
          Some (nid, latest)
        end
        else None)
      binding
  in
  let run = Engine.execute ~memo:true ctx g ~bindings in
  let reran =
    run.Engine.stats.Engine.executed + run.Engine.stats.Engine.composed
  in
  Metrics.incr ~by:reran m_reran;
  Metrics.incr ~by:run.Engine.stats.Engine.memo_hits m_reused;
  {
    fresh_instance = Engine.result_of run root;
    reran;
    reused = run.Engine.stats.Engine.memo_hits;
    rebound = List.rev !rebound;
  }

(* Answer the paper's example query -- find the netlist extracted from
   this layout, or learn that none exists / it is out of date. *)
type extraction_status =
  | Never_extracted
  | Up_to_date of Store.iid
  | Out_of_date of Store.iid * (string * Store.iid * Store.iid list) list

let derived_status (ctx : Engine.context) ~source ~goal_entity =
  let hist = History.snapshot ctx.Engine.history in
  let derived =
    History.Snapshot.forward_closure hist source
    |> List.concat_map (fun r -> r.History.outputs)
    |> List.filter (fun (e, _) ->
           Ddf_schema.Schema.is_subtype ctx.Engine.schema ~sub:e
             ~super:goal_entity)
    |> List.map snd
  in
  match List.sort (fun a b -> compare b a) derived with
  | [] -> Never_extracted
  | newest :: _ -> (
    match History.Snapshot.out_of_date hist newest with
    | [] -> Up_to_date newest
    | stale -> Out_of_date (newest, stale))

let pp_report ppf r =
  Fmt.pf ppf "refreshed to #%d: %d reran, %d reused, %d rebound"
    r.fresh_instance r.reran r.reused (List.length r.rebound)
