(** Design-consistency maintenance (section 3.3): automatic re-tracing
    of a flow to update derived design data. *)

open Ddf_store

type refresh_report = {
  fresh_instance : Store.iid;  (** up-to-date equivalent of the input *)
  reran : int;                 (** invocations recomputed *)
  reused : int;                (** invocations satisfied from history *)
  rebound : (Store.iid * Store.iid) list;
      (** source rebindings applied: (old version, latest) *)
}

val refresh : Engine.context -> Store.iid -> refresh_report
(** Re-derive an instance against the current state of its sources:
    reconstruct its flow trace, rebind every source leaf to its latest
    version, re-execute with memoization.  Only sub-flows affected by
    newer versions actually run. *)

type extraction_status =
  | Never_extracted
  | Up_to_date of Store.iid
  | Out_of_date of Store.iid * (string * Store.iid * Store.iid list) list

val derived_status :
  Engine.context -> source:Store.iid -> goal_entity:string -> extraction_status
(** The paper's example query: has a [goal_entity] been derived from
    this source, and is the newest one current? *)

val pp_report : Format.formatter -> refresh_report -> unit
