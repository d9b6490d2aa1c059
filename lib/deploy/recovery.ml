(** Crash recovery: journal replay + orphan adoption.

    After an engine dies mid-apply ({!Failure.Engine_crashed}, or a
    real process death), three kinds of evidence survive:

    - the last persisted state file (complete up to the previous run),
    - the write-ahead journal ({!Journal}) — every op's intent, and
      the outcome of every op the engine saw complete,
    - the cloud itself: its resources and its activity log.

    [resume_state] folds them back into one truthful state.  Known
    outcomes are merged by {!Journal.replay}.  Each intent whose
    outcome never reached the journal (the crash window) is
    reconciled against the cloud's own activity log:

    - {e create}: look for an unclaimed [Log_create] by this engine at
      or after the intent's log cursor, with matching type, region and
      requested attributes.  Found ⇒ the call did land before the
      crash — {e adopt} the resource under the intent's address (the
      fix for the classic orphan problem).  Not found ⇒ the call never
      made it — leave it to the re-plan.  A claim set keeps
      adoption bijective even when several identical resources (e.g.
      instances of one group) were in flight at once.
    - {e update}: re-read the live attributes — whether or not the
      patch landed, the refreshed row lets the re-plan re-diff it.
    - {e delete}: if the target cloud id is gone, the delete landed —
      drop the row; otherwise the re-plan will delete it again.

    The caller then re-plans the configuration against the recovered
    state and applies the remainder: total work stays bounded by what
    the crash actually interrupted. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud
module Activity_log = Cloudless_sim.Activity_log
module State = Cloudless_state.State
module Journal = Cloudless_state.Journal

type resume_report = {
  replayed : int;  (** journaled outcomes merged into state *)
  adopted : Addr.t list;  (** in-flight creates claimed from the log *)
  refreshed : Addr.t list;  (** in-flight updates re-read from the cloud *)
  confirmed_deleted : Addr.t list;  (** in-flight deletes proven done *)
  replanned : Addr.t list;
      (** intents recovery could not prove done — left to the re-plan *)
}

(** Does the live resource look like what the intent asked for?
    Every concrete requested attribute must match; computed
    attributes (id, arn, …) and nulls don't discriminate. *)
let attrs_match payload live =
  Smap.for_all
    (fun k v ->
      match v with
      | _ when k = "id" || k = "arn" || k = "region" ->
          true (* cloud-computed; the live value wins *)
      | Value.Vnull | Value.Vunknown _ -> true
      | v -> Smap.find_opt k live = Some v)
    payload

let resume_state (cloud : Cloud.t) ~engine ~(state : State.t)
    ~(entries : Journal.entry list) : State.t * resume_report =
  (* the dead engine's in-flight calls finish (or fail) on the cloud
     side first — recovery reads the settled record, like a restarted
     process observing the provider some time after the crash *)
  Cloud.run_until_idle cloud;
  let st = ref (Journal.replay state entries) in
  let replayed =
    List.length
      (List.filter
         (fun (s : Journal.op_status) ->
           match s.Journal.resolution with
           | Some o -> o.Journal.ok
           | None -> false)
         (Journal.analyze entries))
  in
  let log = Cloud.log cloud in
  let claimed : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let adopted = ref [] in
  let refreshed = ref [] in
  let confirmed = ref [] in
  let replanned = ref [] in
  List.iter
    (fun (i : Journal.intent) ->
      match i.Journal.kind with
      | Journal.Op_create -> (
          let candidate =
            List.find_opt
              (fun (e : Activity_log.entry) ->
                e.Activity_log.op = Activity_log.Log_create
                && e.Activity_log.actor = Activity_log.Iac_engine engine
                && e.Activity_log.rtype = i.Journal.rtype
                && e.Activity_log.region = i.Journal.region
                && (not (Hashtbl.mem claimed e.Activity_log.cloud_id))
                && State.find_by_cloud_id !st e.Activity_log.cloud_id = None
                && match Cloud.lookup cloud e.Activity_log.cloud_id with
                   | Some r -> attrs_match i.Journal.payload (Cloud.attrs r)
                   | None -> false)
              (Activity_log.since log i.Journal.log_cursor)
          in
          match candidate with
          | Some e ->
              let cloud_id = e.Activity_log.cloud_id in
              Hashtbl.replace claimed cloud_id ();
              let live = Option.get (Cloud.lookup cloud cloud_id) in
              st :=
                State.add !st
                  {
                    State.addr = i.Journal.iaddr;
                    cloud_id;
                    rtype = i.Journal.rtype;
                    region = i.Journal.region;
                    recorded = State.Recorded.of_map (Cloud.attrs live);
                    deps = i.Journal.deps;
                  };
              adopted := i.Journal.iaddr :: !adopted
          | None -> replanned := i.Journal.iaddr :: !replanned)
      | Journal.Op_update -> (
          match
            Option.bind i.Journal.prior_cloud_id (fun cid ->
                Cloud.lookup cloud cid)
          with
          | Some live ->
              st := State.update_attrs !st i.Journal.iaddr (Cloud.attrs live);
              refreshed := i.Journal.iaddr :: !refreshed
          | None -> replanned := i.Journal.iaddr :: !replanned)
      | Journal.Op_delete -> (
          match i.Journal.prior_cloud_id with
          | Some cid when Cloud.lookup cloud cid = None ->
              (match State.find_opt !st i.Journal.iaddr with
              | Some r when r.State.cloud_id = cid ->
                  st := State.remove !st i.Journal.iaddr
              | _ -> ());
              confirmed := i.Journal.iaddr :: !confirmed
          | _ -> replanned := i.Journal.iaddr :: !replanned))
    (Journal.unresolved entries);
  ( !st,
    {
      replayed;
      adopted = List.rev !adopted;
      refreshed = List.rev !refreshed;
      confirmed_deleted = List.rev !confirmed;
      replanned = List.rev !replanned;
    } )

(** Cloud resources created by an IaC engine, still alive, that no row
    of any of [states] tracks — the orphan count E13 sweeps, sorted and
    deduplicated.  Computed from the activity log so it sees exactly
    what a reconciliation audit would. *)
let orphans (cloud : Cloud.t) ~(states : State.t list) : string list =
  let tracked = Hashtbl.create 64 in
  List.iter
    (fun state ->
      List.iter
        (fun (r : State.resource_state) ->
          Hashtbl.replace tracked r.State.cloud_id ())
        (State.resources state))
    states;
  List.filter_map
    (fun (e : Activity_log.entry) ->
      match (e.Activity_log.op, e.Activity_log.actor) with
      | Activity_log.Log_create, Activity_log.Iac_engine _ ->
          let cid = e.Activity_log.cloud_id in
          if Cloud.lookup cloud cid <> None && not (Hashtbl.mem tracked cid)
          then Some cid
          else None
      | _ -> None)
    (Activity_log.all (Cloud.log cloud))
  |> List.sort_uniq compare
