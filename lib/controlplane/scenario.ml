(** Service-load scenarios for the control plane.

    A scenario is a small [key = value] text file describing a
    multi-tenant workload: how many tenants and deployments, how big
    each fleet is, how many configuration revisions each tenant pushes
    and at what cadence, and how much out-of-band drift the world
    injects while the service runs.  {!install_fleet} compiles it into
    simulated-clock callbacks against a {!Fleet.t} — requests submitted
    at their scheduled instants, OOB mutations/deletions against live
    resources — and returns the injection log the benches join with the
    fleet's detection log to measure drift-detection latency.

    [install_fleet] takes the fleet by [ref] so that a crash-resume
    mid-scenario ({!Fleet.resume} builds a {e new} fleet on the same
    cloud) does not strand the not-yet-fired request callbacks: they
    dereference at fire time and land on the successor. *)

module Cloud = Cloudless_sim.Cloud
module Failure = Cloudless_sim.Failure
module State = Cloudless_state.State
module Workload = Cloudless_workload.Workload
module Breaker = Cloudless_deploy.Breaker
module Hcl = Cloudless_hcl
module Policy = Cloudless_policy.Policy
module Rego_like = Cloudless_policy.Rego_like
module Change = Cloudless_wave.Change
module Err = Cloudless_error

(** One scheduled bulk-change rollout (E18): at [wstart] the rollout
    driver compiles [wchange] into canary → growing waves, gating every
    wave boundary on a [wcheck]-period health check. *)
type wave_spec = { wstart : float; wcheck : float; wchange : Change.t }

type t = {
  tenants : int;
  deployments_per_tenant : int;
  resources : int;  (** fleet size per deployment *)
  requests_per_tenant : int;
      (** config revisions pushed per deployment, including the initial
          apply at t=0 (all tenants submit simultaneously) *)
  request_interval : float;  (** sim seconds between revision waves *)
  drift_events : int;  (** OOB injections spread over the drift window *)
  drift_period : float;
      (** scan-sweep period of the baseline preset; also paces the drift
          injection window and [serve --ticks] *)
  policy_period : float;  (** 0 = no policy controller *)
  duration : float;  (** scenario horizon, sim seconds *)
  shards : int;  (** fleet shard count (E15) *)
  hot_tenants : int;
      (** tenants 0..n-1 burst-submit conflicting requests each wave,
          holding their shard's queue deep enough for the rebalancer
          and the admission bound to observe *)
  hot_burst : int;  (** extra same-instant requests per hot tenant wave *)
  max_queue_depth : int;  (** admission bound; 0 = unbounded *)
  admission : Shard.admission;  (** over-bound policy: defer | reject *)
  rebalance_period : float;  (** fleet rebalance check period; 0 = off *)
  episodes : Failure.episode list;
      (** time-windowed fault regimes, in file order (E17) *)
  breaker : bool;  (** arm per-shard circuit breakers (E17) *)
  calm_tenants : int;
      (** the last n tenants resubmit only the wave-0 revision — a
          guaranteed-unaffected tenant class for degraded-mode claims *)
  waves : wave_spec list;
      (** scheduled bulk-change rollouts, in file order (E18) *)
}

let default =
  {
    tenants = 4;
    deployments_per_tenant = 1;
    resources = 8;
    requests_per_tenant = 3;
    request_interval = 600.;
    drift_events = 8;
    drift_period = 60.;
    policy_period = 300.;
    duration = 3600.;
    shards = 2;
    hot_tenants = 0;
    hot_burst = 6;
    max_queue_depth = 0;
    admission = Shard.Defer;
    rebalance_period = 0.;
    episodes = [];
    breaker = false;
    calm_tenants = 0;
    waves = [];
  }

(* One [episode = k=v k=v ...] value.  The sub-grammar is as strict as
   the top-level one: unknown sub-keys, malformed values, missing
   required keys and kind-inapplicable magnitudes all fail with a
   located scenario-syntax diagnostic. *)
let episode_of_spec ~file ~line spec =
  let failf fmt =
    Printf.ksprintf
      (fun msg ->
        Err.fail ~stage:Err.Diagnostic.Syntax ~code:"scenario-syntax"
          "%s:%d: %s" file line msg)
      fmt
  in
  let pairs =
    String.split_on_char ' ' spec
    |> List.filter (fun s -> s <> "")
    |> List.map (fun tok ->
           match String.index_opt tok '=' with
           | None ->
               failf "episode expects space-separated k=v pairs, got %S" tok
           | Some i ->
               ( String.sub tok 0 i,
                 String.sub tok (i + 1) (String.length tok - i - 1) ))
  in
  let kind =
    match List.assoc_opt "kind" pairs with
    | None ->
        failf
          "episode requires kind=outage|error_storm|throttle_storm|spot|quota_cut"
    | Some k -> (
        match Failure.episode_kind_of_string k with
        | Some k -> k
        | None -> failf "unknown episode kind %S" k)
  in
  let fl key v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> failf "episode %s expects a number, got %S" key v
  in
  let rtype = ref None and region = ref None in
  let start_ = ref None and finish = ref None and mag = ref None in
  let mag_for want key v =
    if kind <> want then
      failf "episode key %s only applies to kind=%s" key
        (Failure.episode_kind_to_string want)
    else mag := Some (fl key v)
  in
  List.iter
    (fun (k, v) ->
      match k with
      | "kind" -> ()
      | "rtype" -> rtype := Some v
      | "region" -> region := Some v
      | "start" -> start_ := Some (fl k v)
      | "end" -> finish := Some (fl k v)
      | "p" -> mag_for Failure.Error_storm k v
      | "retry_after" -> mag_for Failure.Throttle_storm k v
      | "quota" -> mag_for Failure.Quota_cut k v
      | "count" -> mag_for Failure.Spot_termination k v
      | _ -> failf "unknown episode key %S" k)
    pairs;
  let start_ =
    match !start_ with
    | Some s -> s
    | None -> failf "episode requires start=<sim seconds>"
  in
  let finish =
    match (!finish, kind) with
    | Some f, _ -> f
    | None, Failure.Spot_termination -> start_ +. 1.
    | None, _ -> failf "episode requires end=<sim seconds>"
  in
  if finish <= start_ then
    failf "episode end %g must be after start %g" finish start_;
  let magnitude =
    match (!mag, kind) with
    | Some m, _ -> m
    | None, Failure.Outage -> 1.
    | None, Failure.Error_storm -> failf "kind=error_storm requires p=<prob>"
    | None, Failure.Throttle_storm ->
        failf "kind=throttle_storm requires retry_after=<seconds>"
    | None, Failure.Quota_cut -> failf "kind=quota_cut requires quota=<level>"
    | None, Failure.Spot_termination ->
        failf "kind=spot requires count=<instances>"
  in
  Failure.episode ?rtype:!rtype ?region:!region ~magnitude ~start_ ~finish kind

(* One [wave = k=v k=v ...] value — a bulk-change rollout compiled into
   a {!Change.t} without a separate change file.  Same strictness as
   [episode =]: unknown sub-keys, malformed values, missing required
   keys and kind-inapplicable keys all fail with a located
   scenario-syntax diagnostic. *)
let wave_of_spec ~file ~line spec =
  let failf fmt =
    Printf.ksprintf
      (fun msg ->
        Err.fail ~stage:Err.Diagnostic.Syntax ~code:"scenario-syntax"
          "%s:%d: %s" file line msg)
      fmt
  in
  let pairs =
    String.split_on_char ' ' spec
    |> List.filter (fun s -> s <> "")
    |> List.map (fun tok ->
           match String.index_opt tok '=' with
           | None -> failf "wave expects space-separated k=v pairs, got %S" tok
           | Some i ->
               ( String.sub tok 0 i,
                 String.sub tok (i + 1) (String.length tok - i - 1) ))
  in
  let fl key v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> failf "wave %s expects a number, got %S" key v
  in
  let it key v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> failf "wave %s expects an integer, got %S" key v
  in
  let kind = ref `Set_attr and rtype = ref "aws_instance" in
  let attr = ref None and value = ref None and count = ref None in
  let start_ = ref None and canary = ref 1 and growth = ref 2 in
  let forbid = ref None and budget = ref None and check = ref 60. in
  List.iter
    (fun (k, v) ->
      match k with
      | "kind" -> (
          match v with
          | "set_attr" -> kind := `Set_attr
          | "set_count" -> kind := `Set_count
          | _ -> failf "unknown wave kind %S (expected set_attr|set_count)" v)
      | "rtype" -> rtype := v
      | "attr" -> attr := Some v
      | "value" -> value := Some v
      | "count" -> count := Some (it k v)
      | "start" -> start_ := Some (fl k v)
      | "canary" -> canary := it k v
      | "growth" -> growth := it k v
      | "forbid" -> forbid := Some v
      | "budget" -> budget := Some (fl k v)
      | "check" -> check := fl k v
      | _ -> failf "unknown wave key %S" k)
    pairs;
  let wstart =
    match !start_ with
    | Some s -> s
    | None -> failf "wave requires start=<sim seconds>"
  in
  if !canary < 1 then failf "wave canary must be >= 1, got %d" !canary;
  if !growth < 1 then failf "wave growth must be >= 1, got %d" !growth;
  let target = !rtype ^ ".*" in
  let str s = Hcl.Ast.mk (Hcl.Ast.Template [ Hcl.Ast.Lit s ]) in
  let action =
    match !kind with
    | `Set_attr ->
        let attr =
          match !attr with
          | Some a -> a
          | None -> failf "kind=set_attr requires attr=<name>"
        in
        let value =
          match !value with
          | Some v -> v
          | None -> failf "kind=set_attr requires value=<string>"
        in
        if !count <> None then
          failf "wave key count only applies to kind=set_count";
        {
          Policy.aname = "bulk";
          kind = Policy.Set_attr { target; attr; value = str value };
        }
    | `Set_count ->
        let n =
          match !count with
          | Some n -> n
          | None -> failf "kind=set_count requires count=<int>"
        in
        if !attr <> None || !value <> None then
          failf "wave keys attr/value only apply to kind=set_attr";
        {
          Policy.aname = "bulk";
          kind = Policy.Set_count { target; value = Hcl.Ast.mk (Hcl.Ast.Int n) };
        }
  in
  let gates =
    match !forbid with
    | None -> []
    | Some fv ->
        let attr =
          match !attr with
          | Some a -> a
          | None -> failf "wave forbid= requires attr=<name>"
        in
        [
          {
            Rego_like.cname = "forbid";
            predicate =
              Rego_like.Attr_equals
                { rtype = !rtype; attr; value = Hcl.Value.Vstring fv };
            deny_message =
              Printf.sprintf "%s.%s = %S is forbidden" !rtype attr fv;
          };
        ]
  in
  {
    wstart;
    wcheck = !check;
    wchange =
      {
        Change.cname = Printf.sprintf "wave@%s:%d" file line;
        actions = [ action ];
        canary = !canary;
        growth = !growth;
        gates;
        budget = !budget;
        cspan = Hcl.Loc.dummy;
      };
  }

let parse ?(file = "<scenario>") src =
  let scn = ref default in
  String.split_on_char '\n' src
  |> List.iteri (fun lineno line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         let line = String.trim line in
         if line <> "" then
           match String.index_opt line '=' with
           | None ->
               Err.fail ~stage:Err.Diagnostic.Syntax ~code:"scenario-syntax"
                 "%s:%d: expected 'key = value', got %S" file (lineno + 1) line
           | Some i ->
               let key = String.trim (String.sub line 0 i) in
               let v =
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1))
               in
               let int_v () =
                 match int_of_string_opt v with
                 | Some n -> n
                 | None ->
                     Err.fail ~stage:Err.Diagnostic.Syntax
                       ~code:"scenario-syntax" "%s:%d: %s expects an integer, got %S"
                       file (lineno + 1) key v
               in
               let float_v () =
                 match float_of_string_opt v with
                 | Some f -> f
                 | None ->
                     Err.fail ~stage:Err.Diagnostic.Syntax
                       ~code:"scenario-syntax" "%s:%d: %s expects a number, got %S"
                       file (lineno + 1) key v
               in
               scn :=
                 match key with
                 | "tenants" -> { !scn with tenants = int_v () }
                 | "deployments_per_tenant" ->
                     { !scn with deployments_per_tenant = int_v () }
                 | "resources" -> { !scn with resources = int_v () }
                 | "requests_per_tenant" ->
                     { !scn with requests_per_tenant = int_v () }
                 | "request_interval" ->
                     { !scn with request_interval = float_v () }
                 | "drift_events" -> { !scn with drift_events = int_v () }
                 | "drift_period" -> { !scn with drift_period = float_v () }
                 | "policy_period" -> { !scn with policy_period = float_v () }
                 | "duration" -> { !scn with duration = float_v () }
                 | "shards" -> { !scn with shards = int_v () }
                 | "hot_tenants" -> { !scn with hot_tenants = int_v () }
                 | "hot_burst" -> { !scn with hot_burst = int_v () }
                 | "max_queue_depth" ->
                     { !scn with max_queue_depth = int_v () }
                 | "admission" -> (
                     match v with
                     | "defer" -> { !scn with admission = Shard.Defer }
                     | "reject" -> { !scn with admission = Shard.Reject }
                     | _ ->
                         Err.fail ~stage:Err.Diagnostic.Syntax
                           ~code:"scenario-syntax"
                           "%s:%d: admission expects defer|reject, got %S"
                           file (lineno + 1) v)
                 | "rebalance_period" ->
                     { !scn with rebalance_period = float_v () }
                 | "episode" ->
                     {
                       !scn with
                       episodes =
                         !scn.episodes
                         @ [ episode_of_spec ~file ~line:(lineno + 1) v ];
                     }
                 | "breaker" -> (
                     match v with
                     | "on" -> { !scn with breaker = true }
                     | "off" -> { !scn with breaker = false }
                     | _ ->
                         Err.fail ~stage:Err.Diagnostic.Syntax
                           ~code:"scenario-syntax"
                           "%s:%d: breaker expects on|off, got %S" file
                           (lineno + 1) v)
                 | "calm_tenants" -> { !scn with calm_tenants = int_v () }
                 | "wave" ->
                     {
                       !scn with
                       waves =
                         !scn.waves
                         @ [ wave_of_spec ~file ~line:(lineno + 1) v ];
                     }
                 | _ ->
                     Err.fail ~stage:Err.Diagnostic.Syntax
                       ~code:"scenario-syntax" "%s:%d: unknown scenario key %S"
                       file (lineno + 1) key);
  !scn

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse ~file:path src

(* ------------------------------------------------------------------ *)
(* Workload generation                                                 *)
(* ------------------------------------------------------------------ *)

(* One instance group sized so the fleet is exactly [resources] rows
   with at least one aws_instance to drift: vpc + subnet + sg + tg +
   (resources - 4) instances. *)
let fleet_src scn ~wave =
  let types = [| "t3.small"; "t3.medium"; "t3.large"; "t3.xlarge" |] in
  Workload.fleet
    ~instances_per_group:(max 1 (scn.resources - 4))
    ~instance_type:types.(wave mod Array.length types)
    ~resources:scn.resources ()

(* Embedded service policy: flag any accumulated drift at each tick. *)
let policy_src =
  {|
policy "drift_watch" {
  on   = "telemetry"
  when = obs.drift_events > 0

  action "note_drift" {
    kind    = "notify"
    message = "service observed ${obs.drift_events} drift event(s) across ${obs.tenants} tenant(s)"
  }
}
|}

(** Specialize a service preset (timing knobs + policy + admission) to
    a scenario. *)
let service_config scn (base : Shard.service_config) =
  {
    base with
    Shard.drift_period = scn.drift_period;
    policy_period = scn.policy_period;
    policy_src = (if scn.policy_period > 0. then Some policy_src else None);
    max_queue_depth = scn.max_queue_depth;
    admission = scn.admission;
    rebalance_period = scn.rebalance_period;
    breaker = (if scn.breaker then Some Breaker.default_config else None);
  }

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)
(* ------------------------------------------------------------------ *)

type injection = {
  icloud_id : string;
  injected_at : float;
  deleted : bool;  (** true: delete_oob; false: attr mutation *)
  itenant : string;  (** owning tenant at injection time *)
}

(* Spot-termination waves.  The cloud only *judges* API calls against
   episodes; actually killing instances is the installer's job.  At
   each spot episode's start we stride-pick [count] running rows of
   the episode's rtype (default aws_instance) across every tenant,
   delete them out-of-band under the "spot" script, and record them in
   the injection log so benches can attribute the loss per tenant. *)
let schedule_spot_waves scn cloud injections ~live_rows =
  List.iter
    (fun (e : Failure.episode) ->
      if e.Failure.ekind = Failure.Spot_termination then
        Cloud.schedule cloud
          ~delay:(Float.max 0. e.Failure.estart)
          (fun () ->
            let rt = Option.value e.Failure.ertype ~default:"aws_instance" in
            let rows =
              List.sort
                (fun (_, a) (_, b) -> String.compare a b)
                (live_rows rt)
            in
            let n = List.length rows in
            let want = int_of_float e.Failure.emag in
            if n > 0 && want > 0 then begin
              let stride = max 1 (n / want) in
              let killed = ref 0 in
              List.iteri
                (fun i (tenant, cid) ->
                  if i mod stride = 0 && !killed < want then
                    match
                      Cloud.delete_oob cloud ~script:"spot" ~cloud_id:cid
                    with
                    | Ok () ->
                        incr killed;
                        injections :=
                          {
                            icloud_id = cid;
                            injected_at = Cloud.now cloud;
                            deleted = true;
                            itenant = tenant;
                          }
                          :: !injections
                    | Error _ -> ())
                rows
            end))
    scn.episodes

(** Register all deployments on [!fleet_ref] (tenants landing on their
    router-assigned shards) and schedule the request waves and drift
    injections on its cloud, plus hot-tenant bursts: tenants
    [0 .. hot_tenants-1] submit [hot_burst] extra same-instant
    requests against the same deployment each wave.  The duplicates
    conflict on the deployment's root lock and sit in the owning
    shard's queue, which is exactly the depth signal the admission
    bound and the fleet rebalancer react to.  Returns the injection
    log. *)
let install_fleet scn fleet_ref =
  let fleet = !fleet_ref in
  let cloud = Fleet.cloud fleet in
  let injections = ref [] in
  let deps = ref [] in
  for ti = 0 to scn.tenants - 1 do
    let tenant = Printf.sprintf "tenant%d" ti in
    let hot = ti < scn.hot_tenants in
    let calm = ti >= scn.tenants - scn.calm_tenants in
    for di = 0 to scn.deployments_per_tenant - 1 do
      let dname = Printf.sprintf "d%d" di in
      ignore
        (Fleet.add_deployment fleet ~tenant ~dname
           ~src:(fleet_src scn ~wave:0));
      deps := (tenant, dname) :: !deps;
      for w = 0 to scn.requests_per_tenant - 1 do
        let wave = if calm then 0 else w in
        let repeats = if hot && di = 0 then 1 + scn.hot_burst else 1 in
        for _ = 1 to repeats do
          Cloud.schedule cloud
            ~delay:(float_of_int w *. scn.request_interval)
            (fun () ->
              let fleet = !fleet_ref in
              match Fleet.find_deployment fleet ~tenant ~dname with
              | Some dep ->
                  ignore
                    (Fleet.submit_request fleet dep
                       ~src:(fleet_src scn ~wave)
                      : [ `Accepted of int | `Deferred of int | `Rejected ])
              | None -> ())
        done
      done
    done
  done;
  let deps = Array.of_list (List.rev !deps) in
  let ndeps = Array.length deps in
  (* Drift window: after the revision waves settle, ending early enough
     that the last detection and reconcile fit inside [duration]. *)
  if scn.drift_events > 0 && ndeps > 0 then begin
    let base =
      (float_of_int (scn.requests_per_tenant - 1) *. scn.request_interval)
      +. (2. *. scn.drift_period)
    in
    let window =
      Float.max scn.drift_period
        (scn.duration -. base -. (3. *. scn.drift_period))
    in
    let gap = window /. float_of_int scn.drift_events in
    for i = 0 to scn.drift_events - 1 do
      let tenant, dname = deps.(i mod ndeps) in
      Cloud.schedule cloud
        ~delay:(base +. (float_of_int i *. gap))
        (fun () ->
          let fleet = !fleet_ref in
          match Fleet.find_deployment fleet ~tenant ~dname with
          | None -> ()
          | Some dep ->
              let instances =
                List.filter
                  (fun (r : State.resource_state) ->
                    r.State.rtype = "aws_instance")
                  (State.resources dep.Shard.state)
              in
              let n = List.length instances in
              if n > 0 then begin
                let row = List.nth instances (i / ndeps mod n) in
                let cid = row.State.cloud_id in
                let deleted = i mod 4 = 3 in
                let r =
                  if deleted then
                    Cloud.delete_oob cloud ~script:"ops" ~cloud_id:cid
                  else
                    Cloud.mutate_oob cloud ~script:"ops" ~cloud_id:cid
                      ~attr:"instance_type"
                      ~value:(Cloudless_hcl.Value.Vstring "t2.nano")
                in
                ignore (r : (unit, Cloud.error) result);
                injections :=
                  {
                    icloud_id = cid;
                    injected_at = Cloud.now cloud;
                    deleted;
                    itenant = tenant;
                  }
                  :: !injections
              end)
    done
  end;
  if scn.episodes <> [] then begin
    Cloud.set_episodes cloud scn.episodes;
    schedule_spot_waves scn cloud injections ~live_rows:(fun rt ->
        List.concat_map
          (fun (dep : Shard.deployment) ->
            List.filter_map
              (fun (r : State.resource_state) ->
                if r.State.rtype = rt then
                  Some (dep.Shard.tenant, r.State.cloud_id)
                else None)
              (State.resources dep.Shard.state))
          (Fleet.deployments !fleet_ref))
  end;
  injections
