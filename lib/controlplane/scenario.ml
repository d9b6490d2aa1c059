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
          injection window *)
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

(* ------------------------------------------------------------------ *)
(* Strict k=v sub-grammars                                             *)
(* ------------------------------------------------------------------ *)

(* Every number in a scenario is finite and at least 0, and a
   [positive] one is above 0: a zero or negative period re-arms its
   timer at the same simulated instant forever.  [least] is the
   smallest integer a field takes.  [fail] raises the caller's
   diagnostic, located at the offending line. *)
let number ~fail ~positive name v =
  let in_range f = if positive then f > 0. else f >= 0. in
  match float_of_string_opt v with
  | Some f when Float.is_finite f && in_range f -> f
  | _ ->
      fail
        (Printf.sprintf "%s expects a number %s, got %S" name
           (if positive then "> 0" else ">= 0")
           v)

let integer ~fail ~least name v =
  match int_of_string_opt v with
  | Some n when n >= least -> n
  | _ -> fail (Printf.sprintf "%s expects an integer >= %d, got %S" name least v)

(* The [episode =] and [wave =] values are space-separated [k=v] pairs,
   as strict as the top-level grammar: malformed tokens, unknown keys,
   malformed or out-of-range values, missing required keys and
   kind-inapplicable keys all fail with a scenario-syntax diagnostic
   located at the value's line.  [what] names the sub-grammar in every
   message; a repeated key's last value wins.  [Pos] is a number above
   0. *)
type kv_type = Str | Num | Pos | Int

type kv = {
  what : string;
  span : Hcl.Loc.span;  (** the line the value is on *)
  keys : (string * kv_type) list;
  pairs : (string * string) list;
}

let syntax_error ~span fmt =
  Err.fail ~stage:Err.Diagnostic.Syntax ~code:"scenario-syntax" ~span fmt

let kv_fail kv fmt = syntax_error ~span:kv.span fmt

let kv_number kv key v =
  number
    ~fail:(kv_fail kv "%s")
    ~positive:(List.assoc_opt key kv.keys = Some Pos)
    (kv.what ^ " " ^ key) v

let kv_integer kv key v =
  integer ~fail:(kv_fail kv "%s") ~least:0 (kv.what ^ " " ^ key) v

(* Split [spec] into pairs and check each, in order, against [keys]:
   the key must be known and a typed value must parse. *)
let kv_read ~what ~span ~keys spec =
  let kv = { what; span; keys; pairs = [] } in
  let pairs =
    String.split_on_char ' ' spec
    |> List.filter (fun s -> s <> "")
    |> List.map (fun tok ->
           match String.index_opt tok '=' with
           | None ->
               kv_fail kv "%s expects space-separated k=v pairs, got %S" what
                 tok
           | Some i ->
               ( String.sub tok 0 i,
                 String.sub tok (i + 1) (String.length tok - i - 1) ))
  in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k keys with
      | None -> kv_fail kv "unknown %s key %S" what k
      | Some Str -> ()
      | Some (Num | Pos) -> ignore (kv_number kv k v)
      | Some Int -> ignore (kv_integer kv k v))
    pairs;
  { kv with pairs }

let kv_str kv key =
  List.fold_left
    (fun acc (k, v) -> if k = key then Some v else acc)
    None kv.pairs

let kv_num kv key = Option.map (kv_number kv key) (kv_str kv key)
let kv_int kv key = Option.map (kv_integer kv key) (kv_str kv key)

(* Reject [keys] given to a value whose kind is not [kind]. *)
let kv_only_for kv ~kind keys =
  if List.exists (fun k -> List.mem_assoc k kv.pairs) keys then
    match keys with
    | [ k ] -> kv_fail kv "%s key %s only applies to kind=%s" kv.what k kind
    | _ ->
        kv_fail kv "%s keys %s only apply to kind=%s" kv.what
          (String.concat "/" keys) kind

(* Each episode magnitude key, the kind it applies to, and the
   placeholder its requirement message names. *)
let magnitudes =
  [
    ("p", Failure.Error_storm, "prob");
    ("retry_after", Failure.Throttle_storm, "seconds");
    ("quota", Failure.Quota_cut, "level");
    ("count", Failure.Spot_termination, "instances");
  ]

(* One [episode = k=v k=v ...] value. *)
let episode_of_spec ~span spec =
  let kv =
    kv_read ~what:"episode" ~span spec
      ~keys:
        ([ ("kind", Str); ("rtype", Str); ("region", Str); ("start", Num);
           ("end", Num) ]
        @ List.map (fun (k, _, _) -> (k, Num)) magnitudes)
  in
  let kind =
    match kv_str kv "kind" with
    | None ->
        kv_fail kv "episode requires %s"
          "kind=outage|error_storm|throttle_storm|spot|quota_cut"
    | Some k -> (
        match Failure.episode_kind_of_string k with
        | Some k -> k
        | None -> kv_fail kv "unknown episode kind %S" k)
  in
  List.iter
    (fun (key, applies, _) ->
      if applies <> kind then
        kv_only_for kv ~kind:(Failure.episode_kind_to_string applies) [ key ])
    magnitudes;
  let start_ =
    match kv_num kv "start" with
    | Some s -> s
    | None -> kv_fail kv "episode requires start=<sim seconds>"
  in
  let finish =
    match (kv_num kv "end", kind) with
    | Some f, _ -> f
    | None, Failure.Spot_termination -> start_ +. 1.
    | None, _ -> kv_fail kv "episode requires end=<sim seconds>"
  in
  if finish <= start_ then
    kv_fail kv "episode end %g must be after start %g" finish start_;
  let magnitude =
    match List.find_opt (fun (_, applies, _) -> applies = kind) magnitudes with
    | None -> 1. (* an outage fails every matching call *)
    | Some (key, _, placeholder) -> (
        match kv_num kv key with
        | Some m -> m
        | None ->
            kv_fail kv "kind=%s requires %s=<%s>"
              (Failure.episode_kind_to_string kind) key placeholder)
  in
  Failure.episode ?rtype:(kv_str kv "rtype") ?region:(kv_str kv "region")
    ~magnitude ~start_ ~finish kind

(* One [wave = k=v k=v ...] value — a bulk-change rollout compiled into
   a {!Change.t} without a separate change file. *)
let wave_of_spec ~span spec =
  let kv =
    kv_read ~what:"wave" ~span spec
      ~keys:
        [
          ("kind", Str); ("rtype", Str); ("attr", Str); ("value", Str);
          ("count", Int); ("start", Num); ("canary", Int); ("growth", Int);
          ("forbid", Str); ("budget", Num); ("check", Pos);
        ]
  in
  let set_count =
    match kv_str kv "kind" with
    | None | Some "set_attr" -> false
    | Some "set_count" -> true
    | Some v ->
        kv_fail kv "unknown wave kind %S (expected set_attr|set_count)" v
  in
  let rtype = Option.value (kv_str kv "rtype") ~default:"aws_instance" in
  let attr = kv_str kv "attr" in
  let wstart =
    match kv_num kv "start" with
    | Some s -> s
    | None -> kv_fail kv "wave requires start=<sim seconds>"
  in
  let canary = Option.value (kv_int kv "canary") ~default:1 in
  let growth = Option.value (kv_int kv "growth") ~default:2 in
  if canary < 1 then kv_fail kv "wave canary must be >= 1, got %d" canary;
  if growth < 1 then kv_fail kv "wave growth must be >= 1, got %d" growth;
  let target = rtype ^ ".*" in
  let str s = Hcl.Ast.mk (Hcl.Ast.Template [ Hcl.Ast.Lit s ]) in
  let kind =
    if set_count then begin
      let n =
        match kv_int kv "count" with
        | Some n -> n
        | None -> kv_fail kv "kind=set_count requires count=<int>"
      in
      kv_only_for kv ~kind:"set_attr" [ "attr"; "value" ];
      Policy.Set_count { target; value = Hcl.Ast.mk (Hcl.Ast.Int n) }
    end
    else begin
      let attr =
        match attr with
        | Some a -> a
        | None -> kv_fail kv "kind=set_attr requires attr=<name>"
      in
      let value =
        match kv_str kv "value" with
        | Some v -> v
        | None -> kv_fail kv "kind=set_attr requires value=<string>"
      in
      kv_only_for kv ~kind:"set_count" [ "count" ];
      Policy.Set_attr { target; attr; value = str value }
    end
  in
  let gates =
    match kv_str kv "forbid" with
    | None -> []
    | Some fv ->
        let attr =
          match attr with
          | Some a -> a
          | None -> kv_fail kv "wave forbid= requires attr=<name>"
        in
        [
          {
            Rego_like.cname = "forbid";
            predicate =
              Rego_like.Attr_equals
                { rtype; attr; value = Hcl.Value.Vstring fv };
            deny_message =
              Printf.sprintf "%s.%s = %S is forbidden" rtype attr fv;
          };
        ]
  in
  {
    wstart;
    wcheck = Option.value (kv_num kv "check") ~default:60.;
    wchange =
      {
        Change.cname =
          Printf.sprintf "wave@%s:%d" span.Hcl.Loc.file (Hcl.Loc.line span);
        actions = [ { Policy.aname = "bulk"; kind } ];
        canary;
        growth;
        gates;
        budget = kv_num kv "budget";
        cspan = Hcl.Loc.dummy;
      };
  }

(* Each diagnostic is located at its line: columns 1 to the line's
   end. *)
let parse ?(file = "<scenario>") src =
  let scn = ref default in
  let offset = ref 0 in
  String.split_on_char '\n' src
  |> List.iteri (fun lineno raw ->
         let len = String.length raw in
         let pos col =
           { Hcl.Loc.line = lineno + 1; col; offset = !offset + col - 1 }
         in
         let span =
           Hcl.Loc.make ~file ~start_pos:(pos 1) ~end_pos:(pos (len + 1))
         in
         offset := !offset + len + 1;
         let line =
           match String.index_opt raw '#' with
           | Some i -> String.sub raw 0 i
           | None -> raw
         in
         let line = String.trim line in
         if line <> "" then
           match String.index_opt line '=' with
           | None -> syntax_error ~span "expected 'key = value', got %S" line
           | Some i ->
               let key = String.trim (String.sub line 0 i) in
               let v =
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1))
               in
               let fail msg = syntax_error ~span "%s" msg in
               let int_v ?(least = 0) () = integer ~fail ~least key v in
               let float_v ?(positive = false) () =
                 number ~fail ~positive key v
               in
               scn :=
                 match key with
                 | "tenants" -> { !scn with tenants = int_v ~least:1 () }
                 | "deployments_per_tenant" ->
                     { !scn with deployments_per_tenant = int_v ~least:1 () }
                 | "resources" -> { !scn with resources = int_v ~least:1 () }
                 | "requests_per_tenant" ->
                     { !scn with requests_per_tenant = int_v () }
                 | "request_interval" ->
                     { !scn with request_interval = float_v () }
                 | "drift_events" -> { !scn with drift_events = int_v () }
                 | "drift_period" ->
                     { !scn with drift_period = float_v ~positive:true () }
                 | "policy_period" -> { !scn with policy_period = float_v () }
                 | "duration" ->
                     { !scn with duration = float_v ~positive:true () }
                 | "shards" -> { !scn with shards = int_v ~least:1 () }
                 | "hot_tenants" -> { !scn with hot_tenants = int_v () }
                 | "hot_burst" -> { !scn with hot_burst = int_v () }
                 | "max_queue_depth" ->
                     { !scn with max_queue_depth = int_v () }
                 | "admission" -> (
                     match v with
                     | "defer" -> { !scn with admission = Shard.Defer }
                     | "reject" -> { !scn with admission = Shard.Reject }
                     | _ ->
                         syntax_error ~span
                           "admission expects defer|reject, got %S" v)
                 | "rebalance_period" ->
                     { !scn with rebalance_period = float_v () }
                 | "episode" ->
                     {
                       !scn with
                       episodes = !scn.episodes @ [ episode_of_spec ~span v ];
                     }
                 | "breaker" -> (
                     match v with
                     | "on" -> { !scn with breaker = true }
                     | "off" -> { !scn with breaker = false }
                     | _ ->
                         syntax_error ~span "breaker expects on|off, got %S" v)
                 | "calm_tenants" -> { !scn with calm_tenants = int_v () }
                 | "wave" ->
                     { !scn with waves = !scn.waves @ [ wave_of_spec ~span v ] }
                 | _ -> syntax_error ~span "unknown scenario key %S" key);
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

(** Specialize a service preset (timing knobs, admission, breakers) to
    a scenario. *)
let service_config scn (base : Shard.service_config) =
  {
    base with
    Shard.drift_period = scn.drift_period;
    policy_period = scn.policy_period;
    max_queue_depth = scn.max_queue_depth;
    admission = scn.admission;
    rebalance_period = scn.rebalance_period;
    breaker = (if scn.breaker then Some Breaker.default_config else None);
  }

(* ------------------------------------------------------------------ *)
(* Installation                                                        *)
(* ------------------------------------------------------------------ *)

let bootstrap scn fleet =
  let src = fleet_src scn ~wave:0 in
  for ti = 0 to scn.tenants - 1 do
    for di = 0 to scn.deployments_per_tenant - 1 do
      let dep =
        Fleet.add_deployment fleet ~tenant:(Printf.sprintf "tenant%d" ti)
          ~dname:(Printf.sprintf "d%d" di) ~src
      in
      ignore
        (Fleet.submit_request fleet dep ~src
          : [ `Accepted of int | `Deferred of int | `Rejected ])
    done
  done

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
  (* one rendering per wave: every tenant's request carries the same
     string *)
  let wave_src =
    Array.init (max 1 scn.requests_per_tenant) (fun wave -> fleet_src scn ~wave)
  in
  for ti = 0 to scn.tenants - 1 do
    let tenant = Printf.sprintf "tenant%d" ti in
    let hot = ti < scn.hot_tenants in
    let calm = ti >= scn.tenants - scn.calm_tenants in
    for di = 0 to scn.deployments_per_tenant - 1 do
      let dname = Printf.sprintf "d%d" di in
      ignore
        (Fleet.add_deployment fleet ~tenant ~dname ~src:wave_src.(0));
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
                    (Fleet.submit_request fleet dep ~src:wave_src.(wave)
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
