(* Tests for §3.4: lock manager, transactions, concurrent teams,
   rollback planning. *)

open Cloudless_hcl
module Lock_manager = Cloudless_lock.Lock_manager
module Txn = Cloudless_lock.Txn
module Team_sim = Cloudless_lock.Team_sim
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Rollback = Cloudless_rollback.Rollback
module Cloud = Cloudless_sim.Cloud
module Executor = Cloudless_deploy.Executor
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool

let addr name = Addr.make ~rtype:"aws_instance" ~rname:name ()

(* ------------------------------------------------------------------ *)
(* Lock manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_lock_disjoint_parallel () =
  let lm = Lock_manager.create Lock_manager.Per_resource in
  let granted = ref [] in
  Lock_manager.acquire lm ~owner:"t1" ~keys:[ addr "a" ] (fun () ->
      granted := "t1" :: !granted);
  Lock_manager.acquire lm ~owner:"t2" ~keys:[ addr "b" ] (fun () ->
      granted := "t2" :: !granted);
  check int_ "both granted immediately" 2 (List.length !granted)

let test_lock_conflict_queues () =
  let lm = Lock_manager.create Lock_manager.Per_resource in
  let granted = ref [] in
  Lock_manager.acquire lm ~owner:"t1" ~keys:[ addr "a" ] (fun () ->
      granted := "t1" :: !granted);
  Lock_manager.acquire lm ~owner:"t2" ~keys:[ addr "a" ] (fun () ->
      granted := "t2" :: !granted);
  check int_ "second waits" 1 (List.length !granted);
  check int_ "queued" 1 (Lock_manager.queue_length lm);
  Lock_manager.release lm ~owner:"t1";
  check int_ "second granted after release" 2 (List.length !granted)

let test_lock_global_serializes () =
  let lm = Lock_manager.create Lock_manager.Global in
  let granted = ref [] in
  Lock_manager.acquire lm ~owner:"t1" ~keys:[ addr "a" ] (fun () ->
      granted := "t1" :: !granted);
  (* disjoint keys still conflict under the global lock *)
  Lock_manager.acquire lm ~owner:"t2" ~keys:[ addr "b" ] (fun () ->
      granted := "t2" :: !granted);
  check int_ "global blocks disjoint" 1 (List.length !granted);
  Lock_manager.release lm ~owner:"t1";
  check int_ "granted after release" 2 (List.length !granted)

let test_lock_no_holb_for_disjoint_waiters () =
  let lm = Lock_manager.create Lock_manager.Per_resource in
  let order = ref [] in
  Lock_manager.acquire lm ~owner:"t1" ~keys:[ addr "a" ] (fun () ->
      order := "t1" :: !order);
  Lock_manager.acquire lm ~owner:"t2" ~keys:[ addr "a" ] (fun () ->
      order := "t2" :: !order);
  (* t3 wants an unrelated key; it must not wait behind t2 *)
  Lock_manager.acquire lm ~owner:"t3" ~keys:[ addr "c" ] (fun () ->
      order := "t3" :: !order);
  check bool_ "t3 not blocked" true (List.mem "t3" !order);
  check bool_ "t2 still blocked" true (not (List.mem "t2" !order))

let test_lock_multi_key_atomic () =
  let lm = Lock_manager.create Lock_manager.Per_resource in
  let granted = ref [] in
  Lock_manager.acquire lm ~owner:"t1" ~keys:[ addr "a"; addr "b" ] (fun () ->
      granted := "t1" :: !granted);
  (* t2 needs b+c: blocked on b *)
  Lock_manager.acquire lm ~owner:"t2" ~keys:[ addr "b"; addr "c" ] (fun () ->
      granted := "t2" :: !granted);
  check int_ "t2 blocked" 1 (List.length !granted);
  (* c must NOT be held by the blocked t2 *)
  check bool_ "c free while waiting" true
    (not (List.mem_assoc (addr "c") (Lock_manager.holders lm)));
  Lock_manager.release lm ~owner:"t1";
  check int_ "t2 granted" 2 (List.length !granted)

let test_try_acquire () =
  let lm = Lock_manager.create Lock_manager.Per_resource in
  check bool_ "free" true (Lock_manager.try_acquire lm ~owner:"t1" ~keys:[ addr "a" ]);
  check bool_ "taken" false (Lock_manager.try_acquire lm ~owner:"t2" ~keys:[ addr "a" ]);
  (* reentrant for the same owner *)
  check bool_ "reentrant" true (Lock_manager.try_acquire lm ~owner:"t1" ~keys:[ addr "a" ])

(* A request on a free key is granted at once, and is no wait, even
   while another key has a waiter. *)
let test_free_key_is_no_wait () =
  let lm = Lock_manager.create Lock_manager.Per_resource in
  let granted = ref [] in
  let acquire owner k =
    Lock_manager.acquire lm ~owner ~keys:[ addr k ] (fun () -> granted := owner :: !granted)
  in
  acquire "t1" "a";
  acquire "t2" "a";
  acquire "t3" "b";
  check (Alcotest.list Alcotest.string) "t3 granted at once" [ "t3"; "t1" ] !granted;
  check (Alcotest.pair int_ int_) "two grants, one wait" (2, 1) (Lock_manager.stats lm);
  check int_ "t2 still queued" 1 (Lock_manager.queue_length lm)

(* Random lock traces against [Lock_reference], the whole-queue scan
   the per-key wait lists replaced.  Owners repeat (re-entrant
   requests), key sets have several keys or none, and a grant callback
   may acquire, release its own or another owner's keys, try a lock or
   raise (as a crash gate does), nested two deep.  Both managers must
   grant the same requests in the same order and agree on every try,
   count, queue length and holder list after every step. *)
module type LOCKS = sig
  type t

  val create : Lock_manager.granularity -> t
  val acquire : t -> owner:string -> keys:Addr.t list -> (unit -> unit) -> unit
  val release : t -> owner:string -> unit
  val try_acquire : t -> owner:string -> keys:Addr.t list -> bool
  val holders : t -> (Addr.t * string) list
  val queue_length : t -> int
  val stats : t -> int * int
end

type lock_op =
  | Acquire of { label : int; owner : int; keys : int list; on_grant : lock_op list }
  | Release of int
  | Release_self  (** in a grant callback: the granted owner's keys *)
  | Try of { owner : int; keys : int list }
  | Raise  (** in a grant callback: raise [Exit] *)

let lock_owner o = Printf.sprintf "o%d" o
let lock_key k = addr (String.make 1 (Char.chr (Char.code 'a' + k)))

let rec show_lock_op = function
  | Acquire { label; owner; keys; on_grant } ->
      Printf.sprintf "acq#%d(o%d,[%s]){%s}" label owner
        (String.concat "," (List.map string_of_int keys))
        (String.concat "; " (List.map show_lock_op on_grant))
  | Release o -> Printf.sprintf "rel(o%d)" o
  | Release_self -> "rel(self)"
  | Try { owner; keys } ->
      Printf.sprintf "try(o%d,[%s])" owner (String.concat "," (List.map string_of_int keys))
  | Raise -> "raise"

let gen_lock_trace =
  let open QCheck.Gen in
  let owner = int_range 0 4 and keys = list_size (int_range 0 3) (int_range 0 3) in
  let rec op depth =
    frequency
      [
        ( 5,
          map3
            (fun owner keys on_grant -> Acquire { label = 0; owner; keys; on_grant })
            owner keys
            (if depth = 0 then return [] else list_size (int_range 0 2) (op (depth - 1))) );
        (3, map (fun o -> Release o) owner);
        ((if depth < 2 then 3 else 0), return Release_self);
        (1, map2 (fun owner keys -> Try { owner; keys }) owner keys);
        ((if depth < 2 then 1 else 0), return Raise);
      ]
  in
  (* number the acquires in tree order: a grant's label names it *)
  let rec number n = function
    | Acquire a ->
        let next, on_grant = List.fold_left_map number (n + 1) a.on_grant in
        (next, Acquire { a with label = n; on_grant })
    | op -> (n, op)
  in
  map2
    (fun global ops -> (global, snd (List.fold_left_map number 0 ops)))
    bool
    (list_size (int_range 1 25) (op 2))

let run_lock_trace (module L : LOCKS) (global, ops) =
  let lm = L.create (if global then Lock_manager.Global else Lock_manager.Per_resource) in
  let log = Buffer.create 512 in
  let snapshot () =
    let g, w = L.stats lm in
    Printf.bprintf log "[g%d w%d q%d %s] " g w (L.queue_length lm)
      (String.concat ","
         (List.map (fun (k, o) -> Addr.to_string k ^ "=" ^ o) (L.holders lm)))
  in
  let rec exec ~self op =
    (match op with
    | Acquire { label; owner; keys; on_grant } ->
        L.acquire lm ~owner:(lock_owner owner) ~keys:(List.map lock_key keys) (fun () ->
            Printf.bprintf log "grant#%d " label;
            List.iter (exec ~self:owner) on_grant)
    | Release o -> L.release lm ~owner:(lock_owner o)
    | Release_self -> L.release lm ~owner:(lock_owner self)
    | Try { owner; keys } ->
        Printf.bprintf log "try:%b "
          (L.try_acquire lm ~owner:(lock_owner owner) ~keys:(List.map lock_key keys))
    | Raise -> raise Exit);
    snapshot ()
  in
  let exec ~self op = try exec ~self op with Exit -> Printf.bprintf log "raised " in
  List.iter (exec ~self:0) ops;
  (* release every owner until the queue drains *)
  for _ = 1 to 6 do
    for o = 0 to 4 do
      exec ~self:0 (Release o)
    done
  done;
  Buffer.contents log

let prop_lock_matches_reference =
  QCheck.Test.make ~count:1500 ~name:"lock manager grants as the queue scan does"
    (QCheck.make gen_lock_trace ~print:(fun (global, ops) ->
         Printf.sprintf "%s: %s"
           (if global then "Global" else "Per_resource")
           (String.concat "; " (List.map show_lock_op ops))))
    (fun trace ->
      let got = run_lock_trace (module Lock_manager) trace
      and want = run_lock_trace (module Lock_reference) trace in
      got = want || QCheck.Test.fail_reportf "manager:\n%s\nreference:\n%s" got want)

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let seeded_state n =
  List.fold_left
    (fun s i ->
      State.add s
        {
          State.addr = addr (Printf.sprintf "r%d" i);
          cloud_id = Printf.sprintf "i-%06d" i;
          rtype = "aws_instance";
          region = "us-east-1";
          recorded = State.Recorded.of_map (Smap.singleton "v" (Value.Vint 0));
          deps = [];
        })
    State.empty
    (List.init n Fun.id)

let test_txn_commit () =
  let store = Txn.create_store (seeded_state 3) in
  let txn = Txn.begin_txn store ~owner:"t1" in
  Txn.stage txn (Txn.Set_attr (addr "r0", "v", Value.Vint 42));
  Txn.commit_locked store txn;
  let r = Option.get (State.find_opt store.Txn.golden (addr "r0")) in
  check bool_ "committed" true (Value.equal (Value.Vint 42) (Smap.find "v" (State.attrs r)))

let test_txn_optimistic_conflict () =
  let store = Txn.create_store (seeded_state 3) in
  let t1 = Txn.begin_txn store ~owner:"t1" in
  let t2 = Txn.begin_txn store ~owner:"t2" in
  Txn.stage t1 (Txn.Set_attr (addr "r0", "v", Value.Vint 1));
  Txn.stage t2 (Txn.Set_attr (addr "r1", "v", Value.Vint 2));
  (match Txn.commit_optimistic store t1 with
  | Ok () -> ()
  | Error `Conflict -> Alcotest.fail "first commit should succeed");
  match Txn.commit_optimistic store t2 with
  | Error `Conflict -> check int_ "abort recorded" 1 store.Txn.aborts
  | Ok () -> Alcotest.fail "second commit should conflict"

let test_txn_write_set () =
  let store = Txn.create_store (seeded_state 2) in
  let t = Txn.begin_txn store ~owner:"t" in
  Txn.stage t (Txn.Set_attr (addr "r0", "a", Value.Vint 1));
  Txn.stage t (Txn.Set_attr (addr "r0", "b", Value.Vint 2));
  Txn.stage t (Txn.Remove_resource (addr "r1"));
  check int_ "deduplicated write set" 2 (List.length (Txn.write_set t))

(* ------------------------------------------------------------------ *)
(* Concurrent teams (E3 machinery)                                     *)
(* ------------------------------------------------------------------ *)

(* deploy n instances to a cloud and return (cloud, state) *)
let deployed_cloud n =
  let cloud = Cloud.create ~seed:5 () in
  let state = ref State.empty in
  List.iter
    (fun i ->
      let name = Printf.sprintf "r%d" i in
      match
        Cloud.run_sync cloud
          ~actor:(Cloudless_sim.Activity_log.Iac_engine "setup")
          (Cloud.Create
             {
               rtype = "aws_instance";
               region = "us-east-1";
               attrs = Smap.singleton "name" (Value.Vstring name);
             })
      with
      | Ok attrs ->
          let cloud_id = Value.to_string (Smap.find "id" attrs) in
          state :=
            State.add !state
              {
                State.addr = addr name;
                cloud_id;
                rtype = "aws_instance";
                region = "us-east-1";
                recorded = State.Recorded.of_map attrs;
                deps = [];
              }
      | Error e -> Alcotest.failf "setup: %s" (Cloud.error_to_string e))
    (List.init n Fun.id);
  (cloud, !state)

let team_queues ~teams ~updates_per_team ~shared =
  List.init teams (fun t ->
      List.init updates_per_team (fun u ->
          let target =
            if shared then addr "r0"  (* everyone hits the same resource *)
            else addr (Printf.sprintf "r%d" t)
          in
          {
            Team_sim.team = Printf.sprintf "team-%d" t;
            addrs = [ target ];
            tag = Printf.sprintf "t%d-u%d" t u;
          }))

let test_teams_per_resource_faster_when_disjoint () =
  let run granularity =
    let cloud, state = deployed_cloud 4 in
    let store = Txn.create_store state in
    Team_sim.run cloud ~store ~granularity
      (team_queues ~teams:4 ~updates_per_team:3 ~shared:false)
  in
  let global = run Lock_manager.Global in
  let fine = run Lock_manager.Per_resource in
  check int_ "all updates done (global)" 12 global.Team_sim.updates_done;
  check int_ "all updates done (fine)" 12 fine.Team_sim.updates_done;
  check bool_
    (Printf.sprintf "fine (%.0fs) < global (%.0fs)" fine.Team_sim.makespan
       global.Team_sim.makespan)
    true
    (fine.Team_sim.makespan < global.Team_sim.makespan);
  check int_ "no lock waits when disjoint" 0 fine.Team_sim.lock_waits;
  check bool_ "global causes waits" true (global.Team_sim.lock_waits > 0)

let test_teams_shared_resource_serializes_anyway () =
  let cloud, state = deployed_cloud 4 in
  let store = Txn.create_store state in
  let result =
    Team_sim.run cloud ~store ~granularity:Lock_manager.Per_resource
      (team_queues ~teams:3 ~updates_per_team:2 ~shared:true)
  in
  check int_ "all done" 6 result.Team_sim.updates_done;
  check bool_ "conflicting updates wait" true (result.Team_sim.lock_waits > 0);
  check bool_ "conflicts detected" true (result.Team_sim.conflicts_detected > 0)

(* ------------------------------------------------------------------ *)
(* Rollback                                                            *)
(* ------------------------------------------------------------------ *)

let web_tier_state cloud =
  (* deploy the standard web tier through the executor *)
  let src = Cloudless_workload.Workload.web_tier ~with_lb:false ~with_db:false () in
  let cfg = Config.parse ~file:"t" src in
  let instances = (Eval.expand cfg).Eval.instances in
  let plan = Plan.make ~state:State.empty instances in
  let report =
    Executor.apply cloud ~config:Executor.baseline_config ~state:State.empty
      ~plan ()
  in
  check bool_ "setup ok" true (Executor.succeeded report);
  report.Executor.state

let live_of cloud state addr_ =
  match State.find_opt state addr_ with
  | Some (r : State.resource_state) ->
      Option.map
        (fun (res : Cloud.resource) -> (Cloud.attrs res))
        (Cloud.lookup cloud r.State.cloud_id)
  | None -> None

let test_rollback_reversible_update () =
  let cloud = Cloud.create ~seed:9 () in
  let target = web_tier_state cloud in
  (* someone changes instance_type (a reversible attribute) *)
  let current =
    let a = Addr.make ~rtype:"aws_instance" ~rname:"web" ~key:(Addr.Kint 0) () in
    let r = Option.get (State.find_opt target a) in
    ignore
      (Cloud.run_sync cloud
         ~actor:(Cloudless_sim.Activity_log.Iac_engine "change")
         (Cloud.Update
            {
              cloud_id = r.State.cloud_id;
              attrs = Smap.singleton "instance_type" (Value.Vstring "t3.xlarge");
            }));
    State.update_attrs target a
      (Smap.add "instance_type" (Value.Vstring "t3.xlarge") (State.attrs r))
  in
  let rb =
    Rollback.plan_rollback ~strategy:Rollback.Reversibility_aware ~target
      ~current
      ~live:(fun a -> live_of cloud current a)
      ()
  in
  check int_ "one update" 1 (List.length rb.Rollback.updated);
  check int_ "nothing redeployed" 0 (List.length rb.Rollback.redeployed);
  (* execute it and verify the cloud converges back *)
  let report =
    Executor.apply cloud ~config:Executor.cloudless_config ~state:current
      ~plan:rb.Rollback.plan ()
  in
  check bool_ "rollback applies" true (Executor.succeeded report);
  let residual =
    Rollback.residual_divergence ~target
      ~live:(fun a -> live_of cloud report.Executor.state a)
  in
  check int_ "no residual divergence" 0 (List.length residual)

let test_rollback_force_new_redeploys () =
  let cloud = Cloud.create ~seed:9 () in
  let target = web_tier_state cloud in
  let a = Addr.make ~rtype:"aws_vpc" ~rname:"main" () in
  let r = Option.get (State.find_opt target a) in
  let current =
    State.update_attrs target a
      (Smap.add "cidr_block" (Value.Vstring "10.99.0.0/16") (State.attrs r))
  in
  (* reflect in cloud *)
  ignore
    (Cloud.run_sync cloud
       ~actor:(Cloudless_sim.Activity_log.Iac_engine "change")
       (Cloud.Update
          {
            cloud_id = r.State.cloud_id;
            attrs = Smap.singleton "cidr_block" (Value.Vstring "10.99.0.0/16");
          }));
  let rb =
    Rollback.plan_rollback ~strategy:Rollback.Reversibility_aware ~target
      ~current
      ~live:(fun a -> live_of cloud current a)
      ()
  in
  check bool_ "vpc redeployed (cidr is force_new)" true
    (List.exists (Addr.equal a) rb.Rollback.redeployed)

let test_rollback_naive_misses_oob () =
  let cloud = Cloud.create ~seed:9 () in
  let target = web_tier_state cloud in
  (* an out-of-band change the state file never saw *)
  let a = Addr.make ~rtype:"aws_instance" ~rname:"web" ~key:(Addr.Kint 1) () in
  let r = Option.get (State.find_opt target a) in
  (match
     Cloud.mutate_oob cloud ~script:"legacy.sh" ~cloud_id:r.State.cloud_id
       ~attr:"instance_type" ~value:(Value.Vstring "t3.metal")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "oob mutation failed");
  let current = target in
  (* naive reapply sees no delta at all *)
  let naive =
    Rollback.plan_rollback ~strategy:Rollback.Naive_reapply ~target ~current
      ~live:(fun a -> live_of cloud current a)
      ()
  in
  check bool_ "naive misses the oob divergence" true
    (List.exists (Addr.equal a) naive.Rollback.missed_divergences);
  check bool_ "naive plan is empty" true (Plan.is_empty naive.Rollback.plan);
  (* reversibility-aware consults the live cloud and fixes it *)
  let aware =
    Rollback.plan_rollback ~strategy:Rollback.Reversibility_aware ~target
      ~current
      ~live:(fun a -> live_of cloud current a)
      ()
  in
  check bool_ "aware plan not empty" true (not (Plan.is_empty aware.Rollback.plan));
  let report =
    Executor.apply cloud ~config:Executor.cloudless_config ~state:current
      ~plan:aware.Rollback.plan ()
  in
  check bool_ "applies" true (Executor.succeeded report);
  check int_ "zero residual" 0
    (List.length
       (Rollback.residual_divergence ~target
          ~live:(fun a -> live_of cloud report.Executor.state a)))

let test_rollback_deletes_added_resources () =
  let cloud = Cloud.create ~seed:9 () in
  let target = web_tier_state cloud in
  (* add an extra resource after the checkpoint *)
  let extra_id =
    Cloud.create_oob cloud ~script:"iac" ~rtype:"aws_eip" ~region:"us-east-1"
      ~attrs:Smap.empty
  in
  let current =
    State.add target
      {
        State.addr = Addr.make ~rtype:"aws_eip" ~rname:"extra" ();
        cloud_id = extra_id;
        rtype = "aws_eip";
        region = "us-east-1";
        recorded = State.Recorded.of_map Smap.empty;
        deps = [];
      }
  in
  let rb =
    Rollback.plan_rollback ~strategy:Rollback.Reversibility_aware ~target
      ~current
      ~live:(fun a -> live_of cloud current a)
      ()
  in
  check int_ "one delete planned" 1 (Plan.summarize rb.Rollback.plan).Plan.to_delete

let suites =
  [
    ( "lock.manager",
      [
        Alcotest.test_case "disjoint parallel" `Quick test_lock_disjoint_parallel;
        Alcotest.test_case "conflict queues" `Quick test_lock_conflict_queues;
        Alcotest.test_case "global serializes" `Quick test_lock_global_serializes;
        Alcotest.test_case "no HOL blocking" `Quick test_lock_no_holb_for_disjoint_waiters;
        Alcotest.test_case "multi-key atomic" `Quick test_lock_multi_key_atomic;
        Alcotest.test_case "try_acquire" `Quick test_try_acquire;
        Alcotest.test_case "a free key is no wait" `Quick test_free_key_is_no_wait;
        QCheck_alcotest.to_alcotest prop_lock_matches_reference;
      ] );
    ( "lock.txn",
      [
        Alcotest.test_case "commit" `Quick test_txn_commit;
        Alcotest.test_case "optimistic conflict" `Quick test_txn_optimistic_conflict;
        Alcotest.test_case "write set" `Quick test_txn_write_set;
      ] );
    ( "lock.teams",
      [
        Alcotest.test_case "per-resource beats global" `Quick
          test_teams_per_resource_faster_when_disjoint;
        Alcotest.test_case "shared serializes" `Quick
          test_teams_shared_resource_serializes_anyway;
      ] );
    ( "rollback",
      [
        Alcotest.test_case "reversible update" `Quick test_rollback_reversible_update;
        Alcotest.test_case "force_new redeploys" `Quick test_rollback_force_new_redeploys;
        Alcotest.test_case "naive misses oob" `Quick test_rollback_naive_misses_oob;
        Alcotest.test_case "deletes additions" `Quick test_rollback_deletes_added_resources;
      ] );
  ]
