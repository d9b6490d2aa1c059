(* Tests for the cloud simulator substrate: PRNG determinism, event
   queue ordering, rate limiting, activity log, CRUD lifecycle, failure
   injection, quotas, out-of-band mutation. *)

open Cloudless_sim
module Value = Cloudless_hcl.Value
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 20 (fun _ -> Prng.int a 1000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000) in
  check (Alcotest.list int_) "same seed, same stream" xs ys;
  let c = Prng.create 43 in
  let zs = List.init 20 (fun _ -> Prng.int c 1000) in
  check bool_ "different seed differs" true (xs <> zs)

let test_prng_ranges () =
  let p = Prng.create 1 in
  for _ = 1 to 1000 do
    let f = Prng.float p in
    assert (f >= 0. && f < 1.);
    let n = Prng.int_range p 5 10 in
    assert (n >= 5 && n <= 10)
  done

let test_prng_split_independent () =
  let p = Prng.create 7 in
  let child = Prng.split p in
  let a = List.init 10 (fun _ -> Prng.int p 100) in
  let b = List.init 10 (fun _ -> Prng.int child 100) in
  check bool_ "streams differ" true (a <> b)

let prop_exponential_positive =
  QCheck.Test.make ~count:200 ~name:"exponential samples are positive"
    QCheck.(int_range 1 10000)
    (fun seed ->
      let p = Prng.create seed in
      Prng.exponential p ~mean:10. > 0.)

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

(* The earliest event with its time, taken as [Cloud.step] takes it. *)
let pop q =
  if Event_queue.is_empty q then None
  else
    let time = Event_queue.next_time q in
    Some (time, Event_queue.take q)

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  let pop () = Option.map snd (pop q) in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  let p4 = pop () in
  check (Alcotest.list (Alcotest.option string_)) "sorted order"
    [ Some "a"; Some "b"; Some "c"; None ]
    [ p1; p2; p3; p4 ]

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1. "first";
  Event_queue.push q ~time:1. "second";
  Event_queue.push q ~time:1. "third";
  let order = List.init 3 (fun _ -> Option.get (pop q) |> snd) in
  check (Alcotest.list string_) "insertion order on ties"
    [ "first"; "second"; "third" ] order

let prop_event_queue_sorted =
  QCheck.Test.make ~count:100 ~name:"pops are monotone in time"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (float_range 0. 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec drain last =
        match pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* ------------------------------------------------------------------ *)
(* Rate limiter                                                        *)
(* ------------------------------------------------------------------ *)

let test_rate_limiter_burst_then_throttle () =
  let rl = Rate_limiter.create ~capacity:5. ~refill_rate:1. in
  for _ = 1 to 5 do
    match Rate_limiter.try_acquire rl ~now:0. with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "burst should be admitted"
  done;
  (match Rate_limiter.try_acquire rl ~now:0. with
  | Error after -> check bool_ "retry-after positive" true (after > 0.)
  | Ok () -> Alcotest.fail "6th call should throttle");
  (* after refill, admitted again *)
  match Rate_limiter.try_acquire rl ~now:2. with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "should be admitted after refill"

let test_rate_limiter_stats () =
  let rl = Rate_limiter.create ~capacity:1. ~refill_rate:0.1 in
  ignore (Rate_limiter.try_acquire rl ~now:0.);
  ignore (Rate_limiter.try_acquire rl ~now:0.);
  let admitted, throttled = Rate_limiter.stats rl in
  check int_ "admitted" 1 admitted;
  check int_ "throttled" 1 throttled

let test_rate_limiter_time_until () =
  let rl = Rate_limiter.create ~capacity:2. ~refill_rate:0.5 in
  ignore (Rate_limiter.try_acquire rl ~now:0.);
  ignore (Rate_limiter.try_acquire rl ~now:0.);
  let wait = Rate_limiter.time_until rl ~now:0. 1. in
  check (Alcotest.float 0.001) "2s to refill one token at 0.5/s" 2. wait

(* ------------------------------------------------------------------ *)
(* Cloud CRUD lifecycle                                                *)
(* ------------------------------------------------------------------ *)

let actor = Activity_log.Iac_engine "test"

let attrs kvs =
  Smap.of_seq (List.to_seq (List.map (fun (k, v) -> (k, Value.Vstring v)) kvs))

let test_cloud_create_read_delete () =
  let cloud = Cloud.create ~seed:1 () in
  let result =
    Cloud.run_sync cloud ~actor
      (Cloud.Create
         {
           rtype = "aws_vpc";
           region = "us-east-1";
           attrs = attrs [ ("cidr_block", "10.0.0.0/16") ];
         })
  in
  let created = match result with Ok a -> a | Error e -> Alcotest.failf "create: %s" (Cloud.error_to_string e) in
  let id = Value.to_string (Smap.find "id" created) in
  check bool_ "id prefix" true (String.length id > 4);
  check bool_ "time advanced" true (Cloud.now cloud > 0.);
  (* read it back *)
  (match Cloud.run_sync cloud ~actor (Cloud.Read { cloud_id = id }) with
  | Ok a ->
      check string_ "attr persisted" "10.0.0.0/16"
        (Value.to_string (Smap.find "cidr_block" a))
  | Error e -> Alcotest.failf "read: %s" (Cloud.error_to_string e));
  (* delete *)
  (match Cloud.run_sync cloud ~actor (Cloud.Delete { cloud_id = id }) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "delete: %s" (Cloud.error_to_string e));
  match Cloud.run_sync cloud ~actor (Cloud.Read { cloud_id = id }) with
  | Error (Cloud.Not_found _) -> ()
  | _ -> Alcotest.fail "read after delete should 404"

let test_cloud_create_takes_service_time () =
  let cloud = Cloud.create ~seed:1 () in
  ignore
    (Cloud.run_sync cloud ~actor
       (Cloud.Create { rtype = "aws_db_instance"; region = "us-east-1"; attrs = attrs [("identifier", "db1"); ("engine", "postgres"); ("instance_class", "db.m5")] }));
  (* db instances take ~420s in the service model *)
  check bool_ "db create is slow" true (Cloud.now cloud > 300.)

let test_cloud_unknown_region () =
  let cloud = Cloud.create ~seed:1 () in
  match
    Cloud.run_sync cloud ~actor
      (Cloud.Create { rtype = "aws_vpc"; region = "mars-north-1"; attrs = Smap.empty })
  with
  | Error (Cloud.Invalid _) -> ()
  | _ -> Alcotest.fail "expected invalid region error"

let test_cloud_quota () =
  let config = { Cloud.default_config with Cloud.quotas = [ ("aws_vpc", 2) ] } in
  let cloud = Cloud.create ~config ~seed:1 () in
  let create () =
    Cloud.run_sync cloud ~actor
      (Cloud.Create { rtype = "aws_vpc"; region = "us-east-1"; attrs = Smap.empty })
  in
  (match create () with Ok _ -> () | Error _ -> Alcotest.fail "1st");
  (match create () with Ok _ -> () | Error _ -> Alcotest.fail "2nd");
  match create () with
  | Error (Cloud.Quota_exceeded _) -> ()
  | _ -> Alcotest.fail "3rd should exceed quota"

let test_cloud_update () =
  let cloud = Cloud.create ~seed:1 () in
  let id =
    match
      Cloud.run_sync cloud ~actor
        (Cloud.Create { rtype = "aws_instance"; region = "us-east-1";
                        attrs = attrs [ ("instance_type", "t3.small"); ("ami", "ami-1") ] })
    with
    | Ok a -> Value.to_string (Smap.find "id" a)
    | Error _ -> Alcotest.fail "create"
  in
  match
    Cloud.run_sync cloud ~actor
      (Cloud.Update { cloud_id = id; attrs = attrs [ ("instance_type", "t3.large") ] })
  with
  | Ok a ->
      check string_ "updated" "t3.large" (Value.to_string (Smap.find "instance_type" a));
      check string_ "old attr kept" "ami-1" (Value.to_string (Smap.find "ami" a))
  | Error e -> Alcotest.failf "update: %s" (Cloud.error_to_string e)

let test_cloud_activity_log () =
  let cloud = Cloud.create ~seed:1 () in
  ignore
    (Cloud.run_sync cloud ~actor
       (Cloud.Create { rtype = "aws_vpc"; region = "us-east-1"; attrs = Smap.empty }));
  let entries = Activity_log.all (Cloud.log cloud) in
  check int_ "one entry" 1 (List.length entries);
  let e = List.hd entries in
  check string_ "create op" "create" (Activity_log.op_to_string e.Activity_log.op);
  check string_ "actor" "iac:test" (Activity_log.actor_to_string e.Activity_log.actor)

let test_cloud_transient_failures () =
  let config =
    { Cloud.default_config with Cloud.failure = Failure.make ~transient_prob:1.0 () }
  in
  let cloud = Cloud.create ~config ~seed:1 () in
  match
    Cloud.run_sync cloud ~actor
      (Cloud.Create { rtype = "aws_vpc"; region = "us-east-1"; attrs = Smap.empty })
  with
  | Error (Cloud.Transient _) -> ()
  | _ -> Alcotest.fail "expected transient failure"

let test_cloud_permanent_failure () =
  let config =
    {
      Cloud.default_config with
      Cloud.failure = Failure.make ~permanent:[ ("aws_vpc", "not allowed") ] ();
    }
  in
  let cloud = Cloud.create ~config ~seed:1 () in
  match
    Cloud.run_sync cloud ~actor
      (Cloud.Create { rtype = "aws_vpc"; region = "us-east-1"; attrs = Smap.empty })
  with
  | Error (Cloud.Invalid msg) -> check string_ "message" "not allowed" msg
  | _ -> Alcotest.fail "expected permanent failure"

let test_cloud_oob_mutation_logged () =
  let cloud = Cloud.create ~seed:1 () in
  let id = Cloud.create_oob cloud ~script:"legacy.sh" ~rtype:"aws_vpc"
      ~region:"us-east-1" ~attrs:Smap.empty in
  (match Cloud.mutate_oob cloud ~script:"legacy.sh" ~cloud_id:id
           ~attr:"cidr_block" ~value:(Value.Vstring "10.9.0.0/16") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "mutate");
  let drift_events = Activity_log.non_iac_writes (Cloud.log cloud) ~since:0 in
  check int_ "create + update logged as non-iac" 2 (List.length drift_events)

let test_cloud_list_type () =
  let cloud = Cloud.create ~seed:1 () in
  for _ = 1 to 3 do
    ignore
      (Cloud.run_sync cloud ~actor
         (Cloud.Create { rtype = "aws_subnet"; region = "us-east-1"; attrs = Smap.empty }))
  done;
  ignore
    (Cloud.run_sync cloud ~actor
       (Cloud.Create { rtype = "aws_vpc"; region = "us-east-1"; attrs = Smap.empty }));
  match Cloud.run_sync cloud ~actor (Cloud.List_type { rtype = "aws_subnet"; region = None }) with
  | Ok listing -> check int_ "three subnets" 3 (Smap.cardinal listing)
  | Error e -> Alcotest.failf "list: %s" (Cloud.error_to_string e)

let test_cloud_determinism () =
  let run () =
    let cloud = Cloud.create ~seed:99 () in
    for _ = 1 to 5 do
      ignore
        (Cloud.run_sync cloud ~actor
           (Cloud.Create { rtype = "aws_instance"; region = "us-east-1";
                           attrs = attrs [ ("ami", "a"); ("instance_type", "t") ] }))
    done;
    Cloud.now cloud
  in
  check (Alcotest.float 1e-9) "identical end time" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Activity-log subscriptions                                          *)
(* ------------------------------------------------------------------ *)

let log_append log ~seq:_ id =
  ignore
    (Activity_log.append log ~time:0. ~actor ~op:Activity_log.Log_create
       ~cloud_id:id ~rtype:"aws_vpc" ~region:"us-east-1" ~detail:"")

let test_log_subscribe_push () =
  let log = Activity_log.create () in
  let got = ref [] in
  let sub =
    Activity_log.subscribe log (fun e -> got := e.Activity_log.cloud_id :: !got)
  in
  log_append log ~seq:0 "a";
  log_append log ~seq:1 "b";
  check (Alcotest.list string_) "delivered in append order" [ "a"; "b" ]
    (List.rev !got);
  check int_ "one subscriber" 1 (Activity_log.subscriber_count log);
  Activity_log.unsubscribe log sub;
  log_append log ~seq:2 "c";
  check (Alcotest.list string_) "nothing after unsubscribe" [ "a"; "b" ]
    (List.rev !got);
  check int_ "unsubscribe idempotent" 0
    (Activity_log.unsubscribe log sub;
     Activity_log.subscriber_count log)

let test_log_subscribe_replay () =
  let log = Activity_log.create () in
  log_append log ~seq:0 "a";
  log_append log ~seq:1 "b";
  log_append log ~seq:2 "c";
  let got = ref [] in
  (* a restarted consumer carries its cursor: seq >= 1 replays b, c *)
  ignore
    (Activity_log.subscribe log ~from:1 (fun e ->
         got := e.Activity_log.cloud_id :: !got));
  check (Alcotest.list string_) "cursor replay" [ "b"; "c" ] (List.rev !got);
  log_append log ~seq:3 "d";
  check (Alcotest.list string_) "then live delivery" [ "b"; "c"; "d" ]
    (List.rev !got);
  (* replays and live pushes both count as deliveries *)
  check int_ "deliveries counted" 3 (Activity_log.deliveries log)

let test_log_subscribe_fanout_order () =
  let log = Activity_log.create () in
  let order = ref [] in
  ignore (Activity_log.subscribe log (fun _ -> order := "first" :: !order));
  ignore (Activity_log.subscribe log (fun _ -> order := "second" :: !order));
  log_append log ~seq:0 "a";
  check (Alcotest.list string_) "subscription order preserved"
    [ "first"; "second" ] (List.rev !order)

(* The indexed profile table gives what the list lookup gave: for every
   table entry and for an unknown type, every op kind's expected time,
   and a sample from the same PRNG draw with the PRNG left in the same
   place. *)
let test_service_times_match_list_lookup () =
  let kinds = Service_model.[ Op_create; Op_update; Op_delete; Op_read ] in
  let default = Service_model.find "no_such_type" in
  let listed rtype =
    Option.value (List.assoc_opt rtype Service_model.table) ~default
  in
  let mean (p : Service_model.profile) = function
    | Service_model.Op_create -> p.create_mean
    | Op_update -> p.update_mean
    | Op_delete -> p.delete_mean
    | Op_read -> 0.3
  in
  check (Alcotest.float 0.) "the default is create 10 s" 10. default.Service_model.create_mean;
  let indexed = Prng.create 7 and by_list = Prng.create 7 in
  List.iter
    (fun rtype ->
      let p = listed rtype in
      List.iter
        (fun kind ->
          check (Alcotest.float 0.) (rtype ^ " expected") (mean p kind)
            (Service_model.expected rtype kind);
          let j =
            Prng.float_range by_list (1. -. p.Service_model.jitter) (1. +. p.jitter)
          in
          check (Alcotest.float 0.) (rtype ^ " sample")
            (Float.max 0.05 (mean p kind *. j))
            (Service_model.sample indexed rtype kind))
        kinds)
    (List.map fst Service_model.table @ [ "no_such_type" ]);
  check (Alcotest.float 0.) "one draw per sample" (Prng.float by_list) (Prng.float indexed)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "sim.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "ranges" `Quick test_prng_ranges;
        Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        qtest prop_exponential_positive;
      ] );
    ( "sim.event_queue",
      [
        Alcotest.test_case "time order" `Quick test_event_queue_order;
        Alcotest.test_case "fifo ties" `Quick test_event_queue_fifo_ties;
        qtest prop_event_queue_sorted;
      ] );
    ( "sim.rate_limiter",
      [
        Alcotest.test_case "burst then throttle" `Quick test_rate_limiter_burst_then_throttle;
        Alcotest.test_case "stats" `Quick test_rate_limiter_stats;
        Alcotest.test_case "time_until" `Quick test_rate_limiter_time_until;
      ] );
    ( "sim.cloud",
      [
        Alcotest.test_case "create/read/delete" `Quick test_cloud_create_read_delete;
        Alcotest.test_case "service time" `Quick test_cloud_create_takes_service_time;
        Alcotest.test_case "unknown region" `Quick test_cloud_unknown_region;
        Alcotest.test_case "quota" `Quick test_cloud_quota;
        Alcotest.test_case "update" `Quick test_cloud_update;
        Alcotest.test_case "activity log" `Quick test_cloud_activity_log;
        Alcotest.test_case "transient failure" `Quick test_cloud_transient_failures;
        Alcotest.test_case "permanent failure" `Quick test_cloud_permanent_failure;
        Alcotest.test_case "oob mutation logged" `Quick test_cloud_oob_mutation_logged;
        Alcotest.test_case "list by type" `Quick test_cloud_list_type;
        Alcotest.test_case "determinism" `Quick test_cloud_determinism;
        Alcotest.test_case "service times match the list lookup" `Quick
          test_service_times_match_list_lookup;
      ] );
    ( "sim.activity_log",
      [
        Alcotest.test_case "subscribe pushes appends" `Quick
          test_log_subscribe_push;
        Alcotest.test_case "cursor replay on subscribe" `Quick
          test_log_subscribe_replay;
        Alcotest.test_case "fan-out in subscription order" `Quick
          test_log_subscribe_fanout_order;
      ] );
  ]
