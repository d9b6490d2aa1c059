(** Per-resource-type service-time model.

    Public cloud provisioning times vary enormously by resource type —
    a network interface appears in seconds while a managed database or
    VPN gateway takes tens of minutes.  §3.3's critical-path argument
    rests on exactly this skew, so the model keeps a calibrated table
    (values in seconds, drawn from public provider documentation and
    community measurements) with lognormal-ish jitter. *)

type op_kind = Op_create | Op_update | Op_delete | Op_read

type profile = {
  create_mean : float;  (** seconds *)
  update_mean : float;
  delete_mean : float;
  jitter : float;  (** multiplicative jitter amplitude, e.g. 0.2 = ±20% *)
}

let profile ?(jitter = 0.2) ~create ?(update = 0.) ?(delete = 0.) () =
  {
    create_mean = create;
    update_mean = (if update > 0. then update else create *. 0.4);
    delete_mean = (if delete > 0. then delete else create *. 0.5);
    jitter;
  }

(* Calibrated defaults.  The absolute values matter less than the
   *ratios*: gateways and databases dominate; NICs, security rules and
   DNS records are fast. *)
let table : (string * profile) list =
  [
    (* networking *)
    ("aws_vpc", profile ~create:3. ());
    ("aws_subnet", profile ~create:2. ());
    ("aws_internet_gateway", profile ~create:5. ());
    ("aws_nat_gateway", profile ~create:110. ());
    ("aws_route_table", profile ~create:2. ());
    ("aws_route", profile ~create:1.5 ());
    ("aws_security_group", profile ~create:2. ());
    ("aws_security_group_rule", profile ~create:1. ());
    ("aws_network_interface", profile ~create:4. ());
    ("aws_eip", profile ~create:2. ());
    ("aws_lb", profile ~create:180. ());
    ("aws_lb_target_group", profile ~create:3. ());
    ("aws_lb_listener", profile ~create:2. ());
    ("aws_vpn_gateway", profile ~create:600. ());
    ("aws_vpn_connection", profile ~create:300. ());
    ("aws_vpc_peering_connection", profile ~create:15. ());
    ("aws_route53_zone", profile ~create:45. ());
    ("aws_route53_record", profile ~create:35. ());
    (* compute *)
    ("aws_instance", profile ~create:45. ~update:60. ~delete:60. ());
    ("aws_launch_template", profile ~create:2. ());
    ("aws_autoscaling_group", profile ~create:90. ());
    ("aws_lambda_function", profile ~create:10. ());
    ("aws_ecs_cluster", profile ~create:8. ());
    ("aws_ecs_service", profile ~create:75. ());
    ("aws_eks_cluster", profile ~create:720. ());
    (* storage / db *)
    ("aws_s3_bucket", profile ~create:4. ());
    ("aws_s3_bucket_policy", profile ~create:2. ());
    ("aws_ebs_volume", profile ~create:8. ());
    ("aws_db_instance", profile ~create:420. ~update:300. ~delete:300. ());
    ("aws_db_subnet_group", profile ~create:2. ());
    ("aws_elasticache_cluster", profile ~create:350. ());
    ("aws_dynamodb_table", profile ~create:20. ());
    (* identity *)
    ("aws_iam_role", profile ~create:3. ());
    ("aws_iam_policy", profile ~create:2. ());
    ("aws_iam_role_policy_attachment", profile ~create:1.5 ());
    (* azure-flavoured types (the paper's running examples are Azure) *)
    ("azurerm_resource_group", profile ~create:3. ());
    ("azurerm_virtual_network", profile ~create:6. ());
    ("azurerm_subnet", profile ~create:4. ());
    ("azurerm_network_interface", profile ~create:5. ());
    ("azurerm_virtual_machine", profile ~create:120. ~delete:150. ());
    ("azurerm_linux_virtual_machine", profile ~create:120. ~delete:150. ());
    ("azurerm_public_ip", profile ~create:4. ());
    ("azurerm_network_security_group", profile ~create:3. ());
    ("azurerm_lb", profile ~create:30. ());
    ("azurerm_virtual_network_gateway", profile ~create:1500. ());
    ("azurerm_virtual_network_peering", profile ~create:10. ());
    ("azurerm_storage_account", profile ~create:20. ());
    ("azurerm_sql_database", profile ~create:300. ());
    (* gcp-flavoured types *)
    ("google_compute_network", profile ~create:25. ());
    ("google_compute_subnetwork", profile ~create:15. ());
    ("google_compute_instance", profile ~create:40. ());
    ("google_compute_firewall", profile ~create:8. ());
    ("google_compute_address", profile ~create:3. ());
    ("google_compute_router", profile ~create:20. ());
    ("google_sql_database_instance", profile ~create:480. ());
    ("google_storage_bucket", profile ~create:3. ());
    ("google_container_cluster", profile ~create:420. ());
    ("google_pubsub_topic", profile ~create:2. ());
    ("google_cloudfunctions_function", profile ~create:60. ());
    ("google_dns_managed_zone", profile ~create:30. ());
    (* the paper's simplified figure-2 types *)
    ("aws_virtual_machine", profile ~create:60. ());
  ]

let default_profile = profile ~create:10. ()

(* The table indexed once.  [List.assoc_opt] takes the first entry of
   a type, so a later duplicate does not replace it. *)
let by_rtype =
  let h = Hashtbl.create (2 * List.length table) in
  List.iter (fun (rtype, p) -> if not (Hashtbl.mem h rtype) then Hashtbl.add h rtype p) table;
  h

let find rtype =
  match Hashtbl.find by_rtype rtype with
  | p -> p
  | exception Not_found -> default_profile

let mean p = function
  | Op_create -> p.create_mean
  | Op_update -> p.update_mean
  | Op_delete -> p.delete_mean
  | Op_read -> 0.3

(** Sampled duration with deterministic jitter from [prng]. *)
let sample prng rtype kind =
  let p = find rtype in
  let j = Prng.float_range prng (1. -. p.jitter) (1. +. p.jitter) in
  Float.max 0.05 (mean p kind *. j)

(** Expected (mean) duration — used by the critical-path planner, which
    must not consume randomness. *)
let expected rtype kind = mean (find rtype) kind
