(** Cloud-side semantic checks for the simulator.

    These mirror {!Rules} but run *inside* the simulated cloud, over
    concrete cloud ids, and fail with the vague, API-level error
    messages real providers emit — including the paper's running
    example: a VM whose NIC lives in another region fails with
    "specified NIC not found", not with the actual root cause.  The
    §3.5 debugger exists to translate exactly these messages. *)

module Value = Cloudless_hcl.Value
module Ipnet = Cloudless_hcl.Ipnet
module Smap = Value.Smap
module Cloud = Cloudless_sim.Cloud

let string_attr attrs name =
  match Smap.find_opt name attrs with
  | Some (Value.Vstring s) -> Some s
  | _ -> None

let list_attr attrs name =
  match Smap.find_opt name attrs with
  | Some (Value.Vlist vs) -> vs
  | Some v -> [ v ]
  | None -> []

let region_of (r : Cloud.resource) = r.Cloud.region

(* The paper's flagship opaque error: region mismatch reported as a
   missing NIC. *)
let vm_nic_check : Cloud.semantic_check =
 fun ~lookup ~rtype ~region ~attrs ->
  if
    not
      (List.mem rtype
         [
           "aws_virtual_machine";
           "azurerm_linux_virtual_machine";
           "azurerm_virtual_machine";
         ])
  then Ok ()
  else
    let nic_ids =
      list_attr attrs "nic_ids"
      |> List.filter_map (function Value.Vstring s -> Some s | _ -> None)
    in
    let rec go = function
      | [] -> Ok ()
      | nic_id :: rest -> (
          match lookup nic_id with
          | None ->
              Error
                (Printf.sprintf
                   "Virtual machine creation failed because specified NIC %s \
                    is not found"
                   nic_id)
          | Some nic ->
              if region_of nic <> region then
                (* the cloud *knows* the real cause but reports the
                   misleading message, like Azure does *)
                Error
                  (Printf.sprintf
                     "Virtual machine creation failed because specified NIC \
                      %s is not found"
                     nic_id)
              else go rest)
    in
    go nic_ids

(* Referenced parent resources must exist and share the region. *)
let reference_checks : (string * string * string) list =
  (* (rtype, attr, referenced type description) *)
  [
    ("aws_subnet", "vpc_id", "VPC");
    ("aws_internet_gateway", "vpc_id", "VPC");
    ("aws_route_table", "vpc_id", "VPC");
    ("aws_security_group", "vpc_id", "VPC");
    ("aws_nat_gateway", "subnet_id", "subnet");
    ("aws_lb_listener", "load_balancer_id", "load balancer");
    ("aws_route53_record", "zone_id", "hosted zone");
    ("aws_iam_role_policy_attachment", "role_id", "role");
    ("azurerm_subnet", "virtual_network_id", "virtual network");
    ("azurerm_virtual_network", "resource_group_id", "resource group");
  ]

let parent_reference_check : Cloud.semantic_check =
 fun ~lookup ~rtype ~region ~attrs ->
  let rec go = function
    | [] -> Ok ()
    | (rt, attr_name, desc) :: rest ->
        if rt <> rtype then go rest
        else (
          match string_attr attrs attr_name with
          | None -> go rest
          | Some id -> (
              match lookup id with
              | None ->
                  Error
                    (Printf.sprintf "%s creation failed: referenced %s %s does \
                                     not exist"
                       rtype desc id)
              | Some parent ->
                  (* region-scoped services require same region; global
                     services (iam, dns) are exempt *)
                  let global =
                    List.mem rtype
                      [ "aws_iam_role_policy_attachment"; "aws_route53_record" ]
                  in
                  if (not global) && region_of parent <> region then
                    Error
                      (Printf.sprintf
                         "%s creation failed: referenced %s %s does not exist"
                         rtype desc id)
                  else go rest))
  in
  go reference_checks

(* Subnet prefix containment, checked against the live parent. *)
let subnet_cidr_check : Cloud.semantic_check =
 fun ~lookup ~rtype ~region:_ ~attrs ->
  let parent_attr, cidr_attr, space_attr =
    match rtype with
    | "aws_subnet" -> (Some "vpc_id", "cidr_block", "cidr_block")
    | "azurerm_subnet" -> (Some "virtual_network_id", "address_prefix", "address_space")
    | _ -> (None, "", "")
  in
  match parent_attr with
  | None -> Ok ()
  | Some pa -> (
      match (string_attr attrs pa, string_attr attrs cidr_attr) with
      | Some parent_id, Some cidr -> (
          match (lookup parent_id, Ipnet.parse_prefix cidr) with
          | Some parent, inner ->
              let outers =
                (match Smap.find_opt space_attr (Cloud.attrs parent) with
                | Some (Value.Vlist vs) -> vs
                | Some v -> [ v ]
                | None -> [])
                |> List.filter_map (function
                     | Value.Vstring s -> (
                         match Ipnet.parse_prefix s with
                         | p -> Some p
                         | exception Ipnet.Invalid _ -> None)
                     | _ -> None)
              in
              if outers = [] then Ok ()
              else if List.exists (fun outer -> Ipnet.contains ~outer ~inner) outers
              then Ok ()
              else
                Error
                  (Printf.sprintf
                     "InvalidSubnet.Range: the CIDR %s is invalid for the \
                      network"
                     cidr)
          | None, _ -> Ok ()  (* missing parent caught elsewhere *)
          | exception Ipnet.Invalid _ ->
              Error (Printf.sprintf "InvalidParameterValue: bad CIDR %S" cidr))
      | _ -> Ok ())

(* Password/flag coupling enforced cloud-side, with an opaque message. *)
let password_check : Cloud.semantic_check =
 fun ~lookup:_ ~rtype ~region:_ ~attrs ->
  if
    not (List.mem rtype [ "azurerm_linux_virtual_machine"; "azurerm_virtual_machine" ])
  then Ok ()
  else
    match Smap.find_opt "admin_password" attrs with
    | Some (Value.Vstring _) -> (
        match Smap.find_opt "disable_password" attrs with
        | Some (Value.Vbool false) -> Ok ()
        | _ ->
            Error
              "OperationNotAllowed: the property 'adminPassword' is not valid \
               for this request")
    | _ -> Ok ()

(* Peered networks with overlapping address spaces are rejected (the
   Azure behaviour §3.2 cites), with a ResourceManager-style message. *)
let peering_overlap_check : Cloud.semantic_check =
 fun ~lookup ~rtype ~region:_ ~attrs ->
  if
    not
      (List.mem rtype
         [ "azurerm_virtual_network_peering"; "aws_vpc_peering_connection" ])
  then Ok ()
  else
    let endpoint name =
      match string_attr attrs name with
      | Some id -> lookup id
      | None -> None
    in
    let a =
      match endpoint "vnet_id" with Some x -> Some x | None -> endpoint "vpc_id"
    in
    let b =
      match endpoint "remote_vnet_id" with
      | Some x -> Some x
      | None -> endpoint "peer_vpc_id"
    in
    let cidrs (r : Cloud.resource) =
      (match Smap.find_opt "address_space" (Cloud.attrs r) with
      | Some (Value.Vlist vs) -> vs
      | Some v -> [ v ]
      | None -> [])
      @ (match Smap.find_opt "cidr_block" (Cloud.attrs r) with
        | Some v -> [ v ]
        | None -> [])
      |> List.filter_map (function
           | Value.Vstring s -> (
               match Ipnet.parse_prefix s with
               | p -> Some p
               | exception Ipnet.Invalid _ -> None)
           | _ -> None)
    in
    match (a, b) with
    | Some va, Some vb ->
        if
          List.exists
            (fun pa -> List.exists (Ipnet.overlaps pa) (cidrs vb))
            (cidrs va)
        then
          Error
            "CannotPeerNetworksWithOverlappingAddressSpace: the referenced \
             networks have overlapping address prefixes"
        else Ok ()
    | _ -> Ok ()

(* Security-group rules with inverted port ranges are rejected. *)
let sg_rule_port_check : Cloud.semantic_check =
 fun ~lookup:_ ~rtype ~region:_ ~attrs ->
  if rtype <> "aws_security_group_rule" then Ok ()
  else
    match (Smap.find_opt "from_port" attrs, Smap.find_opt "to_port" attrs) with
    | Some (Value.Vint f), Some (Value.Vint t) when f > t ->
        Error
          (Printf.sprintf
             "InvalidParameterValue: invalid port range %d-%d" f t)
    | _ -> Ok ()

let all : Cloud.semantic_check list =
  [
    vm_nic_check;
    parent_reference_check;
    subnet_cidr_check;
    password_check;
    peering_overlap_check;
    sg_rule_port_check;
  ]

(** A simulator config with the cloud-level constraints installed. *)
let config_with_checks ?(base = Cloud.default_config) () =
  { base with Cloud.semantic_checks = all @ base.Cloud.semantic_checks }
