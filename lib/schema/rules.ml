(** Cross-resource constraint rules at the IaC level (§3.2 "deeper,
    cloud-specific validation").

    Each rule transplants a documented cloud-level expectation into a
    plan-time check over expanded instances, so the violation surfaces
    at validation instead of minutes into a deployment.  The built-in
    set includes every concrete example the paper gives: VM/NIC region
    agreement, the Azure [admin_password]/[disable_password] coupling,
    and non-overlapping address spaces for peered virtual networks. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Eval = Cloudless_hcl.Eval
module Ipnet = Cloudless_hcl.Ipnet
module Smap = Value.Smap

type violation = {
  rule_id : string;
  addr : Addr.t;
  message : string;
  span : Cloudless_hcl.Loc.span;
}

type ctx = {
  instances : Eval.instance list;
  by_addr : Eval.instance Addr.Map.t;
  by_id : (string, Eval.instance) Hashtbl.t;
      (** the instances whose [id] is known: those of recorded rows *)
}

type rule = { id : string; doc : string; check : ctx -> violation list }

let make_ctx instances =
  {
    instances;
    by_addr =
      List.fold_left
        (fun acc (i : Eval.instance) -> Addr.Map.add i.Eval.addr i acc)
        Addr.Map.empty instances;
    by_id =
      (let ids = Hashtbl.create (List.length instances) in
       List.iter
         (fun (i : Eval.instance) ->
           match Eval.merged_attr i "id" with
           | Some (Value.Vstring id) -> Hashtbl.replace ids id i
           | _ -> ())
         instances;
       ids);
  }

let violation ~rule_id (inst : Eval.instance) fmt =
  Fmt.kstr
    (fun message ->
      { rule_id; addr = inst.Eval.addr; message; span = inst.Eval.ispan })
    fmt

(* ------------------------------------------------------------------ *)
(* Reference resolution helpers                                        *)
(* ------------------------------------------------------------------ *)

(* An attribute referencing another resource appears at plan time as
   [Vunknown "addr.id"], or as the resource's known id once its row is
   recorded; resolve it back to the instance. *)
let deref ctx (v : Value.t) : Eval.instance option =
  match v with
  | Value.Vstring id -> Hashtbl.find_opt ctx.by_id id
  | Value.Vunknown p -> (
      match String.rindex_opt p '.' with
      | None -> None
      | Some i -> (
          let addr_part = String.sub p 0 i in
          match Addr.of_string addr_part with
          | Some a -> Addr.Map.find_opt a ctx.by_addr
          | None -> None))
  | _ -> None

let attr = Eval.merged_attr

let string_attr inst name =
  match attr inst name with Some (Value.Vstring s) -> Some s | _ -> None

let int_attr inst name =
  match attr inst name with Some (Value.Vint n) -> Some n | _ -> None

(* Region may be spelled [region] (AWS) or [location] (Azure). *)
let effective_region inst =
  match string_attr inst "region" with
  | Some r -> Some r
  | None -> string_attr inst "location"

let of_type ctx rtypes =
  List.filter
    (fun (i : Eval.instance) -> List.mem i.Eval.addr.Addr.rtype rtypes)
    ctx.instances

let list_attr inst name =
  match attr inst name with
  | Some (Value.Vlist vs) -> vs
  | Some v -> [ v ]
  | None -> []

let cidrs_of_vnet inst =
  (match attr inst "address_space" with
  | Some (Value.Vlist vs) -> vs
  | Some (Value.Vstring _ as v) -> [ v ]
  | _ -> [])
  @ (match attr inst "cidr_block" with Some v -> [ v ] | None -> [])
  |> List.filter_map (function
       | Value.Vstring s -> (
           match Ipnet.parse_prefix s with
           | p -> Some p
           | exception Ipnet.Invalid _ -> None)
       | _ -> None)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

(* Paper §3.2: "Azure requires that VMs and their attached network
   interface cards (NICs) must be in the same cloud region." *)
let vm_nic_same_region =
  {
    id = "vm-nic-same-region";
    doc = "A virtual machine and its network interfaces must share a region";
    check =
      (fun ctx ->
        of_type ctx
          [ "aws_virtual_machine"; "azurerm_linux_virtual_machine"; "azurerm_virtual_machine" ]
        |> List.concat_map (fun vm ->
               match effective_region vm with
               | None -> []
               | Some vm_region ->
                   list_attr vm "nic_ids"
                   |> List.filter_map (fun nic_ref ->
                          match deref ctx nic_ref with
                          | None -> None
                          | Some nic -> (
                              match effective_region nic with
                              | Some nic_region when nic_region <> vm_region ->
                                  Some
                                    (violation ~rule_id:"vm-nic-same-region" vm
                                       "VM is in %s but NIC %s is in %s"
                                       vm_region
                                       (Addr.to_string nic.Eval.addr)
                                       nic_region)
                              | _ -> None))));
  }

(* Paper §3.2: "Azure VMs could specify a password only if another
   disable_password attribute is explicitly set to false." *)
let password_requires_flag =
  {
    id = "password-flag";
    doc =
      "admin_password may only be set when disable_password is explicitly false";
    check =
      (fun ctx ->
        of_type ctx [ "azurerm_linux_virtual_machine"; "azurerm_virtual_machine" ]
        |> List.filter_map (fun vm ->
               match attr vm "admin_password" with
               | Some (Value.Vstring _) -> (
                   match attr vm "disable_password" with
                   | Some (Value.Vbool false) -> None
                   | Some (Value.Vbool true) ->
                       Some
                         (violation ~rule_id:"password-flag" vm
                            "admin_password set while disable_password = true")
                   | _ ->
                       Some
                         (violation ~rule_id:"password-flag" vm
                            "admin_password requires disable_password = false \
                             to be set explicitly"))
               | _ -> None));
  }

(* Paper §3.2: "Azure virtual networks cannot have overlapping address
   spaces if they are connected with each other through peering". *)
let peering_no_overlap =
  {
    id = "peering-no-overlap";
    doc = "Peered virtual networks must have disjoint address spaces";
    check =
      (fun ctx ->
        of_type ctx
          [ "azurerm_virtual_network_peering"; "aws_vpc_peering_connection" ]
        |> List.concat_map (fun peering ->
               let endpoint name =
                 match attr peering name with
                 | Some v -> deref ctx v
                 | None -> None
               in
               let a =
                 match endpoint "vnet_id" with
                 | Some x -> Some x
                 | None -> endpoint "vpc_id"
               in
               let b =
                 match endpoint "remote_vnet_id" with
                 | Some x -> Some x
                 | None -> endpoint "peer_vpc_id"
               in
               match (a, b) with
               | Some va, Some vb ->
                   let ca = cidrs_of_vnet va and cb = cidrs_of_vnet vb in
                   List.concat_map
                     (fun pa ->
                       List.filter_map
                         (fun pb ->
                           if Ipnet.overlaps pa pb then
                             Some
                               (violation ~rule_id:"peering-no-overlap" peering
                                  "peered networks %s and %s overlap (%s vs %s)"
                                  (Addr.to_string va.Eval.addr)
                                  (Addr.to_string vb.Eval.addr)
                                  (Ipnet.prefix_to_string pa)
                                  (Ipnet.prefix_to_string pb))
                           else None)
                         cb)
                     ca
               | _ -> []));
  }

(* A subnet's prefix must lie inside its parent network's space. *)
let subnet_within_network =
  {
    id = "subnet-within-network";
    doc = "Subnet CIDR must be contained in the parent network's space";
    check =
      (fun ctx ->
        of_type ctx [ "aws_subnet"; "azurerm_subnet" ]
        |> List.filter_map (fun subnet ->
               let parent_ref =
                 match attr subnet "vpc_id" with
                 | Some v -> Some v
                 | None -> attr subnet "virtual_network_id"
               in
               let own_cidr =
                 match string_attr subnet "cidr_block" with
                 | Some c -> Some c
                 | None -> string_attr subnet "address_prefix"
               in
               match (parent_ref, own_cidr) with
               | Some pref, Some cidr -> (
                   match (deref ctx pref, Ipnet.parse_prefix cidr) with
                   | Some parent, inner -> (
                       match cidrs_of_vnet parent with
                       | [] -> None
                       | outers ->
                           if
                             List.exists
                               (fun outer -> Ipnet.contains ~outer ~inner)
                               outers
                           then None
                           else
                             Some
                               (violation ~rule_id:"subnet-within-network" subnet
                                  "subnet %s is not contained in %s's address \
                                   space"
                                  cidr
                                  (Addr.to_string parent.Eval.addr)))
                   | None, _ -> None
                   | exception Ipnet.Invalid _ -> None)
               | _ -> None));
  }

(* Sibling subnets of one network must not overlap each other. *)
type subnet_entry = {
  sidx : int;  (** position in the subnet list, for stable ordering *)
  sinst : Eval.instance;
  sprefix : Ipnet.prefix;
  sstart : int;
  sstop : int;
}

let sibling_subnets_disjoint =
  {
    id = "sibling-subnets-disjoint";
    doc = "Subnets of the same network must not overlap";
    check =
      (fun ctx ->
        let subnets = of_type ctx [ "aws_subnet"; "azurerm_subnet" ] in
        let parent_of s =
          match attr s "vpc_id" with
          | Some v -> deref ctx v
          | None -> (
              match attr s "virtual_network_id" with
              | Some v -> deref ctx v
              | None -> None)
        in
        let cidr_of s =
          match
            (string_attr s "cidr_block", string_attr s "address_prefix")
          with
          | Some c, _ | None, Some c -> (
              match Ipnet.parse_prefix c with
              | p -> Some p
              | exception Ipnet.Invalid _ -> None)
          | None, None -> None
        in
        (* Resolve each subnet's parent and prefix once, then sweep each
           sibling group sorted by start address: O(s log s + hits)
           instead of deref-ing and testing all O(s^2) pairs.  Hits are
           re-sorted by list position so the violations come out in the
           same order the pairwise scan produced. *)
        let by_parent =
          List.mapi
            (fun i s ->
              match (parent_of s, cidr_of s) with
              | Some p, Some c ->
                  let sstart, sstop = Ipnet.range c in
                  Some
                    ( p.Eval.addr,
                      { sidx = i; sinst = s; sprefix = c; sstart; sstop } )
              | _ -> None)
            subnets
          |> List.filter_map Fun.id
          |> List.fold_left
               (fun acc (parent, e) ->
                 let prev =
                   Option.value ~default:[] (Addr.Map.find_opt parent acc)
                 in
                 Addr.Map.add parent (e :: prev) acc)
               Addr.Map.empty
        in
        let hits = ref [] in
        Addr.Map.iter
          (fun _ group ->
            let arr = Array.of_list group in
            Array.sort
              (fun a b -> compare (a.sstart, a.sidx) (b.sstart, b.sidx))
              arr;
            Array.iteri
              (fun i a ->
                let j = ref (i + 1) in
                while !j < Array.length arr && arr.(!j).sstart <= a.sstop do
                  let b = arr.(!j) in
                  let first, second =
                    if a.sidx < b.sidx then (a, b) else (b, a)
                  in
                  hits := (first, second) :: !hits;
                  incr j
                done)
              arr)
          by_parent;
        List.sort
          (fun (a1, b1) (a2, b2) ->
            compare (a1.sidx, b1.sidx) (a2.sidx, b2.sidx))
          !hits
        |> List.map (fun (s1, s2) ->
               violation ~rule_id:"sibling-subnets-disjoint" s2.sinst
                 "subnet overlaps sibling %s (%s vs %s)"
                 (Addr.to_string s1.sinst.Eval.addr)
                 (Ipnet.prefix_to_string s1.sprefix)
                 (Ipnet.prefix_to_string s2.sprefix)));
  }

let sg_rule_port_order =
  {
    id = "sg-rule-port-order";
    doc = "Security-group rules need from_port <= to_port";
    check =
      (fun ctx ->
        of_type ctx [ "aws_security_group_rule" ]
        |> List.filter_map (fun r ->
               match (int_attr r "from_port", int_attr r "to_port") with
               | Some f, Some t when f > t ->
                   Some
                     (violation ~rule_id:"sg-rule-port-order" r
                        "from_port %d > to_port %d" f t)
               | _ -> None));
  }

let asg_sizes_ordered =
  {
    id = "asg-sizes";
    doc = "Auto-scaling group needs min <= desired <= max";
    check =
      (fun ctx ->
        of_type ctx [ "aws_autoscaling_group" ]
        |> List.concat_map (fun g ->
               let mn = int_attr g "min_size"
               and mx = int_attr g "max_size"
               and d = int_attr g "desired_capacity" in
               let out = ref [] in
               (match (mn, mx) with
               | Some mn, Some mx when mn > mx ->
                   out :=
                     violation ~rule_id:"asg-sizes" g "min_size %d > max_size %d"
                       mn mx
                     :: !out
               | _ -> ());
               (match (d, mn, mx) with
               | Some d, Some mn, _ when d < mn ->
                   out :=
                     violation ~rule_id:"asg-sizes" g
                       "desired_capacity %d < min_size %d" d mn
                     :: !out
               | Some d, _, Some mx when d > mx ->
                   out :=
                     violation ~rule_id:"asg-sizes" g
                       "desired_capacity %d > max_size %d" d mx
                     :: !out
               | _ -> ());
               !out));
  }

let db_subnet_group_spread =
  {
    id = "db-subnet-spread";
    doc = "A DB subnet group needs at least two subnets";
    check =
      (fun ctx ->
        of_type ctx [ "aws_db_subnet_group" ]
        |> List.filter_map (fun g ->
               match attr g "subnet_ids" with
               | Some (Value.Vlist l) when List.length l < 2 ->
                   Some
                     (violation ~rule_id:"db-subnet-spread" g
                        "subnet group has %d subnet(s); at least 2 required"
                        (List.length l))
               | _ -> None));
  }

let dns_ttl_positive =
  {
    id = "dns-ttl";
    doc = "DNS record TTLs must be positive";
    check =
      (fun ctx ->
        of_type ctx [ "aws_route53_record" ]
        |> List.filter_map (fun r ->
               match int_attr r "ttl" with
               | Some ttl when ttl <= 0 ->
                   Some (violation ~rule_id:"dns-ttl" r "non-positive TTL %d" ttl)
               | _ -> None));
  }

let builtin_rules =
  [
    vm_nic_same_region;
    password_requires_flag;
    peering_no_overlap;
    subnet_within_network;
    sibling_subnets_disjoint;
    sg_rule_port_order;
    asg_sizes_ordered;
    db_subnet_group_spread;
    dns_ttl_positive;
  ]

(** Run all rules over an instance set. *)
let check_all ?(rules = builtin_rules) instances =
  let ctx = make_ctx instances in
  List.concat_map (fun r -> r.check ctx) rules
