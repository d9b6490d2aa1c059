(** The IaC debugger (§3.5): correlate cloud-level errors with the
    IaC-level program and suggest fixes.

    The paper's example drives the design: Azure rejects a VM whose NIC
    is in another region with "Linux virtual machine creation failed
    because specified NIC is not found" — the NIC *does* exist; the
    root cause is a region mismatch, and the error names neither the
    offending attribute nor its line.  [diagnose] re-derives the root
    cause analytically from the configuration and points at the exact
    source spans. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Eval = Cloudless_hcl.Eval
module Config = Cloudless_hcl.Config
module Ast = Cloudless_hcl.Ast
module Loc = Cloudless_hcl.Loc
module Ipnet = Cloudless_hcl.Ipnet
module Smap = Value.Smap

type evidence = { espan : Loc.span; explanation : string }

type diagnosis = {
  failed_addr : Addr.t;
  cloud_error : string;  (** the raw provider message *)
  root_cause : string;  (** the real cause, in IaC terms *)
  evidence : evidence list;  (** source locations involved *)
  suggested_fix : string;
  confidence : [ `High | `Medium | `Low ];
}

let pp_diagnosis ppf d =
  Fmt.pf ppf "@[<v>%s failed@,  cloud said : %S@,  root cause : %s@,%a  fix        : %s@]"
    (Addr.to_string d.failed_addr) d.cloud_error d.root_cause
    (Fmt.list ~sep:Fmt.nop (fun ppf e ->
         Fmt.pf ppf "  evidence   : %a — %s@," Loc.pp e.espan e.explanation))
    d.evidence d.suggested_fix

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let find_instance instances addr =
  List.find_opt
    (fun (i : Eval.instance) -> Addr.equal i.Eval.addr addr)
    instances

let find_config_resource (cfg : Config.t) (addr : Addr.t) =
  Config.find_resource cfg addr.Addr.rtype addr.Addr.rname

let attr_span cfg addr name =
  match find_config_resource cfg addr with
  | Some r -> (
      match Ast.attr_span r.Config.rbody name with
      | Some span -> span
      | None -> r.Config.rspan)
  | None -> Loc.dummy

let effective_region (i : Eval.instance) =
  match Eval.merged_attr i "region" with
  | Some (Value.Vstring r) -> Some ("region", r)
  | _ -> (
      match Eval.merged_attr i "location" with
      | Some (Value.Vstring r) -> Some ("location", r)
      | _ -> None)

(* Resolve "addr.attr"-provenance references out of an attribute. *)
let referenced_addrs (v : Value.t) : Addr.t list =
  let rec go acc = function
    | Value.Vunknown p -> (
        match String.rindex_opt p '.' with
        | Some i -> (
            match Addr.of_string (String.sub p 0 i) with
            | Some a -> a :: acc
            | None -> acc)
        | None -> acc)
    | Value.Vlist vs -> List.fold_left go acc vs
    | Value.Vmap m -> Smap.fold (fun _ v acc -> go acc v) m acc
    | _ -> acc
  in
  List.rev (go [] v)

let contains_ci ~sub s =
  let s = String.lowercase_ascii s and sub = String.lowercase_ascii sub in
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Root-cause analyses                                                 *)
(* ------------------------------------------------------------------ *)

(* "NIC not found" family: the NIC usually exists — look for a region
   mismatch first, a genuinely missing reference second. *)
let diagnose_nic_not_found cfg instances (addr : Addr.t) error =
  match find_instance instances addr with
  | None -> None
  | Some vm -> (
      let nic_refs =
        match Eval.merged_attr vm "nic_ids" with
        | Some v -> referenced_addrs v
        | None -> []
      in
      let vm_region = effective_region vm in
      let mismatched =
        List.filter_map
          (fun nic_addr ->
            match (find_instance instances nic_addr, vm_region) with
            | Some nic, Some (_, vr) -> (
                match effective_region nic with
                | Some (nic_attr, nr) when nr <> vr ->
                    Some (nic_addr, nic_attr, nr, vr)
                | _ -> None)
            | _ -> None)
          nic_refs
      in
      match mismatched with
      | (nic_addr, nic_attr, nic_region, vm_region_v) :: _ ->
          let vm_attr =
            match vm_region with Some (a, _) -> a | None -> "region"
          in
          Some
            {
              failed_addr = addr;
              cloud_error = error;
              root_cause =
                Printf.sprintf
                  "the NIC exists but is in region %s while the VM is in %s \
                   — the provider requires them to match and misreports \
                   this as a missing NIC"
                  nic_region vm_region_v;
              evidence =
                [
                  {
                    espan = attr_span cfg addr vm_attr;
                    explanation =
                      Printf.sprintf "VM %s declared in %s here"
                        (Addr.to_string addr) vm_region_v;
                  };
                  {
                    espan = attr_span cfg nic_addr nic_attr;
                    explanation =
                      Printf.sprintf "NIC %s declared in %s here"
                        (Addr.to_string nic_addr) nic_region;
                  };
                ];
              suggested_fix =
                Printf.sprintf "set %s of %s to %S (or move the VM to %S)"
                  nic_attr (Addr.to_string nic_addr) vm_region_v nic_region;
              confidence = `High;
            }
      | [] ->
          if nic_refs = [] then
            Some
              {
                failed_addr = addr;
                cloud_error = error;
                root_cause = "the VM references no NIC in the configuration";
                evidence =
                  [
                    {
                      espan = attr_span cfg addr "nic_ids";
                      explanation = "nic_ids is empty or missing";
                    };
                  ];
                suggested_fix =
                  "add a NIC resource and reference it in nic_ids";
                confidence = `Medium;
              }
          else None)

(* Generic parent-reference failures from the simulated providers. *)
let diagnose_missing_parent cfg instances addr error =
  let parent_attrs =
    [ "vpc_id"; "subnet_id"; "virtual_network_id"; "resource_group_id";
      "zone_id"; "load_balancer_id"; "role_id" ]
  in
  match find_instance instances addr with
  | None -> None
  | Some inst ->
      List.find_map
        (fun attr_name ->
          match Eval.merged_attr inst attr_name with
          | None -> None
          | Some v -> (
              match referenced_addrs v with
              | parent_addr :: _ -> (
                  match (find_instance instances parent_addr, effective_region inst) with
                  | Some parent, Some (_, my_region) -> (
                      match effective_region parent with
                      | Some (pattr, pregion) when pregion <> my_region ->
                          Some
                            {
                              failed_addr = addr;
                              cloud_error = error;
                              root_cause =
                                Printf.sprintf
                                  "referenced %s is in %s but this resource \
                                   is in %s (region mismatch reported as a \
                                   missing resource)"
                                  (Addr.to_string parent_addr) pregion my_region;
                              evidence =
                                [
                                  {
                                    espan = attr_span cfg addr attr_name;
                                    explanation = "reference declared here";
                                  };
                                  {
                                    espan = attr_span cfg parent_addr pattr;
                                    explanation =
                                      Printf.sprintf "%s region declared here"
                                        (Addr.to_string parent_addr);
                                  };
                                ];
                              suggested_fix =
                                Printf.sprintf
                                  "align the regions of %s and %s"
                                  (Addr.to_string addr)
                                  (Addr.to_string parent_addr);
                              confidence = `High;
                            }
                      | _ -> None)
                  | None, _ ->
                      Some
                        {
                          failed_addr = addr;
                          cloud_error = error;
                          root_cause =
                            Printf.sprintf
                              "reference to %s, which is not part of this \
                               configuration"
                              (Addr.to_string parent_addr);
                          evidence =
                            [
                              {
                                espan = attr_span cfg addr attr_name;
                                explanation = "dangling reference here";
                              };
                            ];
                          suggested_fix =
                            Printf.sprintf "declare %s or remove the reference"
                              (Addr.to_string parent_addr);
                          confidence = `Medium;
                        }
                  | _ -> None)
              | [] -> None))
        parent_attrs

(* Subnet CIDR outside the parent network's address space; suggest a
   free sub-prefix. *)
let diagnose_subnet_range cfg instances addr error =
  match find_instance instances addr with
  | None -> None
  | Some inst -> (
      let own_cidr =
        match
          ( Eval.merged_attr inst "cidr_block",
            Eval.merged_attr inst "address_prefix" )
        with
        | Some (Value.Vstring c), _ | _, Some (Value.Vstring c) -> Some c
        | _ -> None
      in
      let parent =
        match
          ( Eval.merged_attr inst "vpc_id",
            Eval.merged_attr inst "virtual_network_id" )
        with
        | Some v, _ | None, Some v -> (
            match referenced_addrs v with a :: _ -> find_instance instances a | [] -> None)
        | None, None -> None
      in
      match (own_cidr, parent) with
      | Some cidr, Some p ->
          let parent_space =
            match
              ( Eval.merged_attr p "cidr_block",
                Eval.merged_attr p "address_space" )
            with
            | Some (Value.Vstring c), _ -> Some c
            | _, Some (Value.Vlist (Value.Vstring c :: _)) -> Some c
            | _ -> None
          in
          (match parent_space with
          | Some space ->
              let suggestion =
                match Ipnet.parse_prefix space with
                | outer -> (
                    match Ipnet.subnet outer ~newbits:8 ~netnum:0 with
                    | s -> Ipnet.prefix_to_string s
                    | exception Ipnet.Invalid _ -> space)
                | exception Ipnet.Invalid _ -> space
              in
              Some
                {
                  failed_addr = addr;
                  cloud_error = error;
                  root_cause =
                    Printf.sprintf
                      "subnet CIDR %s lies outside the parent network's \
                       space %s"
                      cidr space;
                  evidence =
                    [
                      {
                        espan = attr_span cfg addr "cidr_block";
                        explanation = "subnet prefix declared here";
                      };
                      {
                        espan = attr_span cfg p.Eval.addr "cidr_block";
                        explanation = "parent address space declared here";
                      };
                    ];
                  suggested_fix =
                    Printf.sprintf "use a prefix inside %s, e.g. %s" space
                      suggestion;
                  confidence = `High;
                }
          | None -> None)
      | _ -> None)

let diagnose_password cfg _instances addr error =
  Some
    {
      failed_addr = addr;
      cloud_error = error;
      root_cause =
        "admin_password may only be supplied when disable_password is \
         explicitly false";
      evidence =
        [
          {
            espan = attr_span cfg addr "admin_password";
            explanation = "password set here";
          };
        ];
      suggested_fix = "add disable_password = false next to admin_password";
      confidence = `High;
    }

let diagnose_quota _cfg _instances addr error =
  Some
    {
      failed_addr = addr;
      cloud_error = error;
      root_cause = "the regional quota for this resource type is exhausted";
      evidence = [];
      suggested_fix =
        "lower the count/for_each cardinality, spread instances across \
         regions, or request a quota increase";
      confidence = `Medium;
    }

let diagnose_throttle _cfg _instances addr error =
  Some
    {
      failed_addr = addr;
      cloud_error = error;
      root_cause =
        "the deployment exceeded the provider's management-API rate limit \
         and exhausted its retries";
      evidence = [];
      suggested_fix =
        "enable rate-aware admission (cloudless engine) or lower parallelism";
      confidence = `Medium;
    }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Translate a cloud-level failure into an IaC-level diagnosis. *)
let diagnose ~(cfg : Config.t) ~(instances : Eval.instance list)
    ~(addr : Addr.t) ~(error : string) : diagnosis =
  let attempt =
    if contains_ci ~sub:"nic" error && contains_ci ~sub:"not found" error then
      diagnose_nic_not_found cfg instances addr error
    else if contains_ci ~sub:"does not exist" error then
      diagnose_missing_parent cfg instances addr error
    else if contains_ci ~sub:"invalidsubnet" error then
      diagnose_subnet_range cfg instances addr error
    else if contains_ci ~sub:"adminpassword" error then
      diagnose_password cfg instances addr error
    else if contains_ci ~sub:"quota" error then
      diagnose_quota cfg instances addr error
    else if contains_ci ~sub:"throttled" error || contains_ci ~sub:"429" error
    then diagnose_throttle cfg instances addr error
    else None
  in
  match attempt with
  | Some d -> d
  | None ->
      (* fall back to locating the resource *)
      let span =
        match find_config_resource cfg addr with
        | Some r -> r.Config.rspan
        | None -> Loc.dummy
      in
      {
        failed_addr = addr;
        cloud_error = error;
        root_cause = "no analytical rule matched this provider error";
        evidence =
          [ { espan = span; explanation = "failing resource declared here" } ];
        suggested_fix = "inspect the provider error and the resource block";
        confidence = `Low;
      }
