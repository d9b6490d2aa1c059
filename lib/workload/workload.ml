(** Deterministic workload generators.

    Produce HCL source for the infrastructure shapes the paper's
    scenarios need: classic web tiers, microservice fleets, data
    pipelines, multi-region enterprises, and synthetic layered graphs
    for scheduler benchmarks.  All generation is a pure function of the
    parameters (no hidden randomness), so experiments are reproducible
    and the generated text also exercises the HCL front-end. *)

let buf_config f =
  let buf = Buffer.create 4096 in
  f buf;
  Buffer.contents buf

let add = Buffer.add_string

(* ------------------------------------------------------------------ *)
(* Web tier: vpc -> subnets -> sg -> instances (+ lb, + db)            *)
(* ------------------------------------------------------------------ *)

let web_tier ?(region = "us-east-1") ?(subnets = 2) ?(web_count = 4)
    ?(with_lb = true) ?(with_db = true) () =
  buf_config (fun b ->
      add b
        (Printf.sprintf
           {|resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "%s"
  name       = "web-vpc"
}

resource "aws_subnet" "app" {
  count      = %d
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, count.index)
  region     = "%s"
}

resource "aws_security_group" "web" {
  name   = "web-sg"
  vpc_id = aws_vpc.main.id
  region = "%s"
}

resource "aws_security_group_rule" "https" {
  security_group_id = aws_security_group.web.id
  type              = "ingress"
  from_port         = 443
  to_port           = 443
  protocol          = "tcp"
  cidr_blocks       = ["0.0.0.0/0"]
  region            = "%s"
}

resource "aws_instance" "web" {
  count                  = %d
  ami                    = "ami-0abcd1234"
  instance_type          = "t3.small"
  subnet_id              = aws_subnet.app[count.index %% %d].id
  vpc_security_group_ids = [aws_security_group.web.id]
  region                 = "%s"
}
|}
           region subnets region region region web_count subnets region);
      if with_lb then
        add b
          (Printf.sprintf
             {|
resource "aws_lb" "front" {
  name       = "web-lb"
  subnet_ids = aws_subnet.app[*].id
  region     = "%s"
}

resource "aws_lb_target_group" "tg" {
  name     = "web-tg"
  port     = 443
  protocol = "tcp"
  vpc_id   = aws_vpc.main.id
  region   = "%s"
}

resource "aws_lb_listener" "https" {
  load_balancer_id = aws_lb.front.id
  port             = 443
  protocol         = "tcp"
  target_group_id  = aws_lb_target_group.tg.id
  region           = "%s"
}
|}
             region region region);
      if with_db then
        add b
          (Printf.sprintf
             {|
resource "aws_db_subnet_group" "db" {
  name       = "web-db-subnets"
  subnet_ids = aws_subnet.app[*].id
  region     = "%s"
}

resource "aws_db_instance" "db" {
  identifier         = "web-db"
  engine             = "postgres"
  instance_class     = "db.m5.large"
  allocated_storage  = 100
  db_subnet_group_id = aws_db_subnet_group.db.id
  region             = "%s"
}
|}
             region region))

(* ------------------------------------------------------------------ *)
(* Microservices: shared network + per-service stamp                   *)
(* ------------------------------------------------------------------ *)

let microservices ?(region = "us-east-1") ?(services = 5)
    ?(instances_per_service = 3) () =
  buf_config (fun b ->
      add b
        (Printf.sprintf
           {|resource "aws_vpc" "mesh" {
  cidr_block = "10.8.0.0/16"
  region     = "%s"
}
|}
           region);
      for s = 0 to services - 1 do
        add b
          (Printf.sprintf
             {|
resource "aws_subnet" "svc%d" {
  vpc_id     = aws_vpc.mesh.id
  cidr_block = cidrsubnet(aws_vpc.mesh.cidr_block, 8, %d)
  region     = "%s"
}

resource "aws_security_group" "svc%d" {
  name   = "svc%d-sg"
  vpc_id = aws_vpc.mesh.id
  region = "%s"
}

resource "aws_instance" "svc%d" {
  count                  = %d
  ami                    = "ami-0svc%04d"
  instance_type          = "t3.small"
  subnet_id              = aws_subnet.svc%d.id
  vpc_security_group_ids = [aws_security_group.svc%d.id]
  region                 = "%s"
}

resource "aws_lb_target_group" "svc%d" {
  name     = "svc%d-tg"
  port     = %d
  protocol = "tcp"
  vpc_id   = aws_vpc.mesh.id
  region   = "%s"
}
|}
             s s region s s region s instances_per_service s s s region s s
             (8000 + s) region)
      done)

(* ------------------------------------------------------------------ *)
(* Data pipeline: buckets -> lambdas -> table, with IAM                *)
(* ------------------------------------------------------------------ *)

let data_pipeline ?(region = "us-east-1") ?(stages = 3) () =
  buf_config (fun b ->
      add b
        (Printf.sprintf
           {|resource "aws_iam_role" "pipeline" {
  name               = "pipeline-role"
  assume_role_policy = "{\"Service\": \"lambda\"}"
  region             = "%s"
}

resource "aws_iam_policy" "pipeline" {
  name   = "pipeline-policy"
  policy = "{\"Action\": \"s3:*\"}"
  region = "%s"
}

resource "aws_iam_role_policy_attachment" "pipeline" {
  role_id   = aws_iam_role.pipeline.id
  policy_id = aws_iam_policy.pipeline.id
  region    = "%s"
}

resource "aws_dynamodb_table" "results" {
  name     = "pipeline-results"
  hash_key = "run_id"
  region   = "%s"
}
|}
           region region region region);
      for s = 0 to stages - 1 do
        add b
          (Printf.sprintf
             {|
resource "aws_s3_bucket" "stage%d" {
  bucket = "pipeline-stage-%d"
  region = "%s"
}

resource "aws_lambda_function" "stage%d" {
  function_name = "transform-%d"
  runtime       = "ocaml5.1"
  handler       = "main.handle"
  role_id       = aws_iam_role.pipeline.id
  memory_mb     = 256
  region        = "%s"
}
|}
             s s region s s region)
      done)

(* ------------------------------------------------------------------ *)
(* Multi-region enterprise: identical stamp per region + peering       *)
(* ------------------------------------------------------------------ *)

let multi_region ?(regions = [ "us-east-1"; "us-west-2"; "eu-west-1" ])
    ?(vms_per_region = 2) () =
  buf_config (fun b ->
      List.iteri
        (fun i region ->
          add b
            (Printf.sprintf
               {|
resource "aws_vpc" "r%d" {
  cidr_block = "10.%d.0.0/16"
  region     = "%s"
}

resource "aws_subnet" "r%d" {
  vpc_id     = aws_vpc.r%d.id
  cidr_block = cidrsubnet(aws_vpc.r%d.cidr_block, 8, 0)
  region     = "%s"
}

resource "aws_instance" "r%d" {
  count         = %d
  ami           = "ami-0multi%02d"
  instance_type = "t3.small"
  subnet_id     = aws_subnet.r%d.id
  region        = "%s"
}

resource "aws_vpn_gateway" "r%d" {
  vpc_id        = aws_vpc.r%d.id
  region        = "%s"
  capacity_mbps = 1000
}
|}
               i i region i i i region i vms_per_region i i region i i region))
        regions;
      (* full-mesh peering between consecutive regions *)
      List.iteri
        (fun i _ ->
          if i > 0 then
            add b
              (Printf.sprintf
                 {|
resource "aws_vpc_peering_connection" "p%d" {
  vpc_id      = aws_vpc.r%d.id
  peer_vpc_id = aws_vpc.r%d.id
  region      = "%s"
}
|}
                 i (i - 1) i (List.nth regions (i - 1))))
        regions)

(* ------------------------------------------------------------------ *)
(* Synthetic layered graph for scheduler experiments (E1)              *)
(* ------------------------------------------------------------------ *)

(** [layered ~width ~depth] builds [depth] layers of [width] resources;
    each node depends on its predecessor in the same lane, and lane 0
    uses slow resource types so the graph has a pronounced critical
    path.  Lane k>0 nodes are fast. *)
let layered ?(region = "us-east-1") ~width ~depth () =
  let type_for lane layer =
    if lane = 0 then
      (* the slow lane: alternate genuinely slow types *)
      match layer mod 3 with
      | 0 -> ("aws_nat_gateway", "subnet_id")
      | 1 -> ("aws_instance", "subnet_id")
      | _ -> ("aws_lb", "subnet_ids")
    else
      match (lane + layer) mod 3 with
      | 0 -> ("aws_security_group", "vpc_id")
      | 1 -> ("aws_route_table", "vpc_id")
      | _ -> ("aws_eip", "vpc")
  in
  ignore type_for;
  buf_config (fun b ->
      add b
        (Printf.sprintf
           {|resource "aws_vpc" "root" {
  cidr_block = "10.0.0.0/16"
  region     = "%s"
}
|}
           region);
      for lane = 0 to width - 1 do
        for layer = 0 to depth - 1 do
          let rtype =
            if lane = 0 then
              match layer mod 2 with
              | 0 -> "aws_instance"
              | _ -> "aws_lb"
            else
              match (lane + layer) mod 3 with
              | 0 -> "aws_security_group"
              | 1 -> "aws_route_table"
              | _ -> "aws_subnet"
          in
          let name = Printf.sprintf "n_%d_%d" lane layer in
          let dep =
            if layer = 0 then "aws_vpc.root.id"
            else
              let prev_type =
                if lane = 0 then
                  match (layer - 1) mod 2 with
                  | 0 -> "aws_instance"
                  | _ -> "aws_lb"
                else
                  match (lane + layer - 1) mod 3 with
                  | 0 -> "aws_security_group"
                  | 1 -> "aws_route_table"
                  | _ -> "aws_subnet"
              in
              Printf.sprintf "%s.n_%d_%d.id" prev_type lane (layer - 1)
          in
          let extra_attrs =
            match rtype with
            | "aws_lb" ->
                Printf.sprintf "  name = \"lb-%d-%d\"\n" lane layer
            | "aws_instance" ->
                "  ami           = \"ami-0layer\"\n\
                \  instance_type = \"t3.small\"\n"
            | "aws_subnet" ->
                Printf.sprintf
                  "  vpc_id     = aws_vpc.root.id\n\
                  \  cidr_block = cidrsubnet(\"10.0.0.0/16\", 8, %d)\n"
                  (((lane * depth) + layer) mod 250)
            | "aws_security_group" | "aws_route_table" ->
                "  vpc_id = aws_vpc.root.id\n"
            | _ -> ""
          in
          add b
            (Printf.sprintf
               {|
resource "%s" "%s" {
%s  region     = "%s"
  depends_on = [%s]
}
|}
               rtype name extra_attrs region
               (String.concat "."
                  (match String.split_on_char '.' dep with
                  | [ t; n; _ ] -> [ t; n ]
                  | _ -> [ "aws_vpc"; "root" ])))
        done
      done)

(* ------------------------------------------------------------------ *)
(* Scale fleet: exact-n topologies for scheduler benchmarks (E11)      *)
(* ------------------------------------------------------------------ *)

(** [fleet ~resources] builds a service fleet whose expanded instance
    count is exactly [resources]: one VPC, then service groups of
    subnet + security group + target group + [instances_per_group]
    instances (all three plumbing resources hang off the VPC, the
    instances off their group's subnet and security group), padded with
    standalone EIPs to hit the exact count.  The frontier after the VPC
    is three nodes per group wide, so 1k/5k/10k fleets stress the
    executor's ready set, not just the simulated cloud.  Subnet CIDRs
    are computed here (disjoint /26 blocks inside a 10.0.0.0/8 VPC —
    2^18 of them, enough for multi-million-resource fleets) to stay
    valid at any realistic group count.  [instance_type] parameterizes the
    instance fleet so callers can generate update waves (same topology,
    different type) without editing the source text. *)
let fleet ?(region = "us-east-1") ?(instances_per_group = 6)
    ?(instance_type = "t3.small") ~resources () =
  if resources < 1 then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
      ~code:"invalid-argument" "Workload.fleet: resources < 1 (got %d)" resources;
  let group_size = 3 + instances_per_group in
  let groups = (resources - 1) / group_size in
  let pad = resources - 1 - (groups * group_size) in
  buf_config (fun b ->
      add b
        (Printf.sprintf
           {|resource "aws_vpc" "fleet" {
  cidr_block = "10.0.0.0/8"
  region     = "%s"
}
|}
           region);
      for g = 0 to groups - 1 do
        add b
          (Printf.sprintf
             {|
resource "aws_subnet" "g%d" {
  vpc_id     = aws_vpc.fleet.id
  cidr_block = "10.%d.%d.%d/26"
  region     = "%s"
}

resource "aws_security_group" "g%d" {
  name   = "g%d-sg"
  vpc_id = aws_vpc.fleet.id
  region = "%s"
}

resource "aws_lb_target_group" "g%d" {
  name     = "g%d-tg"
  port     = %d
  protocol = "tcp"
  vpc_id   = aws_vpc.fleet.id
  region   = "%s"
}

resource "aws_instance" "g%d" {
  count                  = %d
  ami                    = "ami-0fleet"
  instance_type          = "%s"
  subnet_id              = aws_subnet.g%d.id
  vpc_security_group_ids = [aws_security_group.g%d.id]
  region                 = "%s"
}
|}
             g (g / 1024) (g / 4 mod 256) (g mod 4 * 64) region g g region g g
             (8000 + (g mod 1000))
             region g instances_per_group instance_type g g region)
      done;
      if pad > 0 then
        add b
          (Printf.sprintf
             {|
resource "aws_eip" "pad" {
  count      = %d
  region     = "%s"
  depends_on = [aws_vpc.fleet]
}
|}
             pad region))

(** [chain ~resources] is the adversarial opposite of {!fleet}: one
    maximally deep dependency chain of EIPs, each [depends_on] its
    predecessor, so graph depth equals [resources].  Exercises the
    per-round cost of topological sorting and leveling where {!fleet}
    exercises width. *)
let chain ?(region = "us-east-1") ~resources () =
  if resources < 1 then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
      ~code:"invalid-argument" "Workload.chain: resources < 1 (got %d)" resources;
  buf_config (fun b ->
      add b
        (Printf.sprintf {|resource "aws_eip" "link0" {
  region = "%s"
}
|}
           region);
      for i = 1 to resources - 1 do
        add b
          (Printf.sprintf
             {|
resource "aws_eip" "link%d" {
  region     = "%s"
  depends_on = [aws_eip.link%d]
}
|}
             i region (i - 1))
      done)

(* ------------------------------------------------------------------ *)
(* Instance-level fast paths (E16)                                     *)
(* ------------------------------------------------------------------ *)

(* Million-resource benchmarks can't afford to lex/parse/eval megabytes
   of generated HCL just to obtain the expansion the text denotes, and
   the text generators above rebuild identical attribute maps once per
   resource.  These fast paths emit the evaluator's [Eval.instance]
   records directly — the same addresses, attributes (shared
   structurally across a group's count-expanded copies), reference
   provenance ([Vunknown "addr.attr"]) and dependency lists the parsed
   path yields, minus source spans.  [test_raw_speed] asserts the
   fleet/chain fast paths match the parsed+evaluated text
   field-for-field at small sizes. *)

module Eval = Cloudless_hcl.Eval
module Config = Cloudless_hcl.Config
module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap
module Loc = Cloudless_hcl.Loc

let mk_instance ~rtype ~rname ?(key = Addr.Knone) ~attrs ~ref_deps
    ~explicit_deps () : Eval.instance =
  {
    Eval.addr = Addr.make ~rtype ~rname ~key ();
    provider = "aws";
    attrs;
    configured = List.map fst (Smap.bindings attrs);
    explicit_deps;
    ref_deps;
    lifecycle = Config.default_lifecycle;
    ispan = Loc.dummy;
    verified = None;
  }

(* [Vunknown "aws_vpc.fleet.id"]: how the evaluator records a reference
   to a not-yet-created resource's computed attribute *)
let unknown_attr rtype rname attr =
  Value.Vunknown (rtype ^ "." ^ rname ^ "." ^ attr)

(** {!fleet}, skipping the text round-trip: the same instances
    [expand (parse (fleet ~resources))] produces (modulo source
    spans).  [fleets] > 1 lays down that many disjoint copies (resource
    names prefixed [f<k>_], resources split evenly) — the
    weakly-connected-component shape the domain sharder wants. *)
let fleet_instances ?(region = "us-east-1") ?(instances_per_group = 6)
    ?(instance_type = "t3.small") ?(fleets = 1) ~resources () :
    Eval.instance list =
  if resources < 1 then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
      ~code:"invalid-argument"
      "Workload.fleet_instances: resources < 1 (got %d)" resources;
  if fleets < 1 || fleets > resources then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
      ~code:"invalid-argument"
      "Workload.fleet_instances: fleets out of range (got %d for %d \
       resources)"
      fleets resources;
  let vregion = Value.Vstring region in
  let acc = ref [] in
  let emit i = acc := i :: !acc in
  for k = 0 to fleets - 1 do
    let name s = if fleets = 1 then s else Printf.sprintf "f%d_%s" k s in
    (* split [resources] across fleets, remainder to the first *)
    let per = (resources / fleets) + (if k < resources mod fleets then 1 else 0) in
    let vpc_name = name "fleet" in
    let vpc_dep = Addr.make ~rtype:"aws_vpc" ~rname:vpc_name () in
    let vpc_id = unknown_attr "aws_vpc" vpc_name "id" in
    emit
      (mk_instance ~rtype:"aws_vpc" ~rname:vpc_name
         ~attrs:
           (Smap.add "cidr_block" (Value.Vstring "10.0.0.0/8")
              (Smap.singleton "region" vregion))
         ~ref_deps:[] ~explicit_deps:[] ());
    let group_size = 3 + instances_per_group in
    let groups = (per - 1) / group_size in
    let pad = per - 1 - (groups * group_size) in
    for g = 0 to groups - 1 do
      let gname = name (Printf.sprintf "g%d" g) in
      let subnet_dep = Addr.make ~rtype:"aws_subnet" ~rname:gname () in
      let sg_dep = Addr.make ~rtype:"aws_security_group" ~rname:gname () in
      emit
        (mk_instance ~rtype:"aws_subnet" ~rname:gname
           ~attrs:
             (Smap.add "vpc_id" vpc_id
                (Smap.add "cidr_block"
                   (Value.Vstring
                      (Printf.sprintf "10.%d.%d.%d/26" (g / 1024)
                         (g / 4 mod 256) (g mod 4 * 64)))
                   (Smap.singleton "region" vregion)))
           ~ref_deps:[ vpc_dep ] ~explicit_deps:[] ());
      emit
        (mk_instance ~rtype:"aws_security_group" ~rname:gname
           ~attrs:
             (Smap.add "name"
                (Value.Vstring (gname ^ "-sg"))
                (Smap.add "vpc_id" vpc_id (Smap.singleton "region" vregion)))
           ~ref_deps:[ vpc_dep ] ~explicit_deps:[] ());
      emit
        (mk_instance ~rtype:"aws_lb_target_group" ~rname:gname
           ~attrs:
             (Smap.add "name"
                (Value.Vstring (gname ^ "-tg"))
                (Smap.add "port"
                   (Value.Vint (8000 + (g mod 1000)))
                   (Smap.add "protocol" (Value.Vstring "tcp")
                      (Smap.add "vpc_id" vpc_id
                         (Smap.singleton "region" vregion)))))
           ~ref_deps:[ vpc_dep ] ~explicit_deps:[] ());
      (* the count-expanded copies share one attrs map and one deps
         list — the pre-sizing the satellite task asks for: no
         per-resource map rebuild *)
      let inst_attrs =
        Smap.add "ami" (Value.Vstring "ami-0fleet")
          (Smap.add "instance_type" (Value.Vstring instance_type)
             (Smap.add "subnet_id"
                (unknown_attr "aws_subnet" gname "id")
                (Smap.add "vpc_security_group_ids"
                   (Value.Vlist [ unknown_attr "aws_security_group" gname "id" ])
                   (Smap.singleton "region" vregion))))
      in
      let inst_refs = [ subnet_dep; sg_dep ] in
      for i = 0 to instances_per_group - 1 do
        emit
          (mk_instance ~rtype:"aws_instance" ~rname:gname ~key:(Addr.Kint i)
             ~attrs:inst_attrs ~ref_deps:inst_refs ~explicit_deps:[] ())
      done
    done;
    if pad > 0 then begin
      let pad_name = name "pad" in
      let pad_attrs = Smap.singleton "region" vregion in
      for i = 0 to pad - 1 do
        emit
          (mk_instance ~rtype:"aws_eip" ~rname:pad_name ~key:(Addr.Kint i)
             ~attrs:pad_attrs ~ref_deps:[ vpc_dep ] ~explicit_deps:[ vpc_dep ]
             ())
      done
    end
  done;
  List.rev !acc

(** {!chain}, skipping the text round-trip: one maximally deep
    [depends_on] chain of EIPs. *)
let chain_instances ?(region = "us-east-1") ~resources () :
    Eval.instance list =
  if resources < 1 then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
      ~code:"invalid-argument"
      "Workload.chain_instances: resources < 1 (got %d)" resources;
  let attrs = Smap.singleton "region" (Value.Vstring region) in
  let acc = ref [] in
  for i = resources - 1 downto 0 do
    let deps =
      if i = 0 then []
      else
        [ Addr.make ~rtype:"aws_eip" ~rname:(Printf.sprintf "link%d" (i - 1)) () ]
    in
    acc :=
      mk_instance ~rtype:"aws_eip"
        ~rname:(Printf.sprintf "link%d" i)
        ~attrs ~ref_deps:deps ~explicit_deps:deps ()
      :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Misconfiguration injection (E6)                                     *)
(* ------------------------------------------------------------------ *)

type misconfig =
  | M_region_mismatch  (** VM and NIC in different regions *)
  | M_bad_cidr  (** syntactically invalid CIDR literal *)
  | M_unknown_region  (** region that doesn't exist *)
  | M_wrong_type_ref  (** reference to the wrong resource type *)
  | M_missing_required  (** required attribute omitted *)
  | M_port_inversion  (** from_port > to_port *)
  | M_password_no_flag  (** admin_password without disable_password *)
  | M_overlapping_peering  (** peered networks with overlapping space *)
  | M_undeclared_ref  (** reference to a resource that doesn't exist *)
  | M_subnet_outside_vpc  (** subnet prefix outside parent network *)

let all_misconfigs =
  [
    M_region_mismatch;
    M_bad_cidr;
    M_unknown_region;
    M_wrong_type_ref;
    M_missing_required;
    M_port_inversion;
    M_password_no_flag;
    M_overlapping_peering;
    M_undeclared_ref;
    M_subnet_outside_vpc;
  ]

let misconfig_name = function
  | M_region_mismatch -> "region-mismatch"
  | M_bad_cidr -> "bad-cidr"
  | M_unknown_region -> "unknown-region"
  | M_wrong_type_ref -> "wrong-type-ref"
  | M_missing_required -> "missing-required"
  | M_port_inversion -> "port-inversion"
  | M_password_no_flag -> "password-no-flag"
  | M_overlapping_peering -> "overlapping-peering"
  | M_undeclared_ref -> "undeclared-ref"
  | M_subnet_outside_vpc -> "subnet-outside-vpc"

(** A small, correct base program each misconfiguration is injected
    into.  Returns (source, injected misconfig kind). *)
let misconfigured ?(region = "us-east-1") (m : misconfig) : string =
  let base nic_region vm_extra subnet_cidr sg_rule peering password =
    Printf.sprintf
      {|resource "aws_vpc" "a" {
  cidr_block = "10.0.0.0/16"
  region     = "%s"
}
resource "aws_vpc" "b" {
  cidr_block = "%s"
  region     = "%s"
}
resource "aws_subnet" "s" {
  vpc_id     = aws_vpc.a.id
  cidr_block = "%s"
  region     = "%s"
}
resource "aws_network_interface" "nic" {
  name      = "nic-1"
  subnet_id = aws_subnet.s.id
  region    = "%s"
}
resource "aws_virtual_machine" "vm" {
  name    = "vm-1"
  nic_ids = [%s]
  region  = "%s"
%s}
%s%s%s|}
      region
      (if peering then "10.0.128.0/17" else "10.1.0.0/16")
      region subnet_cidr region nic_region
      (match m with
      | M_wrong_type_ref -> "aws_subnet.s.id"
      | M_undeclared_ref -> "aws_network_interface.ghost.id"
      | _ -> "aws_network_interface.nic.id")
      region vm_extra sg_rule
      (if peering then
         {|resource "aws_vpc_peering_connection" "p" {
  vpc_id      = aws_vpc.a.id
  peer_vpc_id = aws_vpc.b.id
  region      = "us-east-1"
}
|}
       else "")
      password
  in
  match m with
  | M_region_mismatch ->
      base "us-west-2" "" "10.0.1.0/24" "" false ""
  | M_bad_cidr -> base region "" "10.0.1.0/33" "" false ""
  | M_unknown_region ->
      base region "" "10.0.1.0/24"
        {|resource "aws_eip" "ip" {
  region = "mars-central-1"
}
|}
        false ""
  | M_wrong_type_ref -> base region "" "10.0.1.0/24" "" false ""
  | M_missing_required ->
      (* security group rule without protocol/ports *)
      base region "" "10.0.1.0/24"
        {|resource "aws_security_group_rule" "r" {
  security_group_id = aws_vpc.a.id
  type              = "ingress"
}
|}
        false ""
  | M_port_inversion ->
      base region "" "10.0.1.0/24"
        {|resource "aws_security_group" "sg" {
  name   = "sg"
  vpc_id = aws_vpc.a.id
  region = "us-east-1"
}
resource "aws_security_group_rule" "r" {
  security_group_id = aws_security_group.sg.id
  type              = "ingress"
  from_port         = 8080
  to_port           = 80
  protocol          = "tcp"
  region            = "us-east-1"
}
|}
        false ""
  | M_password_no_flag ->
      base region "" "10.0.1.0/24"
        {|resource "azurerm_linux_virtual_machine" "azvm" {
  name           = "azvm"
  location       = "eastus"
  size           = "Standard_B2s"
  nic_ids        = []
  admin_password = "hunter2"
}
|}
        false ""
  | M_overlapping_peering -> base region "" "10.0.1.0/24" "" true ""
  | M_undeclared_ref -> base region "" "10.0.1.0/24" "" false ""
  | M_subnet_outside_vpc -> base region "" "192.168.1.0/24" "" false ""

(** The full E6 corpus: one program per misconfiguration class plus a
    correct control program. *)
let misconfig_corpus ?(region = "us-east-1") () :
    (string * string * bool) list =
  ("control", web_tier ~region (), false)
  :: List.map
       (fun m -> (misconfig_name m, misconfigured ~region m, true))
       all_misconfigs

(* ------------------------------------------------------------------ *)
(* Multi-cloud: one workload spanning all three provider flavours      *)
(* ------------------------------------------------------------------ *)

(** The §2.1 selling point of IaC frameworks — "all of which work
    across cloud providers" — in one program: compute on AWS, a VM on
    Azure, storage and DNS on GCP. *)
let multi_cloud () =
  {|resource "aws_vpc" "main" {
  cidr_block = "10.0.0.0/16"
  region     = "us-east-1"
}

resource "aws_subnet" "app" {
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 0)
  region     = "us-east-1"
}

resource "aws_instance" "app" {
  count         = 2
  ami           = "ami-multicloud"
  instance_type = "t3.small"
  subnet_id     = aws_subnet.app.id
  region        = "us-east-1"
}

resource "azurerm_resource_group" "dr" {
  name     = "dr-group"
  location = "westeurope"
}

resource "azurerm_virtual_network" "dr" {
  name              = "dr-net"
  location          = "westeurope"
  resource_group_id = azurerm_resource_group.dr.id
  address_space     = ["10.64.0.0/16"]
}

resource "azurerm_network_interface" "dr" {
  name     = "dr-nic"
  location = "westeurope"
}

resource "azurerm_linux_virtual_machine" "dr" {
  name     = "dr-standby"
  location = "westeurope"
  size     = "Standard_B2s"
  nic_ids  = [azurerm_network_interface.dr.id]
}

resource "google_storage_bucket" "artifacts" {
  name     = "multicloud-artifacts"
  location = "us-central1"
}

resource "google_dns_managed_zone" "zone" {
  name     = "app-zone"
  dns_name = "app.example."
  region   = "us-central1"
}
|}
