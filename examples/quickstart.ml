(* Quickstart (reproduces Figure 2 of the paper).

   Parses the paper's example IaC program, validates it, deploys it to
   the simulated cloud, and prints the plan, the apply timeline and the
   resulting state.

     dune exec examples/quickstart.exe *)

module Lifecycle = Cloudless.Lifecycle
module State = Cloudless_state.State
module Cloud = Cloudless_sim.Cloud
module Executor = Cloudless_deploy.Executor

(* The exact program from Figure 2. *)
let figure2 =
  {|/* Simplified Terraform code snippet */

data "aws_region" "current" {}

variable "vmName" {
  type    = string
  default = "cloudless"
}

resource "aws_network_interface" "n1" {
  name     = "example-nic"
  location = data.aws_region.current.name
}

resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]
}
|}

let () =
  print_endline "=== Cloudless quickstart: the paper's Figure 2 program ===\n";
  print_endline figure2;

  let t = Lifecycle.create () in

  (* 1. validate *)
  let report = Lifecycle.validate t figure2 in
  Printf.printf "validate: %s\n"
    (if Cloudless_validate.Validate.ok report then "OK (all four stages pass)"
     else "FAILED");

  (* 2. plan *)
  (match Lifecycle.develop t figure2 with
  | Ok _ -> ()
  | Error e -> failwith (Lifecycle.error_to_string e));
  (match Lifecycle.plan t with
  | Ok plan ->
      print_endline "\nplan:";
      print_string (Cloudless_plan.Plan.to_string plan)
  | Error e -> failwith (Lifecycle.error_to_string e));

  (* 3. apply *)
  (match Lifecycle.apply t with
  | Ok report ->
      Printf.printf "\napply: %d resources created in %.1f simulated seconds\n"
        (List.length report.Executor.applied)
        report.Executor.makespan
  | Error e -> failwith (Lifecycle.error_to_string e));

  (* 4. inspect state *)
  print_endline "\nstate:";
  List.iter
    (fun (r : State.resource_state) ->
      Printf.printf "  %-32s -> %s in %s\n"
        (Cloudless_hcl.Addr.to_string r.State.addr)
        r.State.cloud_id r.State.region)
    (State.resources (Lifecycle.state t));

  (* 5. idempotence: a second plan is empty *)
  match Lifecycle.plan t with
  | Ok plan ->
      Printf.printf "\nre-plan: %s\n"
        (if Cloudless_plan.Plan.is_empty plan then
           "no changes (infrastructure matches the program)"
         else "unexpected changes!")
  | Error e -> failwith (Lifecycle.error_to_string e)
