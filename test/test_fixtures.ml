(* Shared test fixtures. *)

(* The exact IaC program from Figure 2 of the paper. *)
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

(* [contains_substring ~sub s] - plain substring search for assertions on
   error messages. *)
let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* [replace_substring s ~sub ~by] - replace all occurrences.  Raises
   [Invalid_argument] when [sub] never occurs, so an edit that matches
   nothing cannot pass as a test of an empty plan. *)
let replace_substring s ~sub ~by =
  let slen = String.length sub in
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - slen then
      Buffer.add_string buf (String.sub s i (String.length s - i))
    else if String.sub s i slen = sub then begin
      Buffer.add_string buf by;
      go (i + slen)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  if slen = 0 then s
  else if not (contains_substring ~sub s) then
    invalid_arg (Printf.sprintf "replace_substring: %S does not occur" sub)
  else begin
    go 0;
    Buffer.contents buf
  end
