(** Source locations for HCL programs.

    Every token, expression and block carries a {!span} so that later
    stages (validation diagnostics, the IaC debugger of §3.5) can point
    back at the exact line/column of the construct responsible for a
    cloud-level error. *)

type pos = {
  line : int;  (** 1-based line number *)
  col : int;  (** 1-based column number *)
  offset : int;  (** 0-based byte offset in the source *)
}

type span = { file : string; start_pos : pos; end_pos : pos }

let dummy_pos = { line = 0; col = 0; offset = 0 }
let dummy = { file = "<none>"; start_pos = dummy_pos; end_pos = dummy_pos }

let make ~file ~start_pos ~end_pos = { file; start_pos; end_pos }

(* The union of two spans: from the earlier start to the later end.  Used
   when an expression node is assembled from sub-expressions. *)
let merge a b =
  let start_pos =
    if a.start_pos.offset <= b.start_pos.offset then a.start_pos
    else b.start_pos
  in
  let end_pos =
    if a.end_pos.offset >= b.end_pos.offset then a.end_pos else b.end_pos
  in
  { file = a.file; start_pos; end_pos }

let is_dummy s = s.start_pos.line = 0

let pp ppf s =
  if is_dummy s then Fmt.string ppf "<unknown>"
  else if s.start_pos.line = s.end_pos.line then
    Fmt.pf ppf "%s:%d:%d-%d" s.file s.start_pos.line s.start_pos.col
      s.end_pos.col
  else
    Fmt.pf ppf "%s:%d:%d-%d:%d" s.file s.start_pos.line s.start_pos.col
      s.end_pos.line s.end_pos.col

let to_string s = Fmt.str "%a" pp s

let line s = s.start_pos.line
