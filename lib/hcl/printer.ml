(** Pretty-printer: AST back to HCL source text.

    Used by the importer/refactoring optimizer of §3.1 (which emits IaC
    programs from cloud state) and by drift reconciliation (§3.5, which
    regenerates programs to match live deployments).  The printer aims
    for idiomatic, human-maintainable output: two-space indentation,
    one attribute per line, blank lines between top-level blocks. *)

open Ast

let binop_text = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let rec expr_to_buf buf prec e =
  match e.desc with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (Value.float_to_string f)
  | Template parts -> template_to_buf buf parts
  | Var name -> Buffer.add_string buf name
  | GetAttr (e, a) ->
      expr_to_buf buf 10 e;
      Buffer.add_char buf '.';
      Buffer.add_string buf a
  | Index (e, i) ->
      expr_to_buf buf 10 e;
      Buffer.add_char buf '[';
      expr_to_buf buf 0 i;
      Buffer.add_char buf ']'
  | Splat (e, a) ->
      expr_to_buf buf 10 e;
      Buffer.add_string buf "[*].";
      Buffer.add_string buf a
  | ListLit es ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_string buf ", ";
          expr_to_buf buf 0 e)
        es;
      Buffer.add_char buf ']'
  | ObjectLit kvs ->
      Buffer.add_string buf "{ ";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          (match k with
          | Kident k ->
              if Codec.ident_like k then Buffer.add_string buf k
              else Codec.add_string buf k
          | Kexpr e -> (
              match e.desc with
              | Template _ -> expr_to_buf buf 0 e
              | _ ->
                  Buffer.add_char buf '(';
                  expr_to_buf buf 0 e;
                  Buffer.add_char buf ')'));
          Buffer.add_string buf " = ";
          expr_to_buf buf 0 v)
        kvs;
      Buffer.add_string buf " }"
  | Call (name, args, expand) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '(';
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_string buf ", ";
          expr_to_buf buf 0 a)
        args;
      if expand then Buffer.add_string buf "...";
      Buffer.add_char buf ')'
  | Unop (Neg, e) ->
      Buffer.add_char buf '-';
      expr_to_buf buf 9 e
  | Unop (Not, e) ->
      Buffer.add_char buf '!';
      expr_to_buf buf 9 e
  | Binop (op, a, b) ->
      let p = binop_prec op in
      let need_parens = p < prec in
      if need_parens then Buffer.add_char buf '(';
      expr_to_buf buf p a;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (binop_text op);
      Buffer.add_char buf ' ';
      expr_to_buf buf (p + 1) b;
      if need_parens then Buffer.add_char buf ')'
  | Cond (c, a, b) ->
      if prec > 0 then Buffer.add_char buf '(';
      expr_to_buf buf 1 c;
      Buffer.add_string buf " ? ";
      expr_to_buf buf 1 a;
      Buffer.add_string buf " : ";
      expr_to_buf buf 1 b;
      if prec > 0 then Buffer.add_char buf ')'
  | ForList fc ->
      Buffer.add_string buf "[for ";
      for_head_to_buf buf fc;
      expr_to_buf buf 0 fc.body;
      for_cond_to_buf buf fc;
      Buffer.add_char buf ']'
  | ForMap (fc, v) ->
      Buffer.add_string buf "{for ";
      for_head_to_buf buf fc;
      expr_to_buf buf 0 fc.body;
      Buffer.add_string buf " => ";
      expr_to_buf buf 0 v;
      for_cond_to_buf buf fc;
      Buffer.add_char buf '}'
  | Paren e ->
      Buffer.add_char buf '(';
      expr_to_buf buf 0 e;
      Buffer.add_char buf ')'

and for_head_to_buf buf fc =
  (match fc.key_var with
  | Some k ->
      Buffer.add_string buf k;
      Buffer.add_string buf ", "
  | None -> ());
  Buffer.add_string buf fc.val_var;
  Buffer.add_string buf " in ";
  expr_to_buf buf 0 fc.coll;
  Buffer.add_string buf " : "

and for_cond_to_buf buf fc =
  match fc.cond with
  | Some c ->
      Buffer.add_string buf " if ";
      expr_to_buf buf 0 c
  | None -> ()

and template_to_buf buf parts =
  Buffer.add_char buf '"';
  List.iter
    (function
      | Lit s -> Codec.add_string_body buf s
      | Interp e ->
          Buffer.add_string buf "${";
          expr_to_buf buf 0 e;
          Buffer.add_char buf '}')
    parts;
  Buffer.add_char buf '"'

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_to_buf buf 0 e;
  Buffer.contents buf

let indent buf depth =
  for _ = 1 to depth do
    Buffer.add_string buf "  "
  done

let rec block_to_buf buf depth b =
  indent buf depth;
  Buffer.add_string buf b.btype;
  List.iter
    (fun label ->
      Buffer.add_char buf ' ';
      Codec.add_string buf label)
    b.labels;
  Buffer.add_string buf " {\n";
  body_to_buf buf (depth + 1) b.bbody;
  indent buf depth;
  Buffer.add_string buf "}\n"

and body_to_buf buf depth body =
  (* Align '=' within a run of attributes, terraform-fmt style. *)
  let width =
    List.fold_left (fun acc a -> max acc (String.length a.aname)) 0 body.attrs
  in
  List.iter
    (fun a ->
      indent buf depth;
      Buffer.add_string buf a.aname;
      for _ = String.length a.aname to width - 1 do
        Buffer.add_char buf ' '
      done;
      Buffer.add_string buf " = ";
      expr_to_buf buf 0 a.avalue;
      Buffer.add_char buf '\n')
    body.attrs;
  List.iteri
    (fun i b ->
      if i > 0 || body.attrs <> [] then Buffer.add_char buf '\n';
      block_to_buf buf depth b)
    body.blocks

(** Render a full configuration (top-level body). *)
let config_to_string (body : Ast.body) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun a ->
      Buffer.add_string buf a.aname;
      Buffer.add_string buf " = ";
      expr_to_buf buf 0 a.avalue;
      Buffer.add_char buf '\n')
    body.attrs;
  List.iteri
    (fun i b ->
      if i > 0 || body.attrs <> [] then Buffer.add_char buf '\n';
      block_to_buf buf 0 b)
    body.blocks;
  Buffer.contents buf
