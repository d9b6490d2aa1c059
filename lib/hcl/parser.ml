(** Recursive-descent parser for the HCL subset.

    Grammar summary (after the lexer):

    {v
    config    ::= (NEWLINE | block)* EOF
    block     ::= IDENT (IDENT | STRING)* '{' body '}'
    body      ::= (NEWLINE | attribute | block)*
    attribute ::= IDENT '=' expr NEWLINE
    expr      ::= ternary
    ternary   ::= or ('?' expr ':' expr)?
    or        ::= and ('||' and)*
    and       ::= equality ('&&' equality)*
    equality  ::= compare (('=='|'!=') compare)*
    compare   ::= additive (('<'|'>'|'<='|'>=') additive)*
    additive  ::= multiplicative (('+'|'-') multiplicative)*
    mult      ::= unary (('*'|'/'|'%') unary)*
    unary     ::= ('-'|'!') unary | postfix
    postfix   ::= primary ('.' IDENT | '[' expr ']' | '[' '*' ']' '.' IDENT)*
    primary   ::= literal | ident | call | '(' expr ')' | list | object | for
    v}

    Errors are [syntax/parse-error] diagnostics on the typed channel
    ({!Cloudless_error.Error}). *)

(* One token of lookahead over a token source: the lexer, pulled a
   token at a time, or an interpolation's token list. *)
type state = {
  next : unit -> Token.spanned;
  mutable cur : Token.spanned;
  mutable last : Loc.span;
}

let make next = { next; cur = next (); last = Loc.dummy }

(* A parser over a token list ending in [EOF], as every interpolation's
   list does; the [EOF] repeats once reached. *)
let of_tokens toks =
  let rest = ref toks in
  make (fun () ->
      match !rest with
      | [] -> { Token.tok = Token.EOF; span = Loc.dummy }
      | [ t ] -> t
      | t :: r ->
          rest := r;
          t)

let[@inline] peek st = st.cur.Token.tok
let[@inline] peek_span st = st.cur.Token.span

let advance st =
  st.last <- st.cur.Token.span;
  st.cur <- st.next ()

let error_at span msg =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Syntax
    ~code:"parse-error" ~span "%s" msg

let error st msg = error_at (peek_span st) msg

(* [tok] is always a constant constructor, so physical equality is
   token equality. *)
let expect st tok =
  if peek st == tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Token.describe tok)
         (Token.describe (peek st)))

let rec skip_newlines st =
  match peek st with
  | Token.NEWLINE ->
      advance st;
      skip_newlines st
  | _ -> ()

(* Newlines are insignificant inside (), [] and {object} contexts; the
   expression parser calls this between sub-terms where HCL allows a
   line break. *)
let skip_newlines_in_expr = skip_newlines

(* The binary operator a token spells, if any: the [or] .. [mult]
   rules of the grammar above, levels given by {!Ast.binop_prec}. *)
let binop = function
  | Token.OR -> Some Ast.Or
  | Token.AND -> Some Ast.And
  | Token.EQ -> Some Ast.Eq
  | Token.NEQ -> Some Ast.Neq
  | Token.LT -> Some Ast.Lt
  | Token.GT -> Some Ast.Gt
  | Token.LE -> Some Ast.Le
  | Token.GE -> Some Ast.Ge
  | Token.PLUS -> Some Ast.Add
  | Token.MINUS -> Some Ast.Sub
  | Token.STAR -> Some Ast.Mul
  | Token.SLASH -> Some Ast.Div
  | Token.PERCENT -> Some Ast.Mod
  | _ -> None

let rec parse_expr st : Ast.expr = parse_ternary st

and parse_ternary st =
  let c = parse_binary st 1 in
  match peek st with
  | Token.QUESTION ->
      advance st;
      skip_newlines_in_expr st;
      let a = parse_expr st in
      skip_newlines_in_expr st;
      expect st Token.COLON;
      skip_newlines_in_expr st;
      let b = parse_expr st in
      { Ast.desc = Ast.Cond (c, a, b); espan = Loc.merge c.espan b.espan }
  | _ -> c

(* Precedence climbing: operands joined by operators binding at least
   as tightly as [min_prec]. *)
and parse_binary st min_prec = binary_tail st min_prec (parse_unary st)

and binary_tail st min_prec left =
  match binop (peek st) with
  | Some op when Ast.binop_prec op >= min_prec ->
      advance st;
      skip_newlines_in_expr st;
      let right = parse_binary st (Ast.binop_prec op + 1) in
      binary_tail st min_prec
        {
          Ast.desc = Ast.Binop (op, left, right);
          espan = Loc.merge left.Ast.espan right.Ast.espan;
        }
  | _ -> left

and parse_unary st =
  let span = peek_span st in
  match peek st with
  | Token.MINUS ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Unop (Ast.Neg, e); espan = Loc.merge span e.espan }
  | Token.NOT ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Unop (Ast.Not, e); espan = Loc.merge span e.espan }
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let rec loop () =
    match peek st with
    | Token.DOT ->
        advance st;
        (match peek st with
        | Token.IDENT name ->
            advance st;
            e :=
              {
                Ast.desc = Ast.GetAttr (!e, name);
                espan = Loc.merge !e.Ast.espan st.last;
              };
            loop ()
        | Token.INT n ->
            (* list element access written with dot syntax, e.g. a.0 *)
            advance st;
            let idx = { Ast.desc = Ast.Int n; espan = st.last } in
            e :=
              {
                Ast.desc = Ast.Index (!e, idx);
                espan = Loc.merge !e.Ast.espan st.last;
              };
            loop ()
        | Token.STAR ->
            advance st;
            expect st Token.DOT;
            (match peek st with
            | Token.IDENT name ->
                advance st;
                e :=
                  {
                    Ast.desc = Ast.Splat (!e, name);
                    espan = Loc.merge !e.Ast.espan st.last;
                  };
                loop ()
            | _ -> error st "expected attribute name after '.*.'")
        | _ -> error st "expected attribute name after '.'")
    | Token.LBRACKET -> (
        advance st;
        skip_newlines_in_expr st;
        match peek st with
        | Token.STAR ->
            advance st;
            expect st Token.RBRACKET;
            expect st Token.DOT;
            (match peek st with
            | Token.IDENT name ->
                advance st;
                e :=
                  {
                    Ast.desc = Ast.Splat (!e, name);
                    espan = Loc.merge !e.Ast.espan st.last;
                  };
                loop ()
            | _ -> error st "expected attribute name after '[*].'")
        | _ ->
            let idx = parse_expr st in
            skip_newlines_in_expr st;
            expect st Token.RBRACKET;
            e :=
              {
                Ast.desc = Ast.Index (!e, idx);
                espan = Loc.merge !e.Ast.espan st.last;
              };
            loop ())
    | _ -> ()
  in
  loop ();
  !e

and parse_primary st =
  let span = peek_span st in
  match peek st with
  | Token.INT n ->
      advance st;
      { Ast.desc = Ast.Int n; espan = span }
  | Token.FLOAT f ->
      advance st;
      { Ast.desc = Ast.Float f; espan = span }
  | Token.QUOTED parts | Token.HEREDOC parts ->
      advance st;
      { Ast.desc = Ast.Template (parse_parts ~span parts); espan = span }
  | Token.IDENT "true" ->
      advance st;
      { Ast.desc = Ast.Bool true; espan = span }
  | Token.IDENT "false" ->
      advance st;
      { Ast.desc = Ast.Bool false; espan = span }
  | Token.IDENT "null" ->
      advance st;
      { Ast.desc = Ast.Null; espan = span }
  | Token.IDENT name -> (
      advance st;
      match peek st with
      | Token.LPAREN ->
        advance st;
        skip_newlines_in_expr st;
        let args = ref [] in
        let expand = ref false in
        (match peek st with
         | Token.RPAREN -> ()
         | _ ->
           let rec args_loop () =
             let a = parse_expr st in
             args := a :: !args;
             skip_newlines_in_expr st;
             match peek st with
             | Token.COMMA ->
                 advance st;
                 skip_newlines_in_expr st;
                 (match peek st with Token.RPAREN -> () | _ -> args_loop ())
             | Token.ELLIPSIS ->
                 advance st;
                 expand := true;
                 skip_newlines_in_expr st
             | _ -> ()
           in
           args_loop ());
        expect st Token.RPAREN;
        {
          Ast.desc = Ast.Call (name, List.rev !args, !expand);
          espan = Loc.merge span st.last;
        }
      | _ -> { Ast.desc = Ast.Var name; espan = span })
  | Token.LPAREN ->
      advance st;
      skip_newlines_in_expr st;
      let e = parse_expr st in
      skip_newlines_in_expr st;
      expect st Token.RPAREN;
      { Ast.desc = Ast.Paren e; espan = Loc.merge span st.last }
  | Token.LBRACKET -> parse_list_or_for st span
  | Token.LBRACE -> parse_object_or_for st span
  | t -> error st (Printf.sprintf "unexpected %s in expression" (Token.describe t))

and parse_parts ~span parts =
  List.map
    (function
      | Token.Lit s -> Ast.Lit s
      | Token.Interp toks ->
          let sub = of_tokens toks in
          let e = parse_expr sub in
          skip_newlines sub;
          (match peek sub with
          | Token.EOF -> ()
          | t ->
              error_at span
                (Printf.sprintf "unexpected %s after interpolation"
                   (Token.describe t)));
          Ast.Interp e)
    parts

and parse_for_clause st =
  (* cursor is just past 'for' *)
  let first =
    match peek st with
    | Token.IDENT v ->
        advance st;
        v
    | _ -> error st "expected variable name after 'for'"
  in
  let key_var, val_var =
    match peek st with
    | Token.COMMA -> (
        advance st;
        match peek st with
        | Token.IDENT v ->
            advance st;
            (Some first, v)
        | _ -> error st "expected second variable name in for-expression")
    | _ -> (None, first)
  in
  (match peek st with
  | Token.IDENT "in" -> advance st
  | _ -> error st "expected 'in' in for-expression");
  skip_newlines_in_expr st;
  let coll = parse_expr st in
  skip_newlines_in_expr st;
  expect st Token.COLON;
  skip_newlines_in_expr st;
  (key_var, val_var, coll)

and parse_for_cond st =
  skip_newlines_in_expr st;
  match peek st with
  | Token.IDENT "if" ->
      advance st;
      skip_newlines_in_expr st;
      Some (parse_expr st)
  | _ -> None

and parse_list_or_for st span =
  advance st;
  skip_newlines_in_expr st;
  match peek st with
  | Token.IDENT "for" ->
      advance st;
      let key_var, val_var, coll = parse_for_clause st in
      let body = parse_expr st in
      let cond = parse_for_cond st in
      skip_newlines_in_expr st;
      expect st Token.RBRACKET;
      {
        Ast.desc = Ast.ForList { key_var; val_var; coll; body; cond };
        espan = Loc.merge span st.last;
      }
  | _ ->
      let items = ref [] in
      let rec loop () =
        skip_newlines_in_expr st;
        match peek st with
        | Token.RBRACKET -> ()
        | _ -> (
            let e = parse_expr st in
            items := e :: !items;
            skip_newlines_in_expr st;
            match peek st with
            | Token.COMMA ->
                advance st;
                loop ()
            | Token.RBRACKET -> ()
            | t ->
                error st
                  (Printf.sprintf "expected ',' or ']' but found %s"
                     (Token.describe t)))
      in
      loop ();
      expect st Token.RBRACKET;
      { Ast.desc = Ast.ListLit (List.rev !items); espan = Loc.merge span st.last }

and parse_object_or_for st span =
  advance st;
  skip_newlines_in_expr st;
  match peek st with
  | Token.IDENT "for" ->
      advance st;
      let key_var, val_var, coll = parse_for_clause st in
      let key = parse_expr st in
      skip_newlines_in_expr st;
      expect st Token.FATARROW;
      skip_newlines_in_expr st;
      let value = parse_expr st in
      let cond = parse_for_cond st in
      skip_newlines_in_expr st;
      expect st Token.RBRACE;
      {
        Ast.desc = Ast.ForMap ({ key_var; val_var; coll; body = key; cond }, value);
        espan = Loc.merge span st.last;
      }
  | _ ->
      let kvs = ref [] in
      let rec loop () =
        skip_newlines_in_expr st;
        match peek st with
        | Token.RBRACE -> ()
        | _ -> (
          let key =
            match peek st with
            | Token.IDENT k ->
                advance st;
                (* a bare identifier key, unless it's a parenthesised
                   expression key *)
                Ast.Kident k
            | Token.QUOTED [ Token.Lit s ] ->
                advance st;
                Ast.Kident s
            | Token.QUOTED _ | Token.LPAREN ->
                let e = parse_expr st in
                Ast.Kexpr e
            | t ->
                error st
                  (Printf.sprintf "expected object key but found %s"
                     (Token.describe t))
          in
          skip_newlines_in_expr st;
          (match peek st with
          | Token.ASSIGN | Token.COLON -> advance st
          | t ->
              error st
                (Printf.sprintf "expected '=' or ':' in object but found %s"
                   (Token.describe t)));
          skip_newlines_in_expr st;
          let v = parse_expr st in
          kvs := (key, v) :: !kvs;
          skip_newlines_in_expr st;
          match peek st with
          | Token.COMMA ->
              advance st;
              loop ()
          | Token.RBRACE -> ()
          | _ -> loop ())
      in
      loop ();
      expect st Token.RBRACE;
      { Ast.desc = Ast.ObjectLit (List.rev !kvs); espan = Loc.merge span st.last }

(* ------------------------------------------------------------------ *)
(* Blocks and bodies                                                   *)
(* ------------------------------------------------------------------ *)

(** A top-level item of a configuration, as {!fold} delivers it. *)
type item = Attribute of Ast.attribute | Block of Ast.block

let add_item (attrs, blocks) = function
  | Attribute a -> (a :: attrs, blocks)
  | Block b -> (attrs, b :: blocks)

let body_of_items (attrs, blocks) =
  { Ast.attrs = List.rev attrs; blocks = List.rev blocks }

(* Fold [f] over the items of a body in source order, each as soon as
   it is parsed, up to (not including) the closing '}' or [EOF]. *)
let rec fold_body : 'a. state -> ('a -> item -> 'a) -> 'a -> 'a =
 fun st f acc ->
  skip_newlines st;
  match peek st with
  | Token.RBRACE | Token.EOF -> acc
  | Token.IDENT name -> (
      let span = peek_span st in
      advance st;
      match peek st with
      | Token.ASSIGN ->
          advance st;
          skip_newlines_in_expr st;
          let value = parse_expr st in
          let a =
            { Ast.aname = name; avalue = value; aspan = Loc.merge span st.last }
          in
          (match peek st with
          | Token.NEWLINE | Token.RBRACE | Token.EOF -> ()
          | t ->
              error st
                (Printf.sprintf "expected newline after attribute, found %s"
                   (Token.describe t)));
          fold_body st f (f acc (Attribute a))
      | Token.LBRACE | Token.QUOTED _ | Token.IDENT _ ->
          let b = parse_block_after_type st name span in
          fold_body st f (f acc (Block b))
      | t ->
          error st
            (Printf.sprintf "expected '=' or '{' after %S, found %s" name
               (Token.describe t)))
  | t -> error st (Printf.sprintf "unexpected %s in body" (Token.describe t))

and parse_body st : Ast.body = body_of_items (fold_body st add_item ([], []))

and parse_block_after_type st btype span : Ast.block =
  let labels = ref [] in
  let rec labels_loop () =
    match peek st with
    | Token.QUOTED [ Token.Lit s ] ->
        advance st;
        labels := s :: !labels;
        labels_loop ()
    | Token.QUOTED _ -> error st "block labels must be literal strings"
    | Token.IDENT s ->
        advance st;
        labels := s :: !labels;
        labels_loop ()
    | Token.LBRACE -> ()
    | t ->
        error st
          (Printf.sprintf "expected block label or '{' but found %s"
             (Token.describe t))
  in
  labels_loop ();
  expect st Token.LBRACE;
  let body = parse_body st in
  expect st Token.RBRACE;
  {
    Ast.btype;
    labels = List.rev !labels;
    bbody = body;
    bspan = Loc.merge span st.last;
  }

(* Run [f] on a parser pulling tokens from [src].  A lexer error
   anywhere in the input outranks a parse error, as it did when the
   whole input was lexed before parsing: on a parse error the rest of
   the input is lexed, and its first lexer error, if any, is raised
   instead. *)
let with_lexer ~file src f =
  let lx = Lexer.make ~file src in
  let st = make (fun () -> Lexer.next_token lx) in
  match f st with
  | v -> v
  | exception (Cloudless_error.Error { code = "parse-error"; _ } as e) ->
      Lexer.drain lx;
      raise e

let expect_eof st what =
  match peek st with
  | Token.EOF -> ()
  | t -> error st (Printf.sprintf "unexpected %s %s" (Token.describe t) what)

(** Fold [f] over the top-level attributes and blocks of a
    configuration file, in source order, each as soon as it is parsed:
    the caller can consume a large file one block at a time without
    holding its whole syntax tree.  Raises a lex or parse error
    exactly as {!parse} does. *)
let fold ~file src f init =
  with_lexer ~file src (fun st ->
      let acc = fold_body st f init in
      expect_eof st "at top level";
      acc)

(** Parse a configuration file from source text. *)
let parse ~file src : Ast.body = body_of_items (fold ~file src add_item ([], []))

(** Parse a single standalone expression (used by the REPL-ish tools and
    by tests). *)
let parse_expr_string ?(file = "<expr>") src : Ast.expr =
  with_lexer ~file src (fun st ->
      skip_newlines st;
      let e = parse_expr st in
      skip_newlines st;
      expect_eof st "after expression";
      e)
