(** Tokens produced by the {!Lexer}.

    Quoted strings are lexed into a list of {!str_part}s: literal text
    interleaved with the token streams of [${...}] interpolations, which
    the parser later parses recursively with the ordinary expression
    grammar. *)

type t =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | QUOTED of str_part list  (** double-quoted string template *)
  | HEREDOC of str_part list  (** <<EOF ... EOF template *)
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | COLON
  | QUESTION
  | ASSIGN  (** [=] *)
  | FATARROW  (** [=>] used in for-expressions over maps *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | EQ  (** [==] *)
  | NEQ
  | LT
  | GT
  | LE
  | GE
  | AND
  | OR
  | NOT
  | ELLIPSIS  (** [...] *)
  | NEWLINE  (** significant inside block bodies *)
  | EOF

and str_part = Lit of string | Interp of spanned list
and spanned = { tok : t; span : Loc.span }

let describe = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT n -> Printf.sprintf "integer %d" n
  | FLOAT f -> Printf.sprintf "number %g" f
  | QUOTED _ -> "string"
  | HEREDOC _ -> "heredoc"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | COLON -> "':'"
  | QUESTION -> "'?'"
  | ASSIGN -> "'='"
  | FATARROW -> "'=>'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | EQ -> "'=='"
  | NEQ -> "'!='"
  | LT -> "'<'"
  | GT -> "'>'"
  | LE -> "'<='"
  | GE -> "'>='"
  | AND -> "'&&'"
  | OR -> "'||'"
  | NOT -> "'!'"
  | ELLIPSIS -> "'...'"
  | NEWLINE -> "newline"
  | EOF -> "end of input"
