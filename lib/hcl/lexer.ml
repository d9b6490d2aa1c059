(** Hand-written lexer for the HCL subset.

    Handles [#], [//] and [/* ... */] comments, decimal integers and
    floats, identifiers, operators, double-quoted string templates with
    [${...}] interpolation (lexed recursively so nested strings inside
    interpolations work), and [<<EOF]/[<<-EOF] heredocs.

    Newlines are significant in HCL (they terminate attribute
    definitions), so the lexer emits [NEWLINE] tokens; the parser decides
    where they matter.

    The lexer is pull-based: {!next_token} lexes one token and the
    parser holds a single token of lookahead, so no token list of the
    whole file is ever built.  The hot loops (trivia, identifiers,
    numbers, plain string runs) work on byte offsets and never allocate;
    a run of characters without a newline moves the column by its
    length in one step.  Errors are [syntax/lex-error] diagnostics on
    the typed channel ({!Cloudless_error.Error}). *)

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let make ~file src = { src; file; pos = 0; line = 1; col = 1 }

let cur_pos st : Loc.pos = { line = st.line; col = st.col; offset = st.pos }

let span_from st (start : Loc.pos) =
  Loc.make ~file:st.file ~start_pos:start ~end_pos:(cur_pos st)

(* The position of byte [off] of the input.  It rescans the input from
   its start, so the scanners carry bare offsets and only an error
   pays for a position. *)
let pos_at st off : Loc.pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if String.unsafe_get st.src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; col = off - !bol + 1; offset = off }

(* Raise a lex error spanning from offset [start] to the cursor. *)
let error st start msg =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Syntax
    ~code:"lex-error" ~span:(span_from st (pos_at st start)) "%s" msg

let[@inline] at_end st = st.pos >= String.length st.src

(* The byte [k] past the cursor, or ['\000'] past the end of input.
   Callers that must tell a NUL byte from the end check {!at_end}. *)
let[@inline] char_at st k =
  let i = st.pos + k in
  if i < String.length st.src then String.unsafe_get st.src i else '\000'

let advance st =
  if st.pos < String.length st.src then
    if String.unsafe_get st.src st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
  st.pos <- st.pos + 1

(* Move the cursor to [pos] over bytes the caller knows hold no
   newline. *)
let[@inline] skip_to st pos =
  st.col <- st.col + (pos - st.pos);
  st.pos <- pos

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c || c = '-'

(* The scanners below are loops with their byte test written in as a
   match: a loop taking its test as a closure makes an indirect call
   per byte, and ocamlopt without flambda does not inline even a direct
   call to [is_ident_char] into the loop. *)

(* First offset at or after [i] that is not an identifier byte (see
   [is_ident_char]). *)
let rec ident_end src i =
  if i < String.length src then
    match String.unsafe_get src i with
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' | '-' -> ident_end src (i + 1)
    | _ -> i
  else i

(* First offset at or after [i] that is not a decimal digit. *)
let rec digits_end src i =
  if i < String.length src then
    match String.unsafe_get src i with
    | '0' .. '9' -> digits_end src (i + 1)
    | _ -> i
  else i

(* First offset at or after [i] holding a newline, or the end. *)
let rec line_end src i =
  if i < String.length src && String.unsafe_get src i <> '\n' then
    line_end src (i + 1)
  else i

(* Skip spaces, tabs, carriage returns and comments.  Newlines are NOT
   skipped: they become tokens. *)
let rec skip_trivia st =
  if not (at_end st) then
    match String.unsafe_get st.src st.pos with
    | ' ' | '\t' | '\r' ->
        skip_to st (st.pos + 1);
        skip_trivia st
    | '#' ->
        skip_line_comment st;
        skip_trivia st
    | '/' when char_at st 1 = '/' ->
        skip_line_comment st;
        skip_trivia st
    | '/' when char_at st 1 = '*' ->
        skip_block_comment st;
        skip_trivia st
    | _ -> ()

and skip_line_comment st = skip_to st (line_end st.src st.pos)

and skip_block_comment st =
  let start = st.pos in
  skip_to st (st.pos + 2);
  let rec loop () =
    if at_end st then error st start "unterminated block comment"
    else if String.unsafe_get st.src st.pos = '*' && char_at st 1 = '/' then
      skip_to st (st.pos + 2)
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let lex_ident st =
  let start = st.pos in
  skip_to st (ident_end st.src start);
  String.sub st.src start (st.pos - start)

(* End of the number whose first digit is at [i]: digits, then an
   optional fraction and exponent. *)
let number_end src i =
  let i = digits_end src i in
  let i =
    if i + 1 < String.length src && src.[i] = '.' && is_digit src.[i + 1] then
      digits_end src (i + 1)
    else i
  in
  if i < String.length src && (src.[i] = 'e' || src.[i] = 'E') then
    if i + 1 < String.length src && (src.[i + 1] = '+' || src.[i + 1] = '-')
    then digits_end src (i + 2)
    else digits_end src (i + 1)
  else i

let lex_number st start =
  let src = st.src and begin_pos = st.pos in
  let i = number_end src begin_pos in
  skip_to st i;
  let text = String.sub src begin_pos (i - begin_pos) in
  (* past the leading digits: a fraction or an exponent *)
  if i > digits_end src begin_pos then
    match float_of_string_opt text with
    | Some f -> Token.FLOAT f
    | None -> error st start (Printf.sprintf "invalid number %S" text)
  else
    match int_of_string_opt text with
    | Some n -> Token.INT n
    | None -> error st start (Printf.sprintf "invalid number %S" text)

(* End of the run of plain string characters starting at [i]: stops at
   a quote, a backslash, a newline, the end of input, or a '$' that is
   last or opens an interpolation. *)
let rec string_run_end src i =
  if i >= String.length src then i
  else
    match String.unsafe_get src i with
    | '"' | '\\' | '\n' -> i
    | '$' ->
        if i + 1 < String.length src && String.unsafe_get src (i + 1) <> '{'
        then string_run_end src (i + 1)
        else i
    | _ -> string_run_end src (i + 1)

(* One token after trivia; [EOF] (again and again) at the end. *)
let rec next_token st : Token.spanned =
  skip_trivia st;
  let start = cur_pos st in
  if at_end st then { Token.tok = Token.EOF; span = span_from st start }
  else
    let tok = lex_one st st.pos (String.unsafe_get st.src st.pos) in
    { Token.tok; span = span_from st start }

and lex_one st start c : Token.t =
  match c with
  | '\n' ->
      advance st;
      Token.NEWLINE
  | '{' ->
      advance st;
      Token.LBRACE
  | '}' ->
      advance st;
      Token.RBRACE
  | '[' ->
      advance st;
      Token.LBRACKET
  | ']' ->
      advance st;
      Token.RBRACKET
  | '(' ->
      advance st;
      Token.LPAREN
  | ')' ->
      advance st;
      Token.RPAREN
  | ',' ->
      advance st;
      Token.COMMA
  | ':' ->
      advance st;
      Token.COLON
  | '?' ->
      advance st;
      Token.QUESTION
  | '+' ->
      advance st;
      Token.PLUS
  | '-' ->
      advance st;
      Token.MINUS
  | '*' ->
      advance st;
      Token.STAR
  | '%' ->
      advance st;
      Token.PERCENT
  | '/' ->
      advance st;
      Token.SLASH
  | '.' ->
      if char_at st 1 = '.' then begin
        skip_to st (st.pos + 2);
        if char_at st 0 = '.' then begin
          advance st;
          Token.ELLIPSIS
        end
        else error st start "expected '...'"
      end
      else begin
        advance st;
        Token.DOT
      end
  | '=' -> (
      advance st;
      match char_at st 0 with
      | '=' ->
          advance st;
          Token.EQ
      | '>' ->
          advance st;
          Token.FATARROW
      | _ -> Token.ASSIGN)
  | '!' -> (
      advance st;
      match char_at st 0 with
      | '=' ->
          advance st;
          Token.NEQ
      | _ -> Token.NOT)
  | '<' -> (
      advance st;
      match char_at st 0 with
      | '=' ->
          advance st;
          Token.LE
      | '<' ->
          advance st;
          lex_heredoc st start
      | _ -> Token.LT)
  | '>' -> (
      advance st;
      match char_at st 0 with
      | '=' ->
          advance st;
          Token.GE
      | _ -> Token.GT)
  | '&' -> (
      advance st;
      match char_at st 0 with
      | '&' ->
          advance st;
          Token.AND
      | _ -> error st start "expected '&&'")
  | '|' -> (
      advance st;
      match char_at st 0 with
      | '|' ->
          advance st;
          Token.OR
      | _ -> error st start "expected '||'")
  | '"' ->
      advance st;
      Token.QUOTED (lex_string_parts st start)
  | c when is_digit c -> lex_number st start
  | c when is_ident_start c -> Token.IDENT (lex_ident st)
  | c -> error st start (Printf.sprintf "unexpected character %C" c)

(* Body of a double-quoted string, cursor just past the opening quote.
   Runs of plain characters are copied with one blit; a string with no
   escape or interpolation is a single [String.sub]. *)
and lex_string_parts st start : Token.str_part list =
  let src = st.src in
  let run_end () = string_run_end src st.pos in
  let first = run_end () in
  if first < String.length src && src.[first] = '"' then begin
    let s = String.sub src st.pos (first - st.pos) in
    skip_to st (first + 1);
    if s = "" then [] else [ Token.Lit s ]
  end
  else begin
    let buf = Buffer.create 16 in
    let parts = ref [] in
    let flush () =
      if Buffer.length buf > 0 then begin
        parts := Token.Lit (Buffer.contents buf) :: !parts;
        Buffer.clear buf
      end
    in
    let rec loop () =
      let i = run_end () in
      Buffer.add_substring buf src st.pos (i - st.pos);
      skip_to st i;
      if at_end st then error st start "unterminated string"
      else
        match String.unsafe_get src st.pos with
        | '"' ->
            advance st;
            flush ()
        | '\\' ->
            advance st;
            (if at_end st then error st start "unterminated string"
             else
               match String.unsafe_get src st.pos with
               | 'n' -> Buffer.add_char buf '\n'
               | 't' -> Buffer.add_char buf '\t'
               | 'r' -> Buffer.add_char buf '\r'
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '$' -> Buffer.add_char buf '$'
               | c -> error st start (Printf.sprintf "invalid escape '\\%c'" c));
            advance st;
            loop ()
        | '$' when char_at st 1 = '{' ->
            flush ();
            skip_to st (st.pos + 2);
            parts := Token.Interp (lex_interp st start) :: !parts;
            loop ()
        | '\n' -> error st start "newline in string literal"
        | c ->
            (* a '$' that does not open an interpolation, at the end *)
            advance st;
            Buffer.add_char buf c;
            loop ()
    in
    loop ();
    List.rev !parts
  end

(* Tokens of a ${...} interpolation, up to the matching '}'.  Braces nest
   (e.g. object literals inside interpolations). *)
and lex_interp st start : Token.spanned list =
  let rec loop acc depth =
    skip_trivia st;
    if at_end st then error st start "unterminated interpolation"
    else if String.unsafe_get st.src st.pos = '}' && depth = 0 then begin
      let tok_start = cur_pos st in
      advance st;
      List.rev ({ Token.tok = Token.EOF; span = span_from st tok_start } :: acc)
    end
    else
      let t = next_token st in
      let depth =
        match t.Token.tok with
        | Token.LBRACE -> depth + 1
        | Token.RBRACE -> depth - 1
        | _ -> depth
      in
      loop (t :: acc) depth
  in
  loop [] 0

(* <<EOF / <<-EOF heredoc; cursor just past "<<". *)
and lex_heredoc st start : Token.t =
  let indent_mode =
    if char_at st 0 = '-' then begin
      advance st;
      true
    end
    else false
  in
  let tag = lex_ident st in
  if tag = "" then error st start "expected heredoc tag after '<<'";
  if char_at st 0 = '\n' then advance st
  else error st start "expected newline after heredoc tag";
  (* Collect raw lines until a line equal to the tag (modulo leading
     whitespace when in indent mode). *)
  let read_line () =
    let i = line_end st.src st.pos in
    if i >= String.length st.src then begin
      skip_to st i;
      error st start "unterminated heredoc"
    end;
    let l = String.sub st.src st.pos (i - st.pos) in
    skip_to st i;
    advance st;
    l
  in
  let strip s = String.trim s in
  let rec collect acc =
    let l = read_line () in
    if strip l = tag then List.rev acc else collect (l :: acc)
  in
  let lines = collect [] in
  let lines =
    if not indent_mode then lines
    else
      (* <<- strips the common leading whitespace *)
      let leading s =
        let n = String.length s in
        let rec go i = if i < n && (s.[i] = ' ' || s.[i] = '\t') then go (i + 1) else i in
        go 0
      in
      let min_indent =
        List.fold_left
          (fun acc l -> if strip l = "" then acc else min acc (leading l))
          max_int lines
      in
      let min_indent = if min_indent = max_int then 0 else min_indent in
      List.map
        (fun l ->
          if String.length l >= min_indent then
            String.sub l min_indent (String.length l - min_indent)
          else l)
        lines
  in
  let text = String.concat "\n" lines ^ if lines = [] then "" else "\n" in
  (* Re-lex the body for ${...} interpolations. *)
  Token.HEREDOC (template_parts ~file:st.file text)

(* Split raw template text into Lit/Interp parts (used by heredocs). *)
and template_parts ~file text : Token.str_part list =
  let st = make ~file text in
  let buf = Buffer.create 32 in
  let parts = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Token.Lit (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if at_end st then flush ()
    else if String.unsafe_get text st.pos = '$' && char_at st 1 = '{' then begin
      flush ();
      skip_to st (st.pos + 2);
      parts := Token.Interp (lex_interp st st.pos) :: !parts;
      loop ()
    end
    else begin
      Buffer.add_char buf (String.unsafe_get text st.pos);
      advance st;
      loop ()
    end
  in
  loop ();
  List.rev !parts

(** Lex the rest of the input, discarding the tokens: raises the first
    lex error still ahead of the cursor, if any. *)
let rec drain st =
  match (next_token st).Token.tok with Token.EOF -> () | _ -> drain st

(** Tokenize a full source file (terminated by [EOF]).  The parser pulls
    tokens with {!next_token} instead; this list form is for tests and
    tools. *)
let tokenize ~file src =
  let st = make ~file src in
  let rec loop acc =
    let t = next_token st in
    match t.Token.tok with
    | Token.EOF -> List.rev (t :: acc)
    | _ -> loop (t :: acc)
  in
  loop []
