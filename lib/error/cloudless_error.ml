(** The one typed error channel.

    Every failure that leaves the library where it happens is raised
    as {!Error} with a located {!Diagnostic.t}: lexer, parser,
    structure and evaluation errors, dependency cycles, blocked plans,
    policy errors, corrupt state.  A site that handles a failure for
    control flow matches on the diagnostic's stage and code.  The
    lifecycle verbs and the CLI command handlers wrap their bodies in
    {!protect}, which returns [result]; no raw exception of the
    engine's own reaches a consumer.  This replaces the bare
    [failwith]/[invalid_arg] escapes the repo grew up with: every
    failure carries a stage tag and, when the source is known, a span
    — the §3.2/§3.5 defect-reporting story (cf. Rahman et al.'s IaC
    gap study) applied to the engine itself.

    This library sits at the very bottom of the dependency stack so
    that the HCL frontend, the simulator and the planners can all raise
    through the same channel.  {!Loc} and {!Addr} live here for the
    same reason; [Cloudless_hcl.Loc]/[Cloudless_hcl.Addr] re-export
    them unchanged. *)

module Loc = Loc
module Addr = Addr
module Diagnostic = Diagnostic

exception Error of Diagnostic.t

let () =
  Printexc.register_printer (function
    | Error d -> Some ("cloudless error: " ^ Diagnostic.to_string d)
    | _ -> None)

let raise_diag d = raise (Error d)

(** [fail ~stage ~code msg] raises through the typed channel.  [span]
    and [addr] locate the failure when the caller knows the source. *)
let fail ?severity ~stage ~code ?span ?addr fmt =
  Fmt.kstr
    (fun msg -> raise_diag (Diagnostic.make ?severity ~stage ~code ?span ?addr msg))
    fmt

(** The diagnostic of a typed error, or of one of the stdlib's untyped
    escapes ([Failure], [Invalid_argument], [Sys_error]) as an
    internal one; [None] for any other exception. *)
let of_exn = function
  | Error d -> Some d
  | Failure msg ->
      Some (Diagnostic.make ~stage:Diagnostic.Internal ~code:"failure" msg)
  | Invalid_argument msg ->
      Some
        (Diagnostic.make ~stage:Diagnostic.Internal ~code:"invalid-argument" msg)
  | Sys_error msg ->
      Some (Diagnostic.make ~stage:Diagnostic.Internal ~code:"sys-error" msg)
  | _ -> None

(** Run [f], converting typed-channel and stdlib escapes to [Error].
    Any other exception propagates: a foreign one is a bug worth its
    backtrace, and an injected process death must reach the caller
    that simulates the restart. *)
let protect f =
  match f () with
  | v -> Ok v
  | exception e -> ( match of_exn e with Some d -> Result.Error d | None -> raise e)
