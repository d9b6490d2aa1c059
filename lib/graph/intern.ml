(** Address interner: a bijection between {!Cloudless_hcl.Addr.t} and
    dense integer ids.

    The flat-array hot path (compiled {!Dag} traversals, the plan
    execution graph, the executor's ready set) keys everything by int
    instead of by structural address, so the inner loops become array
    reads instead of polymorphic-compare tree walks.  Ids are assigned
    in interning order, start at 0, and are stable for the lifetime of
    the table — one table per compiled structure, never shared across
    runs, so an id is meaningless outside the structure that minted it
    (see DESIGN.md "Raw-speed core"). *)

module Addr = Cloudless_hcl.Addr

(* array-fill placeholder for not-yet-minted slots; never observable
   because [addr] bounds-checks against [n] *)
let dummy = Addr.make ~rtype:"" ~rname:"" ()

type t = {
  mutable addrs : Addr.t array;  (** id -> address; [n] slots in use *)
  mutable n : int;
  ids : (Addr.t, int) Hashtbl.t;  (** address -> id *)
}

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  {
    addrs = Array.make capacity dummy;
    n = 0;
    ids = Hashtbl.create (2 * capacity);
  }

let length t = t.n

let grow t =
  let cap = Array.length t.addrs in
  let addrs = Array.make (2 * cap) dummy in
  Array.blit t.addrs 0 addrs 0 t.n;
  t.addrs <- addrs

(** Id of [addr], minting the next dense id on first sight. *)
let intern t addr =
  match Hashtbl.find_opt t.ids addr with
  | Some id -> id
  | None ->
      if t.n = Array.length t.addrs then grow t;
      let id = t.n in
      t.addrs.(id) <- addr;
      t.n <- id + 1;
      Hashtbl.replace t.ids addr id;
      id

let find_opt t addr = Hashtbl.find_opt t.ids addr
let mem t addr = Hashtbl.mem t.ids addr

let addr t id =
  if id < 0 || id >= t.n then
    Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.Internal
      ~code:"unknown-id" "Intern.addr: id %d out of range (table has %d)" id t.n;
  t.addrs.(id)
