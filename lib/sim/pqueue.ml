(** Generic keyed priority queue (binary heap); see the interface for
    the ordering contract.

    The heap orders three int-and-float arrays: each position holds a
    priority, an insertion number and the slot of its entry in a slab
    of keys and payloads.  An entry stays in its slot from push to pop,
    so sifting moves a hole through the three heap arrays and never
    touches the slab.

    Positions [size .. capacity-1] of [slots] hold the free slots: a
    pop leaves the root's slot at the position the heap just gave up,
    and a push takes the slot at position [size].

    Only [Min_first] order is sifted.  A [Max_first] heap stores each
    priority and insertion number negated, so the smallest stored pair
    is the largest priority with the latest insertion.  Negation is
    exact on every float, and a NaN compares false either way, as it
    did under a [>] comparison.

    The comparisons are written out in [push] and [take]: without
    flambda, a comparison function boxes both floats on every call. *)

type order = Min_first | Max_first

type ('k, 'a) t = {
  negate : bool;  (** [Max_first]: priorities and numbers stored negated *)
  mutable prios : float array;  (** heap position -> stored priority *)
  mutable seqs : int array;  (** heap position -> stored insertion number *)
  mutable slots : int array;  (** heap position -> slab slot; free above [size] *)
  mutable keys : 'k array;  (** slab *)
  mutable payloads : 'a array;  (** slab *)
  mutable size : int;  (** entries in the heap *)
  mutable next_seq : int;
  mutable peak : int;
}

let create order =
  {
    negate = (match order with Min_first -> false | Max_first -> true);
    prios = [||];
    seqs = [||];
    slots = [||];
    keys = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
    peak = 0;
  }

let length t = t.size
let is_empty t = t.size = 0
let peak_length t = t.peak

(* Grow by doubling when full.  A full heap uses every slab slot, so
   the new slots are the old capacity and up, and the fresh slab cells
   hold the entry about to be pushed: live values, no placeholder. *)
let grow t key payload =
  let cap = Array.length t.prios in
  let ncap = max 16 (2 * cap) in
  let np = Array.make ncap 0. in
  Array.blit t.prios 0 np 0 cap;
  t.prios <- np;
  let ns = Array.make ncap 0 in
  Array.blit t.seqs 0 ns 0 cap;
  t.seqs <- ns;
  t.slots <- Array.init ncap (fun i -> if i < cap then t.slots.(i) else i);
  let nk = Array.make ncap key in
  Array.blit t.keys 0 nk 0 cap;
  t.keys <- nk;
  let na = Array.make ncap payload in
  Array.blit t.payloads 0 na 0 cap;
  t.payloads <- na

let push t ~prio ~key payload =
  if t.size = Array.length t.prios then grow t key payload;
  let prios = t.prios and seqs = t.seqs and slots = t.slots in
  let p = if t.negate then -.prio else prio in
  let s = if t.negate then -t.next_seq else t.next_seq in
  let slot = slots.(t.size) in
  t.keys.(slot) <- key;
  t.payloads.(slot) <- payload;
  t.next_seq <- t.next_seq + 1;
  (* sift up: move the hole from the new last position toward the root
     while the parent orders after the new entry *)
  let i = ref t.size in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = prios.(parent) in
    if p < pp || (p = pp && s < seqs.(parent)) then begin
      prios.(!i) <- pp;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else moving := false
  done;
  prios.(!i) <- p;
  seqs.(!i) <- s;
  slots.(!i) <- slot;
  t.size <- t.size + 1;
  if t.size > t.peak then t.peak <- t.size

let empty () = invalid_arg "Pqueue: empty queue"

let top_prio t =
  if t.size = 0 then empty ()
  else if t.negate then -.t.prios.(0)
  else t.prios.(0)

let top_key t = if t.size = 0 then empty () else t.keys.(t.slots.(0))

let take t =
  if t.size = 0 then empty ();
  let prios = t.prios and seqs = t.seqs and slots = t.slots in
  let root = slots.(0) in
  let payload = t.payloads.(root) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* sift down: the last entry fills the hole at the root *)
    let p = prios.(n) and s = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (prios.(r) < prios.(l)
               || (prios.(r) = prios.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let pc = prios.(c) in
        if pc < p || (pc = p && seqs.(c) < s) then begin
          prios.(!i) <- pc;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else moving := false
      end
    done;
    prios.(!i) <- p;
    seqs.(!i) <- s;
    slots.(!i) <- slot
  end;
  slots.(n) <- root;
  payload
