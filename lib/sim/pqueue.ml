(** Generic keyed priority queue (binary heap); see the interface for
    the ordering contract.

    Stored structure-of-arrays: priorities live in a bare [float
    array] (unboxed by the runtime), so a push allocates nothing
    beyond amortized growth — the previous per-entry record boxed the
    float and cost ~6 words on every event and every ready-set
    admission. *)

type order = Min_first | Max_first

type ('k, 'a) t = {
  order : order;
  mutable prios : float array;
  mutable seqs : int array;
  mutable keys : 'k array;
  mutable payloads : 'a array;
  mutable size : int;  (** slots in use *)
  mutable next_seq : int;
  mutable peak : int;
}

let create order =
  {
    order;
    prios = [||];
    seqs = [||];
    keys = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
    peak = 0;
  }

let length t = t.size
let is_empty t = length t = 0
let peak_length t = t.peak

(* The (prio, seq) comparison is strict and total (seq is unique), so
   pops are deterministic regardless of heap shape. *)
let before t i j =
  let pi = t.prios.(i) and pj = t.prios.(j) in
  match t.order with
  | Min_first -> pi < pj || (pi = pj && t.seqs.(i) < t.seqs.(j))
  | Max_first -> pi > pj || (pi = pj && t.seqs.(i) > t.seqs.(j))

let swap t i j =
  let p = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- p;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let a = t.payloads.(i) in
  t.payloads.(i) <- t.payloads.(j);
  t.payloads.(j) <- a

(* Grow by doubling, filling fresh key/payload slots with the values
   about to be pushed — live values, so no [Obj.magic] dummy is ever
   stored. *)
let ensure_capacity t key payload =
  if t.size = Array.length t.prios then begin
    let ncap = max 16 (2 * Array.length t.prios) in
    let np = Array.make ncap 0. in
    Array.blit t.prios 0 np 0 t.size;
    t.prios <- np;
    let ns = Array.make ncap 0 in
    Array.blit t.seqs 0 ns 0 t.size;
    t.seqs <- ns;
    let nk = Array.make ncap key in
    Array.blit t.keys 0 nk 0 t.size;
    t.keys <- nk;
    let na = Array.make ncap payload in
    Array.blit t.payloads 0 na 0 t.size;
    t.payloads <- na
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let first = ref i in
  if l < t.size && before t l !first then first := l;
  if r < t.size && before t r !first then first := r;
  if !first <> i then begin
    swap t i !first;
    sift_down t !first
  end

let push t ~prio ~key payload =
  ensure_capacity t key payload;
  let i = t.size in
  t.prios.(i) <- prio;
  t.seqs.(i) <- t.next_seq;
  t.keys.(i) <- key;
  t.payloads.(i) <- payload;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i;
  if t.size > t.peak then t.peak <- t.size

(* Drop the root: move the last element into its place and restore the
   heap property.  (The vacated tail slot keeps its old value, exactly
   like the record-array implementation did.) *)
let drop_root t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    swap t 0 t.size;
    sift_down t 0
  end

let pop t =
  if t.size = 0 then None
  else begin
    let prio = t.prios.(0) and key = t.keys.(0) and payload = t.payloads.(0) in
    drop_root t;
    Some (prio, key, payload)
  end
