(* Tests for the shared keyed priority queue: ordering and tie-break
   properties under both orders, and the length accounting the
   executor's ready set relies on. *)

module Pq = Cloudless_sim.Pqueue

let check = Alcotest.check
let int_ = Alcotest.int

(* The first entry with its priority and key, taken off the queue. *)
let pop q =
  if Pq.is_empty q then None
  else
    let prio = Pq.top_prio q and key = Pq.top_key q in
    Some (prio, key, Pq.take q)

let drain q =
  let rec go acc =
    match pop q with
    | None -> List.rev acc
    | Some (prio, key, payload) -> go ((prio, key, payload) :: acc)
  in
  go []

(* Reference order: sort (prio, insertion index) pairs the way the heap
   promises to pop them. *)
let expected_order order prios =
  let indexed = List.mapi (fun i p -> (p, i)) prios in
  let cmp (pa, ia) (pb, ib) =
    match order with
    | Pq.Min_first -> if pa <> pb then compare pa pb else compare ia ib
    | Pq.Max_first -> if pa <> pb then compare pb pa else compare ib ia
  in
  List.map snd (List.sort cmp indexed)

let prop_pop_sorted order name =
  QCheck.Test.make ~count:300 ~name
    QCheck.(list (float_range (-100.) 100.))
    (fun prios ->
      let q = Pq.create order in
      List.iteri (fun i p -> Pq.push q ~prio:p ~key:i i) prios;
      let popped = List.map (fun (_, _, i) -> i) (drain q) in
      popped = expected_order order prios)

let prop_min_sorted = prop_pop_sorted Pq.Min_first "Min_first pops (prio asc, seq asc)"
let prop_max_sorted = prop_pop_sorted Pq.Max_first "Max_first pops (prio desc, seq desc)"

(* All-equal priorities isolate the tie-break. *)
let test_ties_fifo () =
  let q = Pq.create Pq.Min_first in
  List.iter (fun i -> Pq.push q ~prio:1. ~key:i i) [ 0; 1; 2; 3; 4 ];
  check (Alcotest.list int_) "insertion order"
    [ 0; 1; 2; 3; 4 ]
    (List.map (fun (_, k, _) -> k) (drain q))

let test_ties_lifo () =
  let q = Pq.create Pq.Max_first in
  List.iter (fun i -> Pq.push q ~prio:1. ~key:i i) [ 0; 1; 2; 3; 4 ];
  check (Alcotest.list int_) "reverse insertion order"
    [ 4; 3; 2; 1; 0 ]
    (List.map (fun (_, k, _) -> k) (drain q))

let test_peak_length () =
  let q = Pq.create Pq.Min_first in
  List.iter (fun i -> Pq.push q ~prio:(float_of_int i) ~key:i i) [ 0; 1; 2 ];
  ignore (pop q);
  ignore (pop q);
  List.iter (fun i -> Pq.push q ~prio:(float_of_int i) ~key:i i) [ 3; 4 ];
  check int_ "peak is high-water mark" 3 (Pq.peak_length q);
  check int_ "current length" 3 (Pq.length q)

(* Interleave pushes and pops against a naive sorted-list model.
   Keys are unique (the insertion sequence number), mirroring how the
   executor's ready set uses the queue.  Runs of pushes outnumber the
   pops, so a trace grows the heap from empty past several doublings
   (16, 32, 64, 128) while it pops; every pop checks the first entry's
   priority and key before taking it. *)
let prop_model order name =
  let op =
    QCheck.(
      frequency
        [
          (3, map (fun p -> `Push p) (float_range 0. 50.));
          (1, map (fun p -> `Push (float_of_int p)) (int_range 0 4));
          (2, always `Pop);
        ])
  in
  QCheck.Test.make ~count:300 ~name
    QCheck.(list_of_size Gen.(int_range 0 600) op)
    (fun ops ->
      let q = Pq.create order in
      (* model: list of (prio, key) of live entries; key = seq, unique *)
      let model = ref [] in
      let seq = ref 0 in
      let first () =
        List.fold_left
          (fun best (p, k) ->
            match best with
            | None -> Some (p, k)
            | Some (bp, bk) ->
                let earlier =
                  match order with
                  | Pq.Min_first -> p < bp || (p = bp && k < bk)
                  | Pq.Max_first -> p > bp || (p = bp && k > bk)
                in
                if earlier then Some (p, k) else best)
          None !model
      in
      List.for_all
        (fun op ->
          match op with
          | `Push p ->
              Pq.push q ~prio:p ~key:!seq !seq;
              model := (p, !seq) :: !model;
              incr seq;
              Pq.length q = List.length !model
          | `Pop -> (
              match first () with
              | None -> Pq.is_empty q && pop q = None
              | Some (mp, mk) ->
                  model := List.filter (fun (_, k) -> k <> mk) !model;
                  Pq.top_prio q = mp
                  && Pq.top_key q = mk
                  && Pq.take q = mk
                  && Pq.length q = List.length !model))
        ops)

let qtest = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "sim.pqueue",
      [
        qtest prop_min_sorted;
        qtest prop_max_sorted;
        Alcotest.test_case "min ties are FIFO" `Quick test_ties_fifo;
        Alcotest.test_case "max ties are LIFO" `Quick test_ties_lifo;
        Alcotest.test_case "peak length" `Quick test_peak_length;
        qtest (prop_model Pq.Min_first "matches a sorted-list model");
        qtest (prop_model Pq.Max_first "Max_first matches a sorted-list model");
      ] );
  ]
