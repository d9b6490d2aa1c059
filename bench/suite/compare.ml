(* [compare A B]: two sets of run records (JSON lines written by
   [run --out]), one row per workload x end-to-end metric with the
   verdict better, same, worse or unresolved.  Bounds and directions
   come from BENCHMARK.json.  A metric whose quartile spread in either
   set is wider than its bound is unresolved, unless every run of B
   reads better than every run of A. *)

type bound = { better_lower : bool; bound : float }

let bounds benchmark =
  let j = Json.of_file benchmark in
  List.map
    (fun m ->
      ( Json.to_str (Json.member "name" m),
        {
          better_lower = Json.to_str (Json.member "better" m) = "lower";
          bound = Json.to_num (Json.member "bound" m);
        } ))
    (Json.to_list (Json.member "end_to_end" j))

(* workload -> metric -> values, in file order, of the untraced runs
   ([seed]: of that seed's runs only) *)
let values ?seed path =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun line ->
      let r = Json.parse line in
      let w = Json.to_str (Json.member "workload" r) in
      let wanted =
        Json.member "trace" r = Json.Bool false
        && Option.fold seed ~none:true ~some:(fun s ->
               Json.member "seed" r = Json.Num (float_of_int s))
      in
      if wanted && not (Hashtbl.mem tbl w) then begin
        Hashtbl.replace tbl w (Hashtbl.create 16);
        order := w :: !order
      end;
      match Json.member "metrics" r with
      | Json.Obj kvs when wanted ->
          let per = Hashtbl.find tbl w in
          List.iter
            (fun (name, m) ->
              let v = Json.to_num (Json.member "value" m) in
              Hashtbl.replace per name (v :: Option.value (Hashtbl.find_opt per name) ~default:[]))
            kvs
      | _ -> ())
    (List.filter
       (fun line -> String.trim line <> "")
       (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)));
  (tbl, List.rev !order)

let verdict b xa xb =
  let _, ma, _ = Stats.quartiles xa and _, mb, _ = Stats.quartiles xb in
  let worse_by =
    let rel = (mb -. ma) /. Float.abs ma in
    if b.better_lower then rel else -.rel
  in
  let is_better x y = if b.better_lower then x < y else x > y in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> is_better y x) xa) xb in
  let v =
    if (Stats.spread xa > b.bound || Stats.spread xb > b.bound) && not all_better then
      "unresolved"
    else if worse_by > b.bound then "worse"
    else if -.worse_by > b.bound then "better"
    else "same"
  in
  (v, ma, mb, worse_by)

(* Prints the table; returns the number of worse or unresolved rows. *)
let run ~benchmark ?seed a b =
  let bounds = bounds benchmark in
  let ta, order_a = values ?seed a and tb, order_b = values ?seed b in
  let workloads = order_a @ List.filter (fun w -> not (List.mem w order_a)) order_b in
  Printf.printf "%-13s %-20s %14s %7s %14s %7s %8s %6s  %s\n" "workload" "metric" "A median"
    "A sprd" "B median" "B sprd" "worse" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (name, bd) ->
          let get t =
            match Hashtbl.find_opt t w with
            | Some per -> Option.value (Hashtbl.find_opt per name) ~default:[]
            | None -> []
          in
          match (get ta, get tb) with
          | [], _ | _, [] ->
              incr bad;
              Printf.printf "%-13s %-20s %s\n" w name "missing in one set -> unresolved"
          | xa, xb ->
              let v, ma, mb, worse_by = verdict bd xa xb in
              if v = "worse" || v = "unresolved" then incr bad;
              Printf.printf "%-13s %-20s %14.6g %6.1f%% %14.6g %6.1f%% %7.1f%% %5.0f%%  %s\n" w
                name ma (100. *. Stats.spread xa) mb (100. *. Stats.spread xb)
                (100. *. worse_by) (100. *. bd.bound) v)
        bounds)
    workloads;
  !bad
