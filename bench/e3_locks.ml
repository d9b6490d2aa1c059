(* E3 (§3.4, concurrent updates and mutual exclusion).

   Claim: per-resource locks let teams updating disjoint resources run
   in parallel, where today's whole-infrastructure lock serializes
   them; conflicting updates still serialize correctly.

   Sweep: team count x overlap fraction.  Columns: makespan under the
   global lock vs per-resource locks, lock waits, speedup. *)

open Bench_util
module Lock_manager = Cloudless_lock.Lock_manager
module Txn = Cloudless_lock.Txn
module Team_sim = Cloudless_lock.Team_sim
module State = Cloudless_state.State
module Cloud = Cloudless_sim.Cloud
module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap

(* seed a cloud with n instances and matching state *)
let seeded n =
  let cloud = fresh_cloud ~seed:17 () in
  let state = ref State.empty in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "r%d" i in
    match
      Cloud.run_sync cloud
        ~actor:(Cloudless_sim.Activity_log.Iac_engine "setup")
        (Cloud.Create
           {
             rtype = "aws_instance";
             region = "us-east-1";
             attrs = Smap.singleton "name" (Value.Vstring name);
           })
    with
    | Ok attrs ->
        let cloud_id = Value.to_string (Smap.find "id" attrs) in
        state :=
          State.add !state
            {
              State.addr = Addr.make ~rtype:"aws_instance" ~rname:name ();
              cloud_id;
              rtype = "aws_instance";
              region = "us-east-1";
              recorded = State.Recorded.of_map attrs;
              deps = [];
            }
    | Error _ -> assert false
  done;
  (cloud, !state)

(* team t owns resources [t*per .. t*per+per-1]; an "overlapping" update
   touches resource 0 (shared hot spot) instead *)
let queues ~teams ~updates ~per ~overlap_every =
  List.init teams (fun t ->
      List.init updates (fun u ->
          let shared = overlap_every > 0 && u mod overlap_every = 0 && t > 0 in
          let target =
            if shared then Addr.make ~rtype:"aws_instance" ~rname:"r0" ()
            else
              Addr.make ~rtype:"aws_instance"
                ~rname:(Printf.sprintf "r%d" ((t * per) + (u mod per)))
                ()
          in
          {
            Team_sim.team = Printf.sprintf "team-%d" t;
            addrs = [ target ];
            tag = Printf.sprintf "t%d-u%d" t u;
          }))

let run_case ~teams ~overlap_every label =
  let per = 4 and updates = 5 in
  let run granularity =
    let cloud, state = seeded (teams * per) in
    let store = Txn.create_store state in
    Team_sim.run cloud ~store ~granularity
      (queues ~teams ~updates ~per ~overlap_every)
  in
  let g = run Lock_manager.Global in
  let f = run Lock_manager.Per_resource in
  row
    [ 10; 12; 12; 12; 10; 10; 8 ]
    [
      string_of_int teams;
      label;
      fmt_s g.Team_sim.makespan;
      fmt_s f.Team_sim.makespan;
      string_of_int g.Team_sim.lock_waits;
      string_of_int f.Team_sim.lock_waits;
      fmt_x (g.Team_sim.makespan /. f.Team_sim.makespan);
    ];
  (g, f)

let run () =
  section "E3: concurrent updates — global lock vs per-resource locks";
  row [ 10; 12; 12; 12; 10; 10; 8 ]
    [ "teams"; "overlap"; "global"; "per-res"; "g-waits"; "f-waits"; "speedup" ];
  hline [ 10; 12; 12; 12; 10; 10; 8 ];
  let disjoint =
    List.map
      (fun teams -> run_case ~teams ~overlap_every:0 "none")
      [ 2; 4; 8; 16 ]
  in
  let overlapping =
    List.map
      (fun teams -> run_case ~teams ~overlap_every:2 "1-in-2")
      [ 4; 8 ]
  in
  let speedup (g, f) = g.Team_sim.makespan /. f.Team_sim.makespan in
  Printf.printf
    "\n  shape check: disjoint speedup grows with team count (%.1fx at 2 teams\n\
    \  -> %.1fx at 16); overlap caps the win (%.1fx at 8 teams, 1-in-2 shared).\n"
    (speedup (List.nth disjoint 0))
    (speedup (List.nth disjoint 3))
    (speedup (List.nth overlapping 1))
