(* Reference figures for perfbench/README.md.

   dune exec perfbench/figures/figures.exe -- program-size
     how the reachable size of a Program.t grows with its period
   dune exec perfbench/figures/figures.exe -- cohort
     Cohort.run in trace mode against the analytic Cohort.run_population
     on the same classes
   dune exec perfbench/figures/figures.exe -- overflow
     reproduces the Intmath.Overflow raised by Program.auto on a 16-file
     design whose latencies are the primes 2..53 *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Bandwidth = Pindisk.Bandwidth
module Scheduler = Pindisk_pinwheel.Scheduler
module Workload = Pindisk_sim.Workload
module Drive = Pindisk_sim.Drive
module Cohort = Pindisk_sim.Cohort

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* The catalog's shape (64 files, m in {2,3,4,6,8}, r = 1 + i mod 3)
   over other latency classes, and one with larger m. *)
let design ?(ms = [| 2; 3; 4; 6; 8 |]) lat =
  List.init 64 (fun i ->
      File_spec.make ~id:i ~blocks:ms.(i mod 5) ~tolerance:(1 + (i mod 3))
        ~latency:lat.(i / 16) ())

let program_size () =
  print_endline "| latency classes | m | B | period (slots) | program (MB) | MB per 1k slots |";
  print_endline "|---|---|---|---:|---:|---:|";
  List.iter
    (fun (ms, lat) ->
      match Program.auto (design ~ms lat) with
      | None -> ()
      | Some (b, p) ->
          let period = Program.period p in
          let mb = float_of_int (Obj.reachable_words (Obj.repr p) * 8) /. 1e6 in
          let show a = String.concat "/" (Array.to_list (Array.map string_of_int a)) in
          Printf.printf "| %s | %s | %d | %d | %.2f | %.3f |\n" (show lat) (show ms) b period mb
            (mb /. float_of_int period *. 1000.0);
          Gc.full_major ())
    [
      ([| 2; 3; 4; 6; 8 |], [| 4; 6; 10; 15 |]);
      ([| 2; 3; 4; 6; 8 |], [| 10; 15; 24; 40 |]);
      ([| 2; 3; 4; 6; 8 |], [| 6; 9; 15; 24 |]);
      ([| 2; 3; 4; 6; 8 |], [| 12; 18; 30; 45 |]);
      ([| 2; 3; 4; 6; 8 |], [| 9; 15; 25; 45 |]);
      ([| 2; 4; 6; 8; 12 |], [| 9; 15; 25; 45 |]);
    ]

let cohort () =
  let specs = design [| 9; 15; 25; 45 |] in
  let b, program = Option.get (Program.auto specs) in
  let plan = Option.get (Scheduler.plan (Bandwidth.tasks ~bandwidth:b specs)) in
  let prep = Drive.prepare plan in
  let capacities = List.map (fun f -> (f.File_spec.id, f.File_spec.capacity)) specs in
  let spec = Array.of_list specs in
  let horizon = 10 * Program.period program in
  let trace =
    Workload.ycsb ~program ~rate:0.07
      ~popularity:(Workload.Zipfian { theta = 0.99 })
      ~arrivals:(Workload.Flash { at = horizon / 2; magnitude = 8.0; width = horizon / 20 })
      ~needed_of:(fun f -> spec.(f).File_spec.blocks)
      ~deadline_of:(fun f -> File_spec.window spec.(f) ~bandwidth:b)
      ~horizon ~seed:1
  in
  let model = Cohort.Bernoulli { p = 0.05 } in
  let classes = Cohort.classes_of_trace ~period:(Program.period program) trace in
  let traced, trace_s =
    timed (fun () ->
        Cohort.run ~prep ~plan ~capacities ~fault:(Cohort.fault_of_model model) ~seed:1 trace)
  in
  let folded, fold_s =
    timed (fun () -> Cohort.run_population ~prep ~plan ~capacities ~model ~seed:1 classes)
  in
  Printf.printf "requests %d, classes %d\n" (List.length trace) (List.length classes);
  Printf.printf "Cohort.run (trace mode):       %.2f s, completed %d, missed %d\n" trace_s
    traced.Pindisk_sim.Engine.completed traced.Pindisk_sim.Engine.missed;
  Printf.printf "Cohort.run_population (folded): %.2f s, completed %d, missed %d\n" fold_s
    folded.Pindisk_sim.Engine.completed folded.Pindisk_sim.Engine.missed

let overflow () =
  let primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53 ] in
  let specs =
    List.mapi (fun i t -> File_spec.make ~id:i ~blocks:4 ~tolerance:2 ~latency:t ()) primes
  in
  match Program.auto specs with
  | exception Pindisk_util.Intmath.Overflow ->
      print_endline "Program.auto raised Pindisk_util.Intmath.Overflow";
      exit 1
  | Some (b, _) -> Printf.printf "Program.auto chose B = %d\n" b
  | None -> print_endline "Program.auto found no bandwidth"

let () =
  match Sys.argv with
  | [| _; "program-size" |] -> program_size ()
  | [| _; "cohort" |] -> cohort ()
  | [| _; "overflow" |] -> overflow ()
  | _ ->
      prerr_endline "usage: figures.exe program-size|cohort|overflow";
      exit 2
