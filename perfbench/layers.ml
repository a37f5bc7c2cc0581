(* The traced run: the workload's rounds again, then each layer's public
   calls timed from outside on the same program and requests. None of
   this runs in an end-to-end run. *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Bandwidth = Pindisk.Bandwidth
module Scheduler = Pindisk_pinwheel.Scheduler
module Verify = Pindisk_pinwheel.Verify
module Plan = Pindisk_pinwheel.Plan
module Ida = Pindisk_ida.Ida
module Transport = Pindisk_sim.Transport
module Fault = Pindisk_sim.Fault
module Drive = Pindisk_sim.Drive
module Cohort = Pindisk_sim.Cohort
module Engine = Pindisk_sim.Engine
module Stats = Pindisk_util.Stats
module Intmath = Pindisk_util.Intmath
module P = Pipeline

(* Slot-path probes walk this many slots, whatever the period. *)
let probe_slots = 1_000_000

let per_call_ns n f =
  let t0 = P.now () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (f i))
  done;
  (P.now () -. t0) *. 1e9 /. float_of_int n

let median_s reps f =
  P.median
    (List.init reps (fun _ ->
         Gc.full_major ();
         snd (P.timed f)))

(* Calls each round's probes make of [Program.data_cycle] and
   [Program.files]. *)
let probe_calls = 3

let run (env : P.env) (acc : P.acc) ~seed ~seconds =
  let t_start = P.now () in
  let { P.w; r; spec; content; _ } = env in
  (* The rounds of an end-to-end run, each followed by a probe of the
     O(period) calls, so that the probes see the same stretch of host
     speed as the retrievals they are compared with. *)
  let data_cycle_s = ref 0.0 and files_s = ref 0.0 and rounds_s = ref 0.0 in
  let setups_s = ref 0.0 in
  let first = ref None and index = ref 0 in
  while !index = 0 || P.now () -. t_start < seconds do
    let round, dt = P.timed (fun () -> P.run_round env acc ~seed ~index:!index) in
    rounds_s := !rounds_s +. dt;
    if !first = None then first := Some round;
    let probe f = snd (P.timed (fun () -> for _ = 1 to probe_calls do ignore (Sys.opaque_identity (f r.program)) done)) in
    (* from a collected heap, as a round's retrievals start *)
    Gc.full_major ();
    data_cycle_s := !data_cycle_s +. probe Program.data_cycle;
    files_s := !files_s +. probe Program.files;
    (* set-ups between rounds, as in an end-to-end run, kept out of
       [trace.overhead] *)
    let elapsed = P.now () -. t_start in
    setups_s := !setups_s +. snd (P.timed (fun () -> P.more_setups env acc ~elapsed ~seconds));
    incr index
  done;
  setups_s :=
    !setups_s +. snd (P.timed (fun () -> P.more_setups env acc ~elapsed:infinity ~seconds));
  let first = Option.get !first in
  let calls = float_of_int (probe_calls * !index) in
  let data_cycle_s = !data_cycle_s /. calls and files_s = !files_s /. calls in
  let nret = Stats.count acc.ret_ms in
  let sys = Bandwidth.tasks ~bandwidth:r.bandwidth w.specs in
  let demand = Pindisk_util.Q.ceil (Bandwidth.demand w.specs) in
  (* core *)
  let block_at_ns = per_call_ns probe_slots (Program.block_at r.program) in
  let program_mb = float_of_int (Obj.reachable_words (Obj.repr r.program) * 8) /. 1e6 in
  (* pinwheel *)
  let plan_s = median_s 3 (fun () -> Scheduler.plan sys) in
  let schedule_s = median_s 3 (fun () -> Scheduler.schedule sys) in
  let verified = ref true in
  let verify_s =
    median_s 3 (fun () -> if not (Verify.satisfies_plan r.plan sys) then verified := false)
  in
  let dispatch_ns =
    let d = Plan.create r.plan in
    per_call_ns probe_slots (fun _ -> Plan.next d)
  in
  (* ida: the benchmark's own dispersal contexts, so the codec can be
     timed and its inverse cache read apart from the transport *)
  let idas = Array.map (fun f -> Ida.create ~m:f.File_spec.blocks) spec in
  let disperse () =
    Array.map (fun f -> Ida.disperse idas.(f.File_spec.id) ~n:f.File_spec.capacity content.(f.File_spec.id)) spec
  in
  let disperse_s = median_s 3 disperse in
  let pieces = disperse () in
  let retrieved = Array.map (fun k -> first.P.requests.(k)) first.P.retrieved in
  let decoded_ok = ref true in
  Gc.full_major ();
  let reconstruct_s =
    Array.fold_left
      (fun total (q : P.request) ->
        let ps = List.map (fun i -> pieces.(q.file).(i)) q.pieces in
        let length = Bytes.length content.(q.file) in
        let b, dt = P.timed (fun () -> Ida.reconstruct idas.(q.file) ~length ps) in
        if not (Bytes.equal b content.(q.file)) then decoded_ok := false;
        total +. dt)
      0.0 retrieved
  in
  let nfirst = float_of_int (Array.length retrieved) in
  let reconstruct_us = reconstruct_s /. nfirst *. 1e6 in
  let parity =
    Array.fold_left
      (fun c (q : P.request) ->
        if List.exists (fun i -> i >= spec.(q.file).File_spec.blocks) q.pieces then c + 1 else c)
      0 retrieved
  in
  let hits, misses =
    Array.fold_left
      (fun (h, m) ida ->
        let h', m' = Ida.cache_stats ida in
        (h + h', m + m'))
      (0, 0) idas
  in
  (* sim *)
  let words0 = Gc.minor_words () in
  let on_air_ns = per_call_ns probe_slots (Transport.on_air r.transport) in
  let on_air_words = (Gc.minor_words () -. words0) /. float_of_int probe_slots in
  let fault =
    match w.requests with
    | Design.Batch _ -> P.scripted_fault first.P.requests.(0)
    | Design.Trace { model; _ } -> Cohort.fault_of_model model ~seed
  in
  Fault.reset_to fault 0;
  let fault_ns = per_call_ns probe_slots (fun _ -> Fault.advance fault) in
  let burst = match w.requests with Design.Trace { model; _ } -> Some model | Design.Batch _ -> None in
  let retrieve ?max_slots k =
    let q = first.P.requests.(k) in
    let inner =
      Option.map
        (fun model -> Cohort.fault_of_model model ~seed:(Intmath.mix64 (first.P.cohort_seed + k)))
        burst
    in
    let fault, _ = P.observed inner q in
    snd (P.timed (fun () -> Transport.retrieve_result ?max_slots r.transport ~file:q.file ~start:q.start ~fault ()))
  in
  let budgeted_ms =
    P.median
      (Array.to_list
         (Array.map
            (fun k -> retrieve ~max_slots:(P.window r spec.(first.P.requests.(k).file)) k)
            first.P.retrieved))
    *. 1e3
  in
  let prepare_s = median_s 3 (fun () -> Drive.prepare r.plan) in
  let classes = List.length (Cohort.classes_of_trace ~period:(Program.period r.program) first.P.trace) in
  let engine, engine_s =
    P.timed (fun () -> Engine.run ~program:r.program ~fault:first.P.fault ~seed:first.P.cohort_seed first.P.trace)
  in
  let engine_ok =
    let a = engine and b = first.P.result in
    a.Engine.completed = b.Engine.completed && a.Engine.missed = b.Engine.missed
    && a.Engine.losses = b.Engine.losses
  in
  (* obs: the same retrievals with the switch off and on, alternating
     which goes first *)
  let off = ref 0.0 and on = ref 0.0 in
  Array.iteri
    (fun i k ->
      let go enabled = Pindisk_obs.Control.with_enabled enabled (fun () -> retrieve k) in
      if i land 1 = 0 then begin
        off := !off +. go false;
        on := !on +. go true
      end
      else begin
        on := !on +. go true;
        off := !off +. go false
      end)
    first.P.retrieved;
  (* attribution of the run's real-byte retrievals *)
  let n = float_of_int nret in
  (* Only a batch's retrievals take the default budget, which calls
     [Program.data_cycle]; a trace's pass the budget themselves. *)
  let data_cycle_calls = match w.requests with Design.Batch _ -> n | Design.Trace _ -> 0.0 in
  let slots = float_of_int acc.slots in
  let layer_sum =
    (data_cycle_calls *. data_cycle_s) +. (slots *. (on_air_ns +. fault_ns) *. 1e-9) +. (n *. reconstruct_s /. nfirst)
  in
  if not (!verified && !decoded_ok && engine_ok) then acc.failed <- acc.failed + 1;
  let total_s = P.now () -. t_start -. !setups_s in
  let ms s = s *. 1e3 in
  [
    ("core.auto_s", P.median (List.map (fun t -> t.P.auto) acc.setups), "s");
    ("core.bandwidths_tried", float_of_int (r.bandwidth - demand + 1), "count");
    ("core.data_cycle_ms", ms data_cycle_s, "ms");
    ("core.files_ms", ms files_s, "ms");
    ("core.block_at_ns", block_at_ns, "ns");
    ("core.program_mb", program_mb, "MB");
    ("pinwheel.plan_s", plan_s, "s");
    ("pinwheel.schedule_s", schedule_s, "s");
    ("pinwheel.verify_s", verify_s, "s");
    ("pinwheel.period_slots", float_of_int (Program.period r.program), "slots");
    ("pinwheel.dispatch_ns", dispatch_ns, "ns");
    ("ida.disperse_ms", ms disperse_s, "ms");
    ("ida.reconstruct_us", reconstruct_us, "us");
    ("ida.encode_passes", float_of_int acc.encode_passes /. n, "count");
    ("ida.parity_share", float_of_int parity /. nfirst, "ratio");
    ("ida.inverse_hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio");
    ("sim.create_ms", ms (P.median (List.map (fun t -> t.P.create) acc.setups)), "ms");
    ("sim.on_air_ns", on_air_ns, "ns");
    ("sim.on_air_words", on_air_words, "words");
    ("sim.fault_ns", fault_ns, "ns");
    ("sim.slots_per_retrieval", slots /. n, "slots");
    ("sim.retrieve_budgeted_ms", budgeted_ms, "ms");
    ("sim.prepare_ms", ms prepare_s, "ms");
    ("sim.requests_per_class", float_of_int (List.length first.P.trace) /. float_of_int classes, "count");
    ("sim.cohort_run_s", acc.cohort_s /. float_of_int acc.rounds, "s");
    ("sim.engine_run_s", engine_s, "s");
    ("obs.metrics_on_ratio", !on /. !off, "ratio");
    ("trace.coverage", layer_sum /. acc.ret_s, "ratio");
    ("trace.data_cycle_share", data_cycle_calls *. data_cycle_s /. acc.ret_s, "ratio");
    ("trace.overhead", total_s /. !rounds_s, "ratio");
  ]
