(* The end-to-end pipeline a workload drives: set-up (bandwidth search,
   schedule and verification, dispersal), then rounds of retrievals over
   real bytes and population runs, each output checked against values the
   benchmark computes itself from [Program.block_at]. *)

module File_spec = Pindisk.File_spec
module Program = Pindisk.Program
module Bandwidth = Pindisk.Bandwidth
module Scheduler = Pindisk_pinwheel.Scheduler
module Plan = Pindisk_pinwheel.Plan
module Transport = Pindisk_sim.Transport
module Fault = Pindisk_sim.Fault
module Workload = Pindisk_sim.Workload
module Drive = Pindisk_sim.Drive
module Cohort = Pindisk_sim.Cohort
module Engine = Pindisk_sim.Engine
module Stats = Pindisk_util.Stats
module Intmath = Pindisk_util.Intmath

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  Stats.median s

(* Wrong answers the self-tests feed the checks, one per check. *)
type inject = No_inject | Flip_byte | Over_budget | Cohort_off_by_one

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type ready = {
  bandwidth : int;
  program : Program.t;
  transport : Transport.t;
  plan : Plan.t;
  prep : Drive.prep;
  data_cycle : int;
}

type setup_times = {
  auto : float;
  create : float;
  plan_t : float;
  prepare : float;
}

let capacities (w : Design.t) =
  List.map (fun f -> (f.File_spec.id, f.File_spec.capacity)) w.specs

let plan_and_prep (w : Design.t) bandwidth =
  let plan, plan_t =
    timed (fun () -> Scheduler.plan (Bandwidth.tasks ~bandwidth w.specs))
  in
  let plan =
    match plan with
    | Some p -> p
    | None -> failwith "Scheduler.plan failed at the bandwidth Program.auto chose"
  in
  let prep, prepare = timed (fun () -> Drive.prepare plan) in
  (plan, prep, plan_t, prepare)

let build (w : Design.t) contents =
  let auto_result, auto = timed (fun () -> Program.auto w.specs) in
  let bandwidth, program =
    match auto_result with
    | Some bp -> bp
    | None -> failwith "Program.auto found no bandwidth"
  in
  let transport, create =
    timed (fun () ->
        Transport.create ~program
          (List.map
             (fun f -> (f.File_spec.id, f.File_spec.blocks, contents.(f.File_spec.id)))
             w.specs))
  in
  (bandwidth, program, transport, auto, create)

(* One set-up from a fully collected heap. A [Trace] workload's set-up
   also covers the plan and [Drive.prepare]; the others build those once,
   untimed, for their [Cohort.run] cross-check. *)
let setup_once (w : Design.t) contents =
  Gc.full_major ();
  let bandwidth, program, transport, auto, create = build w contents in
  let pp =
    match w.requests with
    | Design.Trace _ -> Some (plan_and_prep w bandwidth)
    | Design.Batch _ -> None
  in
  let plan_t, prepare = match pp with Some (_, _, a, b) -> (a, b) | None -> (0.0, 0.0) in
  ({ auto; create; plan_t; prepare }, (bandwidth, program, transport, pp))

(* The first set-up, which builds the program the run uses. *)
let setup (w : Design.t) contents =
  let t, (bandwidth, program, transport, pp) = setup_once w contents in
  let plan, prep, _, _ =
    match pp with Some pp -> pp | None -> plan_and_prep w bandwidth
  in
  let ready =
    {
      bandwidth;
      program;
      transport;
      plan;
      prep;
      data_cycle = Program.data_cycle program;
    }
  in
  (ready, t)

let setup_seconds (t : setup_times) = t.auto +. t.create +. t.plan_t +. t.prepare

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let contents (w : Design.t) ~seed =
  Array.of_list
    (List.map
       (fun f ->
         let id = f.File_spec.id in
         let st = Random.State.make [| seed; id; 0xc0de |] in
         Bytes.init (w.size id) (fun _ -> Char.unsafe_chr (Random.State.bits st land 255)))
       w.specs)

let spec_table (w : Design.t) =
  let a = Array.of_list w.specs in
  Array.iteri
    (fun i f -> if f.File_spec.id <> i then invalid_arg "file ids must be 0..n-1")
    a;
  a

let window r (f : File_spec.t) = File_spec.window f ~bandwidth:r.bandwidth

(* One request with the outcome the benchmark's own replay predicts. *)
type request = {
  file : int;
  start : int;
  lost : int array;  (** absolute slots lost, for scripted faults *)
  expect : int option;  (** slots from tune-in to completion; [None] expired *)
  expect_losses : int;  (** own-file receptions lost before completion *)
  pieces : int list;  (** piece indices collected, in reverse order *)
}

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A batch's fixed make-up: [size] (file, losses) pairs, the files
   apportioned to Zipf([theta]) by largest remainder and each file's
   k-th request losing [k mod (r_i + 1)] receptions. Every round of every
   run retrieves the same make-up in a seeded order, so the file-size
   and loss mix — which sets the codec's work — does not vary with the
   seed. *)
let batch_mix spec ~size ~theta =
  let n = Array.length spec in
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let quota = Array.map (fun x -> x /. total *. float_of_int size) w in
  let count = Array.map truncate quota in
  let short = size - Array.fold_left ( + ) 0 count in
  let by_remainder = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> compare (quota.(b) -. floor quota.(b)) (quota.(a) -. floor quota.(a)))
    by_remainder;
  for i = 0 to short - 1 do
    count.(by_remainder.(i)) <- count.(by_remainder.(i)) + 1
  done;
  Array.of_list
    (List.concat
       (List.init n (fun f ->
            List.init count.(f) (fun k -> (f, k mod (spec.(f).File_spec.tolerance + 1))))))

let mem_int x a =
  let rec go i = i < Array.length a && (a.(i) = x || go (i + 1)) in
  go 0

(* Walk the program from [start] with [Program.block_at], losing the
   receptions [lose] picks, until [m] distinct pieces of [file] are in. *)
let scripted_walk r (f : File_spec.t) ~start ~lose =
  let m = f.File_spec.blocks in
  let seen = Array.make f.File_spec.capacity false in
  let rec walk slot ord nlost distinct lost pieces =
    match Program.block_at r.program slot with
    | Some (g, idx) when g = f.File_spec.id ->
        if lose ~ord ~idx ~nlost then
          walk (slot + 1) (ord + 1) (nlost + 1) distinct (slot :: lost) pieces
        else if seen.(idx) then walk (slot + 1) (ord + 1) nlost distinct lost pieces
        else begin
          seen.(idx) <- true;
          if distinct + 1 = m then
            {
              file = f.File_spec.id;
              start;
              lost = Array.of_list lost;
              expect = Some (slot - start + 1);
              expect_losses = nlost;
              pieces = idx :: pieces;
            }
          else walk (slot + 1) (ord + 1) nlost (distinct + 1) lost (idx :: pieces)
        end
    | _ -> walk (slot + 1) ord nlost distinct lost pieces
  in
  walk start 0 0 0 [] []

(* [l <= r_i] in-budget losses. [Random] places them on a
   uniform L-subset of the first [m_i + L] receptions, [Source] on the
   first L receptions that carry a source block. *)
let scripted_request r (f : File_spec.t) placement st ~losses:l ~start =
  let m = f.File_spec.blocks in
  let lose =
    match (placement : Design.placement) with
    | Source -> fun ~ord:_ ~idx ~nlost -> idx < m && nlost < l
    | Random ->
        let ords = Array.init (m + l) Fun.id in
        for i = 0 to l - 1 do
          let j = i + Random.State.int st (m + l - i) in
          let t = ords.(i) in
          ords.(i) <- ords.(j);
          ords.(j) <- t
        done;
        let chosen = Array.sub ords 0 l in
        fun ~ord ~idx:_ ~nlost:_ -> mem_int ord chosen
  in
  scripted_walk r f ~start ~lose

(* One reception over budget: the first [r_i + 1] receptions lost. *)
let over_budget_request r (f : File_spec.t) ~start =
  let over = f.File_spec.tolerance + 1 in
  scripted_walk r f ~start ~lose:(fun ~ord ~idx:_ ~nlost:_ -> ord < over)

(* Replay of [Cohort.run]'s request [k]: the fault process it is given
   is seeded [mix64 (seed + k)], reset at the issue slot and advanced
   once per slot; the walk reads the program through [Program.block_at]. *)
let burst_replay r model ~max_slots ~seed k (q : Workload.request) =
  let fault = Cohort.fault_of_model model ~seed:(Intmath.mix64 (seed + k)) in
  Fault.reset_to fault q.Workload.issued;
  let seen = Array.make (Program.capacity r.program q.Workload.file) false in
  let rec walk d distinct losses pieces =
    if d >= max_slots then (None, losses, pieces)
    else begin
      let lost = Fault.advance fault in
      match Program.block_at r.program (q.Workload.issued + d) with
      | Some (g, idx) when g = q.Workload.file ->
          if lost then walk (d + 1) distinct (losses + 1) pieces
          else if seen.(idx) then walk (d + 1) distinct losses pieces
          else begin
            seen.(idx) <- true;
            if distinct + 1 >= q.Workload.needed then
              (Some (d + 1), losses, idx :: pieces)
            else walk (d + 1) (distinct + 1) losses (idx :: pieces)
          end
      | _ -> walk (d + 1) distinct losses pieces
    end
  in
  let expect, expect_losses, pieces = walk 0 0 0 [] in
  { file = q.Workload.file; start = q.Workload.issued; lost = [||]; expect; expect_losses; pieces }

(* ------------------------------------------------------------------ *)
(* The program's own guarantee, recounted                              *)
(* ------------------------------------------------------------------ *)

(* For every file, the fewest distinct pieces in any window of [B·T_i]
   slots starting within one period, and a start where it occurs —
   a sliding count over [Program.block_at], independent of [Verify]. *)
let window_coverage r spec =
  let p = Program.period r.program in
  let n = Array.length spec in
  let maxw = Array.fold_left (fun acc f -> max acc (window r f)) 0 spec in
  let occ = Array.make n [] in
  for s = p + maxw - 1 downto 0 do
    match Program.block_at r.program s with
    | Some (f, idx) -> occ.(f) <- (s, idx) :: occ.(f)
    | None -> ()
  done;
  Array.mapi
    (fun fid lst ->
      let a = Array.of_list lst in
      let w = window r spec.(fid) in
      let cnt = Array.make spec.(fid).File_spec.capacity 0 in
      let distinct = ref 0 and lo = ref 0 and hi = ref 0 in
      let best = ref max_int and at = ref 0 in
      for start = 0 to p - 1 do
        while !hi < Array.length a && fst a.(!hi) < start + w do
          let idx = snd a.(!hi) in
          if cnt.(idx) = 0 then incr distinct;
          cnt.(idx) <- cnt.(idx) + 1;
          incr hi
        done;
        while !lo < !hi && fst a.(!lo) < start do
          let idx = snd a.(!lo) in
          cnt.(idx) <- cnt.(idx) - 1;
          if cnt.(idx) = 0 then decr distinct;
          incr lo
        done;
        if !distinct < !best then begin
          best := !distinct;
          at := start
        end
      done;
      (!best, !at))
    occ

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* One round's timed work. *)
type round_stat = {
  lat_ms : float array;  (** wall time of each real-byte retrieval *)
  ok : int;  (** retrievals that passed their checks *)
  bytes : int;  (** their payload bytes *)
  busy_s : float;  (** summed wall time of the round's retrievals *)
  clients : int;  (** requests [Cohort.run] simulated *)
  cohort_s : float;  (** its wall time *)
}

type acc = {
  ret_ms : Stats.t;  (** wall time of each real-byte retrieval *)
  waits : Stats.t;  (** slots from tune-in to completion, per client *)
  mutable ret_s : float;
  mutable ret_ok : int;
  mutable bytes_ok : int;
  mutable slots : int;  (** slots watched by real-byte retrievals *)
  mutable encode_passes : int;
  mutable cohort_s : float;
  mutable attempted : int;
  mutable failed : int;
  mutable rounds : int;
  mutable log : round_stat list;  (** every round, latest first *)
  mutable setups : setup_times list;
  mutable setups_agree : bool;  (** every set-up found the same program *)
}

let acc first_setup =
  {
    ret_ms = Stats.create ();
    waits = Stats.create ();
    ret_s = 0.0;
    ret_ok = 0;
    bytes_ok = 0;
    slots = 0;
    encode_passes = 0;
    cohort_s = 0.0;
    attempted = 0;
    failed = 0;
    rounds = 0;
    log = [];
    setups = [ first_setup ];
    setups_agree = true;
  }

(* What a round ran, kept so the traced run can replay it layer by
   layer. [retrieved] are the requests also retrieved over real bytes. *)
type round = {
  trace : Workload.request list;
  requests : request array;  (** replay of every trace request *)
  retrieved : int array;  (** trace indices retrieved over real bytes *)
  fault : seed:int -> Fault.t;  (** as handed to [Cohort.run] *)
  cohort_seed : int;
  result : Engine.result;
}

type env = {
  w : Design.t;
  r : ready;
  spec : File_spec.t array;
  content : bytes array;
  mix : (int * int) array;  (** a batch's (file, losses) make-up *)
  tight : int * int;  (** a file and a window start with no slack *)
  inject : inject;
}

let scripted_fault (q : request) = Fault.deterministic (fun t -> mem_int t q.lost)

(* The fault a real-byte retrieval gets: the request's own process,
   wrapped to record the last slot the transport watched. *)
let observed inner (q : request) =
  let last = ref (q.start - 1) in
  let fault =
    match inner with
    | None -> Fault.deterministic (fun t -> last := t; mem_int t q.lost)
    | Some inner ->
        Fault.reset_to inner q.start;
        Fault.deterministic (fun t -> last := t; Fault.advance inner)
  in
  (fault, last)

(* Whether a [Cohort.run] result equals the replayed outcomes, folded in
   trace order as [Retire] folds them. *)
let agrees (res : Engine.result) requests spec r =
  let completed = ref 0 and missed = ref 0 and losses = ref 0 in
  let total = ref 0.0 in
  Array.iter
    (fun q ->
      losses := !losses + q.expect_losses;
      match q.expect with
      | Some e ->
          incr completed;
          total := !total +. float_of_int e;
          if e > window r spec.(q.file) then incr missed
      | None -> incr missed)
    requests;
  let mean = if !completed = 0 then 0.0 else !total /. float_of_int !completed in
  res.Engine.requests = Array.length requests
  && res.Engine.completed = !completed
  && res.Engine.missed = !missed
  && res.Engine.losses = !losses
  && (!completed = 0
     || Float.abs (Pindisk_util.Stats.mean res.Engine.latency -. mean)
        <= 1e-9 *. Float.max 1.0 mean)

let run_round env acc ~seed ~index =
  let { w; r; spec; content; _ } = env in
  let st = Random.State.make [| seed; index; 0x5107 |] in
  let first = index = 0 in
  let cohort_seed = Random.State.bits st in
  let max_slots = 100 * r.data_cycle in
  let trace, requests, retrieved, fault, burst =
    match w.requests with
    | Design.Batch { size; placement; _ } ->
        let order = Array.copy env.mix in
        shuffle st order;
        let requests =
          Array.init size (fun k ->
              if first && k = 0 && env.inject = Over_budget then
                let f, start = env.tight in
                over_budget_request r spec.(f) ~start
              else
                let fid, losses = order.(k) in
                let start = Random.State.int st r.data_cycle in
                scripted_request r spec.(fid) placement st ~losses ~start)
        in
        let by_seed = Hashtbl.create size in
        Array.iteri (fun k q -> Hashtbl.replace by_seed (Intmath.mix64 (cohort_seed + k)) q) requests;
        let fault ~seed = scripted_fault (Hashtbl.find by_seed seed) in
        let trace =
          Array.to_list
            (Array.map
               (fun q ->
                 let f = spec.(q.file) in
                 {
                   Workload.issued = q.start;
                   file = q.file;
                   needed = f.File_spec.blocks;
                   deadline = window r f;
                 })
               requests)
        in
        (trace, requests, Array.init size Fun.id, fault, None)
    | Design.Trace { rate; horizon; model; sample_every } ->
        let trace =
          Workload.ycsb ~program:r.program ~rate
            ~popularity:(Workload.Zipfian { theta = 0.99 })
            ~arrivals:(Workload.Flash { at = horizon / 2; magnitude = 8.0; width = horizon / 20 })
            ~needed_of:(fun f -> spec.(f).File_spec.blocks)
            ~deadline_of:(fun f -> window r spec.(f))
            ~horizon ~seed:(Random.State.bits st)
        in
        let requests =
          Array.of_list
            (List.mapi (burst_replay r model ~max_slots ~seed:cohort_seed) trace)
        in
        let n = Array.length requests in
        let retrieved = Array.init ((n + sample_every - 1) / sample_every) (fun i -> i * sample_every) in
        (trace, requests, retrieved, Cohort.fault_of_model model, Some model)
  in
  let n = Array.length requests in
  let failed = Array.make n false in
  let sample_failed = Array.make (Array.length retrieved) false in
  Gc.full_major ();
  let ret_s0 = acc.ret_s and ok0 = acc.ret_ok and bytes0 = acc.bytes_ok in
  let lat_ms = Array.make (Array.length retrieved) 0.0 in
  (* Real-byte retrievals, each timed alone. *)
  Array.iteri
    (fun i k ->
      let q = requests.(k) in
      let f = spec.(q.file) in
      let inner =
        Option.map
          (fun model -> Cohort.fault_of_model model ~seed:(Intmath.mix64 (cohort_seed + k)))
          burst
      in
      let fault, last = observed inner q in
      let passes = Pindisk_ida.Ida.encode_passes () in
      let t0 = now () in
      (* A batch's client takes the default budget, as most callers do;
         it costs one O(period) [Program.data_cycle] scan per call. A
         trace's client passes the same budget, [100 × data_cycle], itself,
         so that population measures the slot path and not that scan. *)
      let res =
        match burst with
        | None -> Transport.retrieve_result r.transport ~file:q.file ~start:q.start ~fault ()
        | Some _ ->
            Transport.retrieve_result r.transport ~max_slots ~file:q.file ~start:q.start
              ~fault ()
      in
      let dt = now () -. t0 in
      acc.encode_passes <- acc.encode_passes + Pindisk_ida.Ida.encode_passes () - passes;
      let wait = !last - q.start + 1 in
      let res =
        match res with
        | Ok b when first && i = 0 && env.inject = Flip_byte ->
            let b = Bytes.copy b in
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
            Ok b
        | res -> res
      in
      let ok =
        match (res, q.expect) with
        | Ok bytes, Some e ->
            Bytes.equal bytes content.(q.file)
            && wait = e
            && (burst <> None || wait <= window r f)
        | Error (Transport.Timeout _), None -> true
        | _ -> false
      in
      lat_ms.(i) <- dt *. 1e3;
      Stats.add acc.ret_ms (dt *. 1e3);
      acc.ret_s <- acc.ret_s +. dt;
      acc.slots <- acc.slots + wait;
      if burst = None then Stats.add acc.waits (float_of_int wait);
      if ok then begin
        acc.ret_ok <- acc.ret_ok + 1;
        acc.bytes_ok <- acc.bytes_ok + Bytes.length content.(q.file)
      end
      else sample_failed.(i) <- true)
    retrieved;
  (* The same requests through the population engine. *)
  let result, dt =
    timed (fun () ->
        Cohort.run ~prep:r.prep ~plan:r.plan ~capacities:(capacities w) ~fault
          ~seed:cohort_seed trace)
  in
  let result =
    if first && env.inject = Cohort_off_by_one then
      { result with Engine.completed = result.Engine.completed + 1 }
    else result
  in
  acc.log <-
    {
      lat_ms;
      ok = acc.ret_ok - ok0;
      bytes = acc.bytes_ok - bytes0;
      busy_s = acc.ret_s -. ret_s0;
      clients = n;
      cohort_s = dt;
    }
    :: acc.log;
  acc.cohort_s <- acc.cohort_s +. dt;
  if burst <> None then Stats.absorb acc.waits result.Engine.latency;
  if not (agrees result requests spec r) then Array.fill failed 0 n true;
  (* A batch's operations are its retrievals; a trace's are its
     simulated requests plus the sampled retrievals. *)
  let count a = Array.fold_left (fun c b -> if b then c + 1 else c) 0 a in
  (match burst with
  | None ->
      Array.iteri (fun i k -> if sample_failed.(i) then failed.(k) <- true) retrieved;
      acc.attempted <- acc.attempted + n;
      acc.failed <- acc.failed + count failed
  | Some _ ->
      acc.attempted <- acc.attempted + n + Array.length retrieved;
      acc.failed <- acc.failed + count failed + count sample_failed);
  acc.rounds <- acc.rounds + 1;
  { trace; requests; retrieved; fault; cohort_seed; result }

(* Set-up is timed [setup_reps] times and reported as the median: one
   set-up of the catalog ranged over ±12% between repetitions, and the
   host's speed moves by up to half over seconds. The first set-up
   builds the program the run uses; the others run between rounds, the
   [k]-th once [k/setup_reps] of the run has passed, so that they sample
   the whole run. Each must find the same bandwidth and period. *)
let setup_reps = 7

let more_setups env acc ~elapsed ~seconds =
  while
    List.length acc.setups < setup_reps
    && elapsed >= float_of_int (List.length acc.setups) *. seconds /. float_of_int setup_reps
  do
    let t, (bandwidth, program, _, _) = setup_once env.w env.content in
    acc.setups <- t :: acc.setups;
    if bandwidth <> env.r.bandwidth || Program.period program <> Program.period env.r.program
    then acc.setups_agree <- false
  done

(* Rounds are whole: the run stops at the first round boundary after
   [seconds] of wall time; set-ups still due run after it. *)
let run_rounds env acc ~seed ~seconds =
  let t0 = now () in
  let index = ref 0 in
  while !index = 0 || now () -. t0 < seconds do
    ignore (run_round env acc ~seed ~index:!index);
    more_setups env acc ~elapsed:(now () -. t0) ~seconds;
    incr index
  done;
  more_setups env acc ~elapsed:infinity ~seconds

let prepare (w : Design.t) ~seed inject =
  let content = contents w ~seed in
  let r, first_setup = setup w content in
  let spec = spec_table w in
  let coverage = window_coverage r spec in
  let covered =
    Array.for_all2
      (fun (best, _) f -> best >= f.File_spec.blocks + f.File_spec.tolerance)
      coverage spec
  in
  (* The file with the least slack over [m_i + r_i], for the over-budget
     self-test. *)
  let tight = ref (0, (max_int, 0)) in
  Array.iteri
    (fun fid (best, at) ->
      let f = spec.(fid) in
      let slack = best - f.File_spec.blocks - f.File_spec.tolerance in
      if slack < fst (snd !tight) then tight := (fid, (slack, at)))
    coverage;
  let fid, (slack, at) = !tight in
  let mix =
    match w.requests with
    | Design.Batch { size; theta; _ } -> batch_mix spec ~size ~theta
    | Design.Trace _ -> [||]
  in
  let env =
    {
      w;
      r;
      spec;
      content;
      mix;
      tight = (fid, at);
      inject;
    }
  in
  (env, first_setup, covered, slack)
