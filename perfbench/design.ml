(* The three workloads: a fixed broadcast design per workload, and how
   each round's requests and faults are drawn from the run seed.

   The designs do not depend on the seed, so set-up cost and program
   shape are the same in every run; the seed drives the file contents,
   the tune-in slots, the file picks and the loss placements. *)

module File_spec = Pindisk.File_spec
module Cohort = Pindisk_sim.Cohort

(* Where a batch retrieval's scripted losses fall. Each retrieval loses
   [L <= r_i] receptions of its own file — the paper's fault model — so
   completion within [B·T_i] is guaranteed. [Random] losses fall on a
   uniform [L]-subset of the file's first [m_i + L] receptions; [Source]
   ones on the first [L] receptions that carry a source block, which
   forces decoding from parity. *)
type placement = Random | Source

(* A round's requests. A [Batch] is [size] retrievals over real bytes,
   each with scripted in-budget losses, at uniformly random tune-in
   slots, its files apportioned to Zipf([theta]); the same requests then
   run through [Cohort.run]. A [Trace] is a [Workload.ycsb] flash-crowd
   trace under burst faults, simulated by [Cohort.run]; every
   [sample_every]-th request of it is also retrieved over real bytes. *)
type requests =
  | Batch of { size : int; theta : float; placement : placement }
  | Trace of {
      rate : float;
      horizon : int;
      model : Cohort.model;
      sample_every : int;
    }

type t = {
  name : string;
  specs : File_spec.t list;
  size : int -> int;  (** bytes of file [i] *)
  requests : requests;
}

(* 64 files of 0.5 to 8 KiB in four latency classes, the hottest files with
   the tightest latency. Latencies 9/15/25/45 give a period of 28,080
   slots: large enough that the O(period) scans dominate a retrieval,
   small enough to set up in about a third of a second. *)
let catalog_specs =
  List.init 64 (fun i ->
      File_spec.make ~id:i
        ~blocks:[| 2; 3; 4; 6; 8 |].(i mod 5)
        ~tolerance:(1 + (i mod 3))
        ~latency:[| 9; 15; 25; 45 |].(i / 16)
        ())

let catalog_size specs i =
  let f = List.nth specs i in
  (f.File_spec.blocks * 256 * (1 + (i mod 4))) - (i mod 7)

(* A handful of MiB-scale files on a period of tens of slots: the codec
   does nearly all the work. Sizes are not all multiples of [m], so
   padding is exercised. *)
let bulk_specs =
  [
    File_spec.make ~id:0 ~blocks:4 ~tolerance:2 ~latency:1 ();
    File_spec.make ~id:1 ~blocks:8 ~tolerance:3 ~latency:2 ();
    File_spec.make ~id:2 ~blocks:8 ~tolerance:4 ~latency:2 ();
    File_spec.make ~id:3 ~blocks:16 ~tolerance:4 ~latency:4 ();
    File_spec.make ~id:4 ~blocks:8 ~tolerance:2 ~latency:4 ();
  ]

let bulk_size i = [| 1 lsl 19; 1 lsl 20; 1 lsl 20; 2 lsl 20; (1 lsl 20) + 5 |].(i)

(* Gilbert–Elliott bursts: ~7% of slots in the bad state, where 60% of
   receptions are lost. Bursts can exceed [r_i], so some requests miss:
   that is a simulation outcome, not a failed operation. *)
let burst =
  Cohort.Burst
    { p_good_to_bad = 0.02; p_bad_to_good = 0.25; loss_good = 0.01; loss_bad = 0.6 }

let all =
  [
    {
      name = "catalog";
      specs = catalog_specs;
      size = catalog_size catalog_specs;
      requests = Batch { size = 100; theta = 0.99; placement = Random };
    };
    {
      name = "bulk";
      specs = bulk_specs;
      size = bulk_size;
      requests = Batch { size = 50; theta = 0.0; placement = Source };
    };
    {
      name = "population";
      specs = catalog_specs;
      size = catalog_size catalog_specs;
      requests =
        Trace { rate = 0.06; horizon = 7_020; model = burst; sample_every = 4 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
