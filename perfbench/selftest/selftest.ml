(* Each case feeds one output check of the benchmark one wrong answer —
   a retrieved result with one flipped byte, a loss script one reception
   over [r_i] on a file whose window has no slack, a population result
   off by one completion — and expects the run to report failed
   operations and exit 1. A clean run must report none and exit 0. *)

let cases =
  [
    (None, "bulk", false);
    (Some "flip-byte", "bulk", true);
    (Some "over-budget", "bulk", true);
    (Some "cohort-off-by-one", "population", true);
  ]

let read_lines ic =
  let rec go acc =
    match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
  in
  go []

(* The [failed] count of the JSON result on the last line. *)
let failed_of line =
  let key = "\"failed\": " in
  let rec find i =
    if i + String.length key > String.length line then None
    else if String.sub line i (String.length key) = key then
      Scanf.sscanf (String.sub line (i + String.length key) (String.length line - i - String.length key)) "%d" Option.some
    else find (i + 1)
  in
  find 0

let () =
  let exe = Sys.argv.(1) in
  let ok =
    List.for_all
      (fun (inject, workload, expect_failure) ->
        let args =
          [ "--workload"; workload; "--seed"; "7"; "--seconds"; "0.5"; "--trace"; "0" ]
          @ match inject with Some k -> [ "--inject"; k ] | None -> []
        in
        let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
        let lines = read_lines ic in
        let status = Unix.close_process_in ic in
        let failed = match List.rev lines with last :: _ -> failed_of last | [] -> None in
        let pass =
          match (status, failed) with
          | Unix.WEXITED 1, Some n -> expect_failure && n > 0
          | Unix.WEXITED 0, Some 0 -> not expect_failure
          | _ -> false
        in
        Printf.printf "%-20s %-10s %s\n" (Option.value inject ~default:"(none)") workload
          (if pass then "ok" else "FAIL");
        pass)
      cases
  in
  if not ok then exit 1
