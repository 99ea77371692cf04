(* Perf-regression gate over two BENCH.json files (as written by
   main.exe --metrics). Thin CLI over Rb_util.Bench_diff: counters are
   compared exactly (they are deterministic work counts — any drift
   means behaviour changed), wall-clock one-sided with a relative
   tolerance on the summed wall of the sections both files share. A
   per-section wall-ratio table (current / baseline) is printed before
   the verdict; only its total row is judged.

   Usage:
     compare.exe [--wall-tol FRAC] BASELINE CURRENT

   Exit status: 0 = within tolerances, 1 = regression(s), 2 = bad
   usage or malformed input. *)

module Bench_diff = Rb_util.Bench_diff

let usage () =
  Printf.eprintf
    "usage: compare.exe [--wall-tol FRAC] BASELINE CURRENT\n\
     FRAC is a relative fraction: --wall-tol 0.5 allows +50%% summed wall-clock.\n\
     Counters are exact; a counter absent from the baseline fails the gate.\n"

let parse_frac flag s =
  match float_of_string_opt s with
  | Some f when f >= 0.0 && Float.is_finite f -> f
  | _ ->
    Printf.eprintf "%s expects a non-negative number, got %S\n" flag s;
    exit 2

let () =
  let wall_tol = ref 0.5 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--wall-tol" :: v :: rest ->
      wall_tol := parse_frac "--wall-tol" v;
      parse rest
    | [ "--wall-tol" ] ->
      Printf.eprintf "--wall-tol expects a value\n";
      exit 2
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | arg :: _ when String.length arg >= 2 && String.sub arg 0 2 = "--" ->
      Printf.eprintf "unknown option %s\n" arg;
      usage ();
      exit 2
    | file :: rest ->
      files := file :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline, current =
    match List.rev !files with
    | [ b; c ] -> (b, c)
    | _ ->
      usage ();
      exit 2
  in
  match
    Bench_diff.compare_files ~wall_tol:!wall_tol ~baseline ~current ()
  with
  | Error msg ->
    Printf.eprintf "compare: %s\n" msg;
    exit 2
  | Ok report ->
    (* Per-section wall clock, so a timing change is visible even
       under a wide --wall-tol; only the total decides the verdict. *)
    Printf.printf "%-20s %12s %12s %8s\n" "section" "baseline_s" "current_s" "ratio";
    List.iter
      (fun (section, base, cur) ->
        let ratio = if base > 0.0 then Printf.sprintf "%.2fx" (cur /. base) else "-" in
        Printf.printf "%-20s %12.4f %12.4f %8s\n" section base cur ratio)
      (report.Bench_diff.walls
       @ [ ("total", fst report.Bench_diff.total_wall, snd report.Bench_diff.total_wall) ]);
    List.iter
      (fun v -> Printf.printf "FAIL %s\n" (Bench_diff.describe v))
      report.Bench_diff.violations;
    (* Notes go to stderr so tooling diffing the gate's stdout sees
       only the wall table and pass/fail content. *)
    List.iter
      (fun a -> Printf.eprintf "note: only in current run: %s\n" a)
      report.Bench_diff.additions;
    if report.Bench_diff.violations = [] then begin
      Printf.printf
        "perf gate OK: %d sections, %d counters checked (summed wall tol +%.0f%%, counters exact)\n"
        report.Bench_diff.sections_checked report.Bench_diff.counters_checked
        (100.0 *. !wall_tol);
      exit 0
    end
    else begin
      Printf.printf "perf gate FAILED: %d violation(s)\n"
        (List.length report.Bench_diff.violations);
      exit 1
    end
