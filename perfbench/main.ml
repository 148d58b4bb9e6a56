(* Command-line entry point of the full-scale benchmark.

     main.exe --workload zipf1.0|zipf0.8 --seed N
              --seconds S --trace 0|1

   Prints every metric by name with its unit, one per line, then the
   result as one JSON object on the last line: the end-to-end metrics
   with [--trace 0], the per-layer metrics of a traced run with
   [--trace 1]. Exits 1 when the audit finds a divergence or the Route
   Manager's invariants fail. *)

open Cfca_perfbench

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let defaults = Bench.default_params (snd (List.hd Bench.workloads)) in
  let workload = ref "" and seed = ref defaults.seed in
  let seconds = ref defaults.seconds in
  let trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       " " ^ String.concat "|" (List.map fst Bench.workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.assoc_opt !workload Bench.workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds < 0.0 then begin
    prerr_endline usage;
    exit 2
  end;
  let p =
    { (Bench.default_params wl) with
      seed = !seed; seconds = !seconds; trace = !trace = 1 }
  in
  let res = Bench.run p in
  let metrics = if p.trace then res.layers else res.e2e in
  let failed =
    res.divergences + match res.verify with Ok () -> 0 | Error _ -> 1
  in
  (match res.verify with
   | Ok () -> ()
   | Error msg -> prerr_endline ("Route_manager.verify: " ^ msg));
  if p.trace then begin
    let dir = Filename.concat "out" "perfbench" in
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ "out"; dir ];
    let path =
      Filename.concat dir (Printf.sprintf "spans-%s-seed%d.tsv" !workload !seed)
    in
    Spans.write res.spans path;
    Printf.printf "spans written to %s\n" path
  end;
  List.iter (fun (name, v, unit) -> Printf.printf "%-28s %.6g %s\n" name v unit) metrics;
  if not p.trace then
    List.iter
      (fun (name, v, unit) ->
        Printf.printf "%-28s %.6g %s (plain time, not a metric)\n" name v unit)
      res.plain;
  let attempted = res.probes + 1 in
  Printf.printf "%-28s %.6g ratio (%d of %d audit checks)\n" "failed_ratio"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  let json_metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed json_metrics;
  if failed > 0 then exit 1
