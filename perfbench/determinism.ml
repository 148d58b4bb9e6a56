(* The benchmark's own determinism check, at a small table size: two
   runs with the same seed must report identical deterministic metrics,
   and a different seed must change them; the second workload, on the
   same seed, must change the traffic but not the table. Each run is the workload's
   fixed minimum of work ([seconds = 0.]), traced, so the span and GC
   instrumentation runs too. *)

open Cfca_perfbench

(* Metrics that depend only on the inputs, never on timing. *)
let deterministic =
  [ "l1_hit_ratio"; "tcam_writes_per_kpkt"; "fib_entries_per_route";
    "coalesce.calls"; "coalesce.absorbed_ratio"; "rm.apply_calls"; "rm.fib_ops";
    "snapshot.refresh_calls"; "snapshot.patched_ratio"; "snapshot.patched_cells";
    "snapshot.fastpath_ratio"; "pipeline.l2_hit_ratio"; "pipeline.l1_installs";
    "pipeline.l1_evictions"; "pipeline.bgp_l1"; "plane.publish_calls";
    "plane.patched_ratio"; "plane.freed"; "plane.pins"; "plane.gen_words" ]

let run workload seed =
  let p =
    { (Bench.default_params workload) with
      seed; seconds = 0.0; trace = true; routes = 20_000; setups = 1 }
  in
  let r = Bench.run ~min_bursts:4 p in
  Alcotest.(check int) "no audit divergence" 0 r.divergences;
  Alcotest.(check bool) "Route_manager.verify" true (r.verify = Ok ());
  let all = r.e2e @ r.layers in
  let value name =
    let _, v, _ = List.find (fun (n, _, _) -> n = name) all in
    (name, v)
  in
  (r.probes, List.map value deterministic)

let pp = Fmt.(list ~sep:comma (pair ~sep:(any "=") string float))

let () =
  let first = snd (List.nth Bench.workloads 0)
  and second = snd (List.nth Bench.workloads 1) in
  let a = lazy (run first 11) in
  Alcotest.run "perfbench"
    [ ( "determinism",
        [ Alcotest.test_case "same seed, same metrics; another seed differs"
            `Quick (fun () ->
              let a = Lazy.force a and b = run first 11 and c = run first 12 in
              Alcotest.(check (pair int (list (pair string (float 0.0)))))
                "same seed, same metrics" a b;
              let get name (_, m) = List.assoc name m in
              Alcotest.(check bool)
                (Fmt.str "another seed changes the table and the traffic: %a / %a"
                   pp (snd a) pp (snd c))
                true
                (get "fib_entries_per_route" a <> get "fib_entries_per_route" c
                && get "l1_hit_ratio" a <> get "l1_hit_ratio" c));
          Alcotest.test_case "the workloads differ in their traffic" `Quick
            (fun () ->
              let get name (_, m) = List.assoc name m in
              let a = Lazy.force a and d = run second 11 in
              Alcotest.(check bool)
                (Fmt.str "same table, another popularity: %a / %a" pp (snd a) pp
                   (snd d))
                true
                (get "fib_entries_per_route" a = get "fib_entries_per_route" d
                && get "l1_hit_ratio" a <> get "l1_hit_ratio" d)) ] ) ]
