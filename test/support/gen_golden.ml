(* Regenerate the committed golden artifacts:
     dune exec test/support/gen_golden.exe > test/golden/trace_ts64.jsonl
     dune exec test/support/gen_golden.exe -- --report \
       > test/golden/report_ts64.json
     dune exec test/support/gen_golden.exe -- --resilience \
       > test/golden/resilience_ts64.json
     dune exec test/support/gen_golden.exe -- --soak \
       > test/golden/soak_ts64.json
     dune exec test/support/gen_golden.exe -- --soak-variants \
       > test/golden/soak_variants_ts64.json
     dune exec test/support/gen_golden.exe -- --netspan \
       > test/golden/netspan_ts64.jsonl
     dune exec test/support/gen_golden.exe -- --scale \
       > test/golden/scale_ts64.json
     dune exec test/support/gen_golden.exe -- --tournament \
       > test/golden/tournament_ts64.json
     dune exec test/support/gen_golden.exe -- --cache \
       > test/golden/cache_ts64.json *)
let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> print_string (Obs_test_support.Golden.build_trace ())
  | [ _; "--report" ] -> print_string (Obs_test_support.Golden.build_report ())
  | [ _; "--resilience" ] -> print_string (Obs_test_support.Golden.build_resilience ())
  | [ _; "--soak" ] -> print_string (Obs_test_support.Golden.build_soak ())
  | [ _; "--soak-variants" ] -> print_string (Obs_test_support.Golden.build_soak_variants ())
  | [ _; "--netspan" ] -> print_string (Obs_test_support.Golden.build_netspan ())
  | [ _; "--scale" ] -> print_string (Obs_test_support.Golden.build_scale ())
  | [ _; "--tournament" ] -> print_string (Obs_test_support.Golden.build_tournament ())
  | [ _; "--cache" ] -> print_string (Obs_test_support.Golden.build_cache ())
  | _ ->
      prerr_endline
        "usage: gen_golden [--report | --resilience | --soak | --soak-variants | --netspan | \
         --scale | --tournament | --cache]";
      exit 2
