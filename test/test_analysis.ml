(* Fixture-driven tests for ahl_lint: each rule fires on its positive
   fixture, stays quiet on its negative one, and the suppression/baseline
   machinery behaves as documented.  Fixtures live under
   analysis_fixtures/ and are linted with a [logical_path] that places
   them in the scope under test. *)

open Repro_analysis

let fixture name = Filename.concat "analysis_fixtures" name

let active fs = List.filter (fun f -> not f.Lint_types.suppressed) fs

let count rule fs =
  List.length (List.filter (fun f -> f.Lint_types.rule = rule) (active fs))

let check_fixture ?(logical = "lib/fixture") name =
  Lint.check_file ~logical_path:(Filename.concat logical name) (fixture name)

(* --- R1: determinism ------------------------------------------------ *)

let test_r1_positive () =
  let fs = check_fixture "r1_positive.ml" in
  Alcotest.(check int) "five R1 findings" 5 (count Lint_types.R1 fs);
  Alcotest.(check int) "nothing suppressed" 5 (List.length (active fs))

let test_r1_negative () =
  let fs = check_fixture "r1_negative.ml" in
  Alcotest.(check int) "no findings" 0 (List.length (active fs))

let test_r1_seq_positive () =
  let fs = check_fixture "r1_seq_positive.ml" in
  Alcotest.(check int) "three R1 findings" 3 (count Lint_types.R1 fs);
  Alcotest.(check int) "nothing else" 3 (List.length (active fs))

let test_r1_seq_negative () =
  let fs = check_fixture "r1_seq_negative.ml" in
  Alcotest.(check int) "no findings" 0 (List.length (active fs))

let test_r1_inline_allow () =
  let fs = check_fixture "r1_allowed.ml" in
  Alcotest.(check int) "finding still produced" 1 (List.length fs);
  Alcotest.(check bool) "marked suppressed" true
    (List.for_all (fun f -> f.Lint_types.suppressed) fs);
  Alcotest.(check int) "no active findings" 0 (List.length (active fs))

(* --- R2: comparison safety ------------------------------------------ *)

let test_r2_positive_in_scope () =
  let fs = check_fixture ~logical:"lib/consensus" "r2_positive.ml" in
  Alcotest.(check int) "nine R2 findings" 9 (count Lint_types.R2 fs)

let test_r2_out_of_scope () =
  (* Outside lib/ nothing fires; inside lib/ but outside the narrow R2
     scope only the lib/-wide sort-argument check does (the fixture's
     [List.sort_uniq compare] line). *)
  let fs = check_fixture ~logical:"bench" "r2_positive.ml" in
  Alcotest.(check int) "quiet outside lib" 0 (List.length (active fs));
  let fs = check_fixture ~logical:"lib/sim" "r2_positive.ml" in
  Alcotest.(check int) "only the sort finding elsewhere in lib" 1 (count Lint_types.R2 fs)

let test_r2_negative () =
  let fs = check_fixture ~logical:"lib/ledger" "r2_negative.ml" in
  Alcotest.(check int) "typed comparisons pass" 0 (List.length (active fs))

let test_r2_scope_predicate () =
  Alcotest.(check bool) "consensus in scope" true
    (Lint_rules.in_r2_scope "lib/consensus/pbft.ml");
  Alcotest.(check bool) "ledger in scope" true (Lint_rules.in_r2_scope "lib/ledger/state.ml");
  Alcotest.(check bool) "shard in scope" true (Lint_rules.in_r2_scope "lib/shard/reference.ml");
  Alcotest.(check bool) "sim out of scope" false (Lint_rules.in_r2_scope "lib/sim/engine.ml");
  Alcotest.(check bool) "tests out of scope" false
    (Lint_rules.in_r2_scope "test/test_consensus.ml")

(* --- R2: sort-argument check (lib/-wide) ---------------------------- *)

let test_r2_sort_positive_in_scope () =
  let fs = check_fixture ~logical:"lib/core" "r2_sort_positive.ml" in
  Alcotest.(check int) "three R2 findings" 3 (count Lint_types.R2 fs)

let test_r2_sort_out_of_scope () =
  let fs = check_fixture ~logical:"bench" "r2_sort_positive.ml" in
  Alcotest.(check int) "quiet outside lib/" 0 (List.length (active fs))

let test_r2_sort_no_double_count () =
  (* Where the narrow R2 scope already flags the bare idents, the sort
     rule stays quiet: [List.sort compare] and [List.sort_uniq compare]
     each yield exactly one finding (the ident), not two. *)
  let fs = check_fixture ~logical:"lib/ledger" "r2_sort_positive.ml" in
  Alcotest.(check int) "one finding per bare compare" 3 (count Lint_types.R2 fs)

let test_r2_sort_negative () =
  let fs = check_fixture ~logical:"lib/core" "r2_sort_negative.ml" in
  Alcotest.(check int) "typed comparators pass" 0 (List.length (active fs))

let test_r2_sort_scope_predicate () =
  Alcotest.(check bool) "core in scope" true (Lint_rules.in_r2_sort_scope "lib/core/system.ml");
  Alcotest.(check bool) "sgx in scope" true (Lint_rules.in_r2_sort_scope "lib/sgx/aggregator.ml");
  Alcotest.(check bool) "util in scope" true (Lint_rules.in_r2_sort_scope "lib/util/stats.ml");
  Alcotest.(check bool) "bench out of scope" false
    (Lint_rules.in_r2_sort_scope "bench/bench_main.ml");
  Alcotest.(check bool) "tests out of scope" false
    (Lint_rules.in_r2_sort_scope "test/test_core.ml")

(* --- R3: exception hygiene ------------------------------------------ *)

let test_r3_positive () =
  let fs = check_fixture ~logical:"lib/core" "r3_positive.ml" in
  Alcotest.(check int) "three R3 findings" 3 (count Lint_types.R3 fs);
  List.iter
    (fun f ->
      Alcotest.(check string) "R3 is a warning" "warning"
        (Lint_types.severity_id f.Lint_types.severity))
    (active fs)

let test_r3_negative () =
  let fs = check_fixture ~logical:"lib/core" "r3_negative.ml" in
  Alcotest.(check int) "typed errors and guarded asserts pass" 0 (List.length (active fs))

(* --- R5: quorum hygiene --------------------------------------------- *)

let test_r5_positive_in_scope () =
  let fs = check_fixture ~logical:"lib/consensus" "r5_positive.ml" in
  Alcotest.(check int) "three R5 findings" 3 (count Lint_types.R5 fs)

let test_r5_out_of_scope () =
  let fs = check_fixture ~logical:"lib/sim" "r5_positive.ml" in
  Alcotest.(check int) "quiet outside scope" 0 (List.length (active fs))

let test_r5_negative () =
  let fs = check_fixture ~logical:"lib/shard" "r5_negative.ml" in
  Alcotest.(check int) "helper-derived sizes pass" 0 (List.length (active fs))

let test_r5_scope_predicate () =
  Alcotest.(check bool) "consensus in scope" true
    (Lint_rules.in_r5_scope "lib/consensus/pbft.ml");
  Alcotest.(check bool) "shard in scope" true (Lint_rules.in_r5_scope "lib/shard/reference.ml");
  Alcotest.(check bool) "config allowlisted" false
    (Lint_rules.in_r5_scope "lib/consensus/config.ml");
  Alcotest.(check bool) "quorum allowlisted" false
    (Lint_rules.in_r5_scope "lib/consensus/quorum.ml");
  Alcotest.(check bool) "sizing allowlisted" false (Lint_rules.in_r5_scope "lib/shard/sizing.ml");
  Alcotest.(check bool) "sim out of scope" false (Lint_rules.in_r5_scope "lib/sim/engine.ml")

(* --- R6: console hygiene -------------------------------------------- *)

let test_r6_positive_in_scope () =
  let fs = check_fixture ~logical:"lib/core" "r6_positive.ml" in
  Alcotest.(check int) "five R6 findings" 5 (count Lint_types.R6 fs);
  List.iter
    (fun f ->
      Alcotest.(check string) "R6 is an error" "error"
        (Lint_types.severity_id f.Lint_types.severity))
    (active fs)

let test_r6_out_of_scope () =
  let fs = check_fixture ~logical:"bin" "r6_positive.ml" in
  Alcotest.(check int) "quiet outside lib" 0 (List.length (active fs))

let test_r6_negative () =
  let fs = check_fixture ~logical:"lib/core" "r6_negative.ml" in
  Alcotest.(check int) "sprintf/Buffer/channels pass" 0 (List.length (active fs))

let test_r6_scope_predicate () =
  Alcotest.(check bool) "consensus in scope" true (Lint_rules.in_r6_scope "lib/consensus/pbft.ml");
  Alcotest.(check bool) "obs library in scope" true (Lint_rules.in_r6_scope "lib/obs/metrics.ml");
  Alcotest.(check bool) "sink allowlisted" false (Lint_rules.in_r6_scope "lib/obs/sink.ml");
  Alcotest.(check bool) "table allowlisted" false (Lint_rules.in_r6_scope "lib/util/table.ml");
  Alcotest.(check bool) "bench out of scope" false (Lint_rules.in_r6_scope "bench/main.ml")

(* --- R4: interface coverage (whole-tree scan) ----------------------- *)

let test_r4_scan () =
  let fs =
    active
      (Lint.scan
         ~base:(fixture "r4tree/" )
         ~roots:[ fixture "r4tree" ]
         ~excludes:[] ())
  in
  Alcotest.(check int) "exactly two R4 findings" 2 (List.length fs);
  let missing_mli =
    List.exists
      (fun f -> f.Lint_types.rule = Lint_types.R4 && String.equal f.Lint_types.file "lib/nomli.ml")
      fs
  in
  Alcotest.(check bool) "nomli.ml flagged for missing interface" true missing_mli;
  let unused_export =
    List.exists
      (fun f ->
        f.Lint_types.rule = Lint_types.R4
        && String.equal f.Lint_types.file "lib/widget.mli"
        && f.Lint_types.line = 3)
      fs
  in
  Alcotest.(check bool) "Widget.unused flagged at its .mli line" true unused_export;
  let used_flagged =
    List.exists (fun f -> f.Lint_types.line = 1 && String.equal f.Lint_types.file "lib/widget.mli") fs
  in
  Alcotest.(check bool) "Widget.used not flagged" false used_flagged

(* --- R7: domain safety (cross-module scan) -------------------------- *)

let scan_tree name =
  active
    (Lint.scan
       ~base:(fixture (name ^ "/"))
       ~roots:[ fixture name ]
       ~excludes:[] ())

let rule_findings rule fs = List.filter (fun f -> f.Lint_types.rule = rule) fs

let some_message_contains needle fs =
  List.exists
    (fun f ->
      let msg = f.Lint_types.message in
      let n = String.length needle in
      let rec go i =
        i + n <= String.length msg && (String.equal (String.sub msg i n) needle || go (i + 1))
      in
      go 0)
    fs

let test_r7_scan () =
  let r7 = rule_findings Lint_types.R7 (scan_tree "r7tree") in
  Alcotest.(check bool) "unguarded cell flagged" true (some_message_contains "Gstate.hits" r7);
  Alcotest.(check bool) "flagged at the access site" true
    (List.exists (fun f -> String.equal f.Lint_types.file "lib/gstate.ml") r7);
  Alcotest.(check bool) "guarded-only cell quiet" false
    (some_message_contains "Gstate.errors" r7);
  Alcotest.(check bool) "atomic cell quiet" false (some_message_contains "Gstate.total" r7)

let test_r7_concurrent_mutations () =
  let r7 =
    rule_findings Lint_types.R7
      (List.filter
         (fun f -> String.equal f.Lint_types.file "lib/chan.ml")
         (scan_tree "r7tree"))
  in
  Alcotest.(check int) "both unguarded mutations flagged" 2 (List.length r7);
  Alcotest.(check bool) "field store named" true (some_message_contains ".value <-" r7);
  Alcotest.(check bool) "queue mutation named" true (some_message_contains "Queue.add" r7);
  Alcotest.(check bool) "locked store quiet" true
    (List.for_all (fun f -> f.Lint_types.line > 11) r7)

let test_r8_scan () =
  let fs = scan_tree "r8tree" in
  let r8 = rule_findings Lint_types.R8 fs in
  let r8_in file = List.filter (fun f -> String.equal f.Lint_types.file file) r8 in
  let entropy = r8_in "lib/util/entropy.ml" in
  Alcotest.(check int) "four reachable sources flagged" 4 (List.length entropy);
  Alcotest.(check bool) "polymorphic hash" true (some_message_contains "Hashtbl.hash" entropy);
  Alcotest.(check bool) "ambient random" true (some_message_contains "Random.int" entropy);
  Alcotest.(check bool) "worker identity" true (some_message_contains "Domain.self" entropy);
  Alcotest.(check bool) "gc statistics" true (some_message_contains "Gc.minor_words" entropy);
  Alcotest.(check bool) "unreachable source quiet" false
    (some_message_contains "Random.bool" entropy);
  Alcotest.(check bool) "module init is a root" true
    (some_message_contains "Random.bits" (r8_in "lib/util/boot.ml"));
  (* The merge-fold shape: a sink-scope fold whose tainted variant lets an
     ambient draw reach materialised state fires; the canonical sorted fold
     stays quiet. *)
  let fold = r8_in "lib/ledger/mergefold.ml" in
  Alcotest.(check int) "only the tainted fold fires" 1 (List.length fold);
  Alcotest.(check bool) "the draw reaching merged state is named" true
    (some_message_contains "Random.int" fold);
  Alcotest.(check bool) "tainted fold is below the canonical one" true
    (List.for_all (fun f -> f.Lint_types.line > 6) fold)

(* --- Summary pass ---------------------------------------------------- *)

let summarize ~path src =
  match Lint.parse_impl ~logical:path src with
  | Error f -> Alcotest.failf "summary source did not parse: %s" (Lint_types.to_human f)
  | Ok structure -> Summary.of_structure ~path structure

let test_summary_cells () =
  let s =
    summarize ~path:"lib/m.ml"
      "let a = ref 0\nlet b = Hashtbl.create 16\nlet c = Atomic.make 0\nlet f x = x + 1\n"
  in
  let cell name =
    match List.find_opt (fun (c : Summary.cell) -> String.equal c.c_name name) s.Summary.sm_cells with
    | Some c -> c
    | None -> Alcotest.failf "cell %s not summarized" name
  in
  Alcotest.(check int) "three cells" 3 (List.length s.Summary.sm_cells);
  Alcotest.(check bool) "ref is raw" true ((cell "a").Summary.c_kind = Summary.Raw);
  Alcotest.(check bool) "hashtbl is raw" true ((cell "b").Summary.c_kind = Summary.Raw);
  Alcotest.(check bool) "atomic is sync" true ((cell "c").Summary.c_kind = Summary.Sync);
  Alcotest.(check bool) "function is not a cell" true
    (List.exists (fun (f : Summary.func) -> String.equal f.Summary.fn_name "f") s.Summary.sm_funs)

let test_summary_contexts () =
  let s =
    summarize ~path:"lib/m.ml"
      "let cell = ref 0\n\
       let m = Mutex.create ()\n\
       let locked f = Mutex.lock m; f ()\n\
       let spawn pool = Pool.submit pool (fun () -> cell := 1)\n\
       let safe pool = Pool.submit pool (fun () -> Mutex.protect m (fun () -> cell := 2))\n"
  in
  let fn name =
    match List.find_opt (fun (f : Summary.func) -> String.equal f.Summary.fn_name name) s.Summary.sm_funs with
    | Some f -> f
    | None -> Alcotest.failf "function %s not summarized" name
  in
  Alcotest.(check bool) "module submits" true s.Summary.sm_submits;
  Alcotest.(check bool) "module is concurrency-claiming" true s.Summary.sm_concurrent;
  Alcotest.(check bool) "locked is lock-aware" true (fn "locked").Summary.fn_lock_aware;
  let cell_refs f =
    List.filter (fun (r : Summary.reference) -> r.Summary.r_path = [ "cell" ]) f.Summary.fn_refs
  in
  Alcotest.(check bool) "submit closure ref is in-task and unguarded" true
    (List.exists
       (fun (r : Summary.reference) -> r.Summary.r_in_task && not r.Summary.r_guarded)
       (cell_refs (fn "spawn")));
  Alcotest.(check bool) "protected closure ref is guarded" true
    (List.for_all (fun (r : Summary.reference) -> r.Summary.r_guarded) (cell_refs (fn "safe")))

(* --- Emitters: JSON and SARIF ---------------------------------------- *)

let sample_findings () =
  [
    Lint_types.make ~rule:Lint_types.R7 ~file:"lib/a.ml" ~line:3 ~col:5 "race on \"cell\"";
    Lint_types.make ~severity:Lint_types.Warning ~rule:Lint_types.R8 ~file:"bin/b.ml" ~line:0
      ~col:0 "entropy\nwith newline";
  ]

let test_json_emitter () =
  let js = Lint_types.to_json (sample_findings ()) in
  Alcotest.(check bool) "parses as JSON" true (Mini_json.ok js);
  Alcotest.(check bool) "empty list is valid" true (Mini_json.ok (Lint_types.to_json []))

let test_sarif_emitter () =
  let sarif = Lint_types.to_sarif (sample_findings ()) in
  Alcotest.(check bool) "parses as JSON" true (Mini_json.ok sarif);
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length sarif
      && (String.equal (String.sub sarif i n) needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "declares 2.1.0" true (has "\"version\":\"2.1.0\"");
  Alcotest.(check bool) "names the driver" true (has "\"name\":\"ahl_lint\"");
  Alcotest.(check bool) "carries rule metadata" true (has "\"id\":\"R7\"");
  Alcotest.(check bool) "describes every rule" true
    (List.for_all
       (fun r -> not (String.equal (Lint_types.rule_description r) ""))
       [ Lint_types.R7; Lint_types.R8 ]);
  Alcotest.(check bool) "results carry locations" true (has "physicalLocation");
  Alcotest.(check bool) "line 0 clamped to 1" true (has "\"startLine\":1");
  Alcotest.(check bool) "empty log still valid" true (Mini_json.ok (Lint_types.to_sarif []))

(* --- Baseline ratchet ----------------------------------------------- *)

let with_baseline contents k =
  let path = Filename.temp_file "ahl_lint_test" ".baseline" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      match Lint.load_baseline path with
      | Error msg -> Alcotest.failf "baseline did not load: %s" msg
      | Ok b -> k b)

let mk_r3 ~line =
  Lint_types.make ~severity:Lint_types.Warning ~rule:Lint_types.R3 ~file:"lib/core/x.ml" ~line
    ~col:1 "failwith"

let test_baseline_within_allowance () =
  with_baseline "# comment\nR3 lib/core/x.ml 2\n" (fun b ->
      let remaining = Lint.apply_baseline ~baseline:b [ mk_r3 ~line:3; mk_r3 ~line:9 ] in
      Alcotest.(check int) "covered group dropped" 0 (List.length remaining))

let test_baseline_exceeded () =
  with_baseline "R3 lib/core/x.ml 1\n" (fun b ->
      let remaining = Lint.apply_baseline ~baseline:b [ mk_r3 ~line:3; mk_r3 ~line:9 ] in
      Alcotest.(check int) "growth reports the whole group" 2 (List.length remaining))

let test_baseline_rejects_r1_r2 () =
  with_baseline
    "R1 lib/sim/engine.ml 1\nR2 lib/consensus/pbft.ml 3\nR6 lib/core/results.ml 1\n\
     R7 lib/core/experiment.ml 2\n"
    (fun b ->
      let remaining = Lint.apply_baseline ~baseline:b [] in
      Alcotest.(check int) "all four entries rejected" 4 (List.length remaining);
      List.iter
        (fun f ->
          Alcotest.(check string) "rejection is an error" "error"
            (Lint_types.severity_id f.Lint_types.severity))
        remaining)

let test_baseline_missing_file_is_empty () =
  match Lint.load_baseline "analysis_fixtures/no_such_baseline" with
  | Error msg -> Alcotest.failf "missing baseline should be empty, got: %s" msg
  | Ok b ->
      Alcotest.(check int) "no findings dropped or added" 1
        (List.length (Lint.apply_baseline ~baseline:b [ mk_r3 ~line:3 ]))

let () =
  Alcotest.run "analysis"
    [
      ( "r1-determinism",
        [
          Alcotest.test_case "positive fixture fires" `Quick test_r1_positive;
          Alcotest.test_case "negative fixture quiet" `Quick test_r1_negative;
          Alcotest.test_case "table sequences fire" `Quick test_r1_seq_positive;
          Alcotest.test_case "sorted views and of_seq quiet" `Quick test_r1_seq_negative;
          Alcotest.test_case "inline allow suppresses" `Quick test_r1_inline_allow;
        ] );
      ( "r2-comparison",
        [
          Alcotest.test_case "positive fixture fires in scope" `Quick test_r2_positive_in_scope;
          Alcotest.test_case "quiet outside scope" `Quick test_r2_out_of_scope;
          Alcotest.test_case "negative fixture quiet" `Quick test_r2_negative;
          Alcotest.test_case "scope predicate" `Quick test_r2_scope_predicate;
        ] );
      ( "r2-sort-argument",
        [
          Alcotest.test_case "positive fixture fires in lib scope" `Quick
            test_r2_sort_positive_in_scope;
          Alcotest.test_case "quiet outside lib" `Quick test_r2_sort_out_of_scope;
          Alcotest.test_case "no double count in narrow scope" `Quick test_r2_sort_no_double_count;
          Alcotest.test_case "negative fixture quiet" `Quick test_r2_sort_negative;
          Alcotest.test_case "scope predicate" `Quick test_r2_sort_scope_predicate;
        ] );
      ( "r3-exceptions",
        [
          Alcotest.test_case "positive fixture fires" `Quick test_r3_positive;
          Alcotest.test_case "negative fixture quiet" `Quick test_r3_negative;
        ] );
      ( "r5-quorum",
        [
          Alcotest.test_case "positive fixture fires in scope" `Quick test_r5_positive_in_scope;
          Alcotest.test_case "quiet outside scope" `Quick test_r5_out_of_scope;
          Alcotest.test_case "negative fixture quiet" `Quick test_r5_negative;
          Alcotest.test_case "scope predicate" `Quick test_r5_scope_predicate;
        ] );
      ( "r6-console",
        [
          Alcotest.test_case "positive fixture fires in scope" `Quick test_r6_positive_in_scope;
          Alcotest.test_case "quiet outside lib" `Quick test_r6_out_of_scope;
          Alcotest.test_case "negative fixture quiet" `Quick test_r6_negative;
          Alcotest.test_case "scope predicate" `Quick test_r6_scope_predicate;
        ] );
      ("r4-interfaces", [ Alcotest.test_case "tree scan" `Quick test_r4_scan ]);
      ( "r7-domain-safety",
        [
          Alcotest.test_case "tree scan: task-reachable access" `Quick test_r7_scan;
          Alcotest.test_case "tree scan: hand-rolled sync mutations" `Quick
            test_r7_concurrent_mutations;
        ] );
      ("r8-nondeterminism", [ Alcotest.test_case "tree scan" `Quick test_r8_scan ]);
      ( "summary-pass",
        [
          Alcotest.test_case "cell classification" `Quick test_summary_cells;
          Alcotest.test_case "guard and task contexts" `Quick test_summary_contexts;
        ] );
      ( "emitters",
        [
          Alcotest.test_case "json well-formed" `Quick test_json_emitter;
          Alcotest.test_case "sarif 2.1.0 shape" `Quick test_sarif_emitter;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "within allowance" `Quick test_baseline_within_allowance;
          Alcotest.test_case "exceeded reports group" `Quick test_baseline_exceeded;
          Alcotest.test_case "R1/R2/R6/R7 never baselined" `Quick test_baseline_rejects_r1_r2;
          Alcotest.test_case "missing file is empty" `Quick test_baseline_missing_file_is_empty;
        ] );
    ]
