open Repro_util

let check_float = Alcotest.(check (float 1e-9))

let check_float_at eps = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 42L and b = Rng.create 43L in
  Alcotest.(check bool) "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  Alcotest.(check bool) "children differ" true (Rng.next_int64 c1 <> Rng.next_int64 c2)

let test_rng_split_named_order_free () =
  let p1 = Rng.create 7L and p2 = Rng.create 7L in
  let a1 = Rng.split_named p1 "alpha" in
  let b1 = Rng.split_named p1 "beta" in
  let b2 = Rng.split_named p2 "beta" in
  let a2 = Rng.split_named p2 "alpha" in
  Alcotest.(check int64) "alpha stream independent of creation order"
    (Rng.next_int64 a1) (Rng.next_int64 a2);
  Alcotest.(check int64) "beta stream independent of creation order"
    (Rng.next_int64 b1) (Rng.next_int64 b2)

let test_rng_int_range () =
  let rng = Rng.create 1L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "n = 0" (Invariant.Violation "Rng.int: bound 0 not positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_uniform () =
  let rng = Rng.create 5L in
  let n = 10 and draws = 100_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let v = Rng.int rng n in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int n in
  Array.iter
    (fun c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) "within 5% of uniform" true (dev < 0.05))
    counts

let test_rng_int_in () =
  let rng = Rng.create 2L in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in rng 3 3)

let test_rng_float_range () =
  let rng = Rng.create 3L in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11L in
  let s = Stats.create () in
  for _ = 1 to 200_000 do
    Stats.add s (Rng.exponential rng ~mean:3.0)
  done;
  check_float_at 0.05 "mean ~ 3.0" 3.0 (Stats.mean s)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13L in
  let s = Stats.create () in
  for _ = 1 to 200_000 do
    Stats.add s (Rng.gaussian rng ~mu:10.0 ~sigma:2.0)
  done;
  check_float_at 0.05 "mean ~ 10" 10.0 (Stats.mean s);
  check_float_at 0.05 "stddev ~ 2" 2.0 (Stats.stddev s)

let test_rng_permutation_valid () =
  let rng = Rng.create 17L in
  let p = Rng.permutation rng 100 in
  let seen = Array.make 100 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

let test_rng_permutation_uniform_position () =
  (* Element 0 should land in every slot with roughly equal frequency. *)
  let rng = Rng.create 19L in
  let n = 5 and trials = 50_000 in
  let counts = Array.make n 0 in
  for _ = 1 to trials do
    let p = Rng.permutation rng n in
    let pos = ref 0 in
    Array.iteri (fun i v -> if v = 0 then pos := i) p;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  let expected = float_of_int trials /. float_of_int n in
  Array.iter
    (fun c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) "uniform positions" true (dev < 0.05))
    counts

let test_rng_bytes_length () =
  let rng = Rng.create 23L in
  Alcotest.(check int) "32 bytes" 32 (String.length (Rng.bytes rng 32));
  Alcotest.(check int) "0 bytes" 0 (String.length (Rng.bytes rng 0))

let test_rng_pick () =
  let rng = Rng.create 29L in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "picked element" true (Array.mem (Rng.pick rng arr) arr)
  done;
  Alcotest.check_raises "empty array" (Invariant.Violation "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = List.init 5 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "sorted pops" [ 1; 2; 3; 4; 5 ] order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ "a"; "b"; "c" ];
  Heap.push h 0.5 "first";
  let order = List.init 4 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "ties FIFO" [ "first"; "a"; "b"; "c" ] order

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek_key h = None)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h 3.0 3;
  Heap.push h 1.0 1;
  (match Heap.pop h with
  | Some (k, v) ->
      check_float "key" 1.0 k;
      Alcotest.(check int) "value" 1 v
  | None -> Alcotest.fail "expected element");
  Heap.push h 2.0 2;
  Alcotest.(check bool) "peek 2.0" true (Heap.peek_key h = Some 2.0);
  Alcotest.(check int) "size" 2 (Heap.size h)

let test_heap_random_against_sort () =
  let rng = Rng.create 31L in
  let h = Heap.create () in
  let keys = Array.init 1000 (fun _ -> Rng.float rng 100.0) in
  Array.iter (fun k -> Heap.push h k k) keys;
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Array.iter
    (fun expect ->
      match Heap.pop h with
      | Some (k, _) -> check_float "heap matches sort" expect k
      | None -> Alcotest.fail "heap exhausted early")
    sorted

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_ordered () =
  Alcotest.(check bool) "default_jobs positive" true (Pool.default_jobs () >= 1);
  let p = Pool.create ~jobs:4 in
  Alcotest.(check int) "jobs accessor" 4 (Pool.jobs p);
  let xs = List.init 100 Fun.id in
  let ys = Pool.map p (fun x -> x * x) xs in
  Alcotest.(check (list int)) "results in submission order" (List.map (fun x -> x * x) xs) ys;
  Pool.shutdown p

let test_pool_exception_propagates () =
  let p = Pool.create ~jobs:2 in
  let fut = Pool.submit p (fun () -> failwith "boom") in
  Alcotest.check_raises "worker exception re-raised" (Failure "boom") (fun () ->
      ignore (Pool.await fut : unit));
  Alcotest.check_raises "await is idempotent" (Failure "boom") (fun () ->
      ignore (Pool.await fut : unit));
  Alcotest.(check int) "pool usable after a failed task" 7
    (Pool.await (Pool.submit p (fun () -> 7)));
  Pool.shutdown p

let test_pool_sequential_inline () =
  (* jobs = 1 spawns no domain: the task runs at submission, so its side
     effect is visible before await. *)
  let p = Pool.create ~jobs:0 (* clamped to 1 *) in
  Alcotest.(check int) "jobs clamped to 1" 1 (Pool.jobs p);
  let trace = ref [] in
  let futs =
    List.map (fun i -> Pool.submit p (fun () -> trace := i :: !trace; i)) [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "ran inline at submit, in order" [ 3; 2; 1 ] !trace;
  Alcotest.(check (list int)) "await returns values" [ 1; 2; 3 ] (List.map Pool.await futs);
  Pool.shutdown p

(* ------------------------------------------------------------------ *)
(* Memo                                                                *)
(* ------------------------------------------------------------------ *)

let test_memo_exactly_once () =
  let m : (int, int) Memo.t = Memo.create () in
  let calls = Atomic.make 0 in
  let compute key () =
    Atomic.incr calls;
    key * 10
  in
  let p = Pool.create ~jobs:4 in
  let futs = List.init 16 (fun _ -> Pool.submit p (fun () -> Memo.get m 42 (compute 42))) in
  List.iter (fun f -> Alcotest.(check int) "shared value" 420 (Pool.await f)) futs;
  Pool.shutdown p;
  Alcotest.(check int) "computed exactly once under contention" 1 (Atomic.get calls);
  Alcotest.(check int) "second key computes" 70 (Memo.get m 7 (compute 7));
  Alcotest.(check int) "two computations total" 2 (Atomic.get calls)

let test_memo_clear_recomputes () =
  let m : (string, int) Memo.t = Memo.create () in
  let calls = Atomic.make 0 in
  let compute () = Atomic.incr calls; Atomic.get calls in
  Alcotest.(check int) "first" 1 (Memo.get m "k" compute);
  Alcotest.(check int) "cached" 1 (Memo.get m "k" compute);
  Memo.clear m;
  Alcotest.(check int) "recomputed after clear" 2 (Memo.get m "k" compute)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "total" 10.0 (Stats.total s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s);
  check_float_at 1e-9 "stddev" (sqrt (5.0 /. 3.0)) (Stats.stddev s)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean" 0.0 (Stats.mean s);
  check_float "stddev" 0.0 (Stats.stddev s);
  check_float "percentile" 0.0 (Stats.percentile s 50.0)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check_float "p50" 50.0 (Stats.percentile s 50.0);
  check_float "p99" 99.0 (Stats.percentile s 99.0);
  check_float "p100" 100.0 (Stats.percentile s 100.0);
  check_float "p0 clamps to min rank" 1.0 (Stats.percentile s 0.0)

let series_exn ~bin =
  match Stats.Series.create ~bin with
  | Ok s -> s
  | Error msg -> Alcotest.fail msg

let test_series_binning () =
  let s = series_exn ~bin:1.0 in
  Stats.Series.record s 0.2 1.0;
  Stats.Series.record s 0.8 1.0;
  Stats.Series.record s 2.5 4.0;
  let bins = Stats.Series.bins s in
  Alcotest.(check int) "three bins incl. empty interior" 3 (List.length bins);
  match bins with
  | [ (t0, v0); (t1, v1); (t2, v2) ] ->
      check_float "bin0 start" 0.0 t0;
      check_float "bin0 sum" 2.0 v0;
      check_float "bin1 start" 1.0 t1;
      check_float "bin1 empty" 0.0 v1;
      check_float "bin2 start" 2.0 t2;
      check_float "bin2 sum" 4.0 v2
  | _ -> Alcotest.fail "unexpected bin structure"

let test_series_rate () =
  let s = series_exn ~bin:2.0 in
  Stats.Series.record s 1.0 10.0;
  match Stats.Series.rate_bins s with
  | [ (_, r) ] -> check_float "rate = sum / width" 5.0 r
  | _ -> Alcotest.fail "expected one bin"

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)
(* ------------------------------------------------------------------ *)

let test_zipf_uniform_when_theta_zero () =
  let z = Zipf.create ~n:4 ~theta:0.0 in
  for i = 0 to 3 do
    check_float_at 1e-9 "uniform pmf" 0.25 (Zipf.pmf z i)
  done

let test_zipf_monotone_pmf () =
  let z = Zipf.create ~n:100 ~theta:0.99 in
  let prev = ref infinity in
  for i = 0 to 99 do
    let p = Zipf.pmf z i in
    Alcotest.(check bool) "pmf non-increasing" true (p <= !prev +. 1e-12);
    prev := p
  done

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:50 ~theta:1.5 in
  let total = ref 0.0 in
  for i = 0 to 49 do
    total := !total +. Zipf.pmf z i
  done;
  check_float_at 1e-9 "pmf sums to 1" 1.0 !total

let test_zipf_sample_matches_pmf () =
  let z = Zipf.create ~n:10 ~theta:1.0 in
  let rng = Rng.create 37L in
  let draws = 200_000 in
  let counts = Array.make 10 0 in
  for _ = 1 to draws do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  for i = 0 to 9 do
    let empirical = float_of_int counts.(i) /. float_of_int draws in
    check_float_at 0.01 "sample frequency ~ pmf" (Zipf.pmf z i) empirical
  done

let test_zipf_high_skew_concentrates () =
  let z = Zipf.create ~n:1000 ~theta:1.99 in
  Alcotest.(check bool) "head key dominates" true (Zipf.pmf z 0 > 0.5)

(* ------------------------------------------------------------------ *)
(* Logspace                                                            *)
(* ------------------------------------------------------------------ *)

let test_log_gamma_factorials () =
  (* Γ(n+1) = n! *)
  let fact n = List.fold_left ( *. ) 1.0 (List.init n (fun i -> float_of_int (i + 1))) in
  List.iter
    (fun n ->
      check_float_at 1e-8 "log_gamma matches factorial"
        (log (fact n))
        (Logspace.log_gamma (float_of_int (n + 1))))
    [ 1; 2; 5; 10; 20 ]

let test_log_gamma_half () =
  (* Γ(1/2) = sqrt(pi) *)
  check_float_at 1e-9 "gamma(0.5)" (0.5 *. log Float.pi) (Logspace.log_gamma 0.5)

let test_log_choose () =
  check_float_at 1e-8 "10 choose 3" (log 120.0) (Logspace.log_choose 10 3);
  check_float "n choose 0" 0.0 (Logspace.log_choose 5 0);
  check_float "n choose n" 0.0 (Logspace.log_choose 5 5);
  Alcotest.(check bool) "out of range" true (Logspace.log_choose 5 6 = neg_infinity)

let test_log_add () =
  check_float_at 1e-12 "log_add" (log 3.0) (Logspace.log_add (log 1.0) (log 2.0));
  check_float "identity" (log 2.0) (Logspace.log_add neg_infinity (log 2.0))

let test_hypergeom_pmf_sums_to_one () =
  let total = 50 and bad = 12 and draws = 10 in
  let acc = ref 0.0 in
  for k = 0 to draws do
    acc := !acc +. exp (Logspace.hypergeom_log_pmf ~total ~bad ~draws ~k)
  done;
  check_float_at 1e-9 "pmf sums to 1" 1.0 !acc

let test_hypergeom_tail_monotone () =
  let tail k = Logspace.hypergeom_tail ~total:400 ~bad:100 ~draws:100 ~at_least:k in
  let prev = ref 1.0 in
  for k = 0 to 100 do
    let t = tail k in
    Alcotest.(check bool) "tail non-increasing" true (t <= !prev +. 1e-12);
    prev := t
  done;
  check_float "k=0 is certain" 1.0 (tail 0)

let test_hypergeom_exact_small () =
  (* Pick 2 from {3 bad, 2 good}: P[X >= 2] = C(3,2)/C(5,2) = 3/10. *)
  check_float_at 1e-12 "exact small case" 0.3
    (Logspace.hypergeom_tail ~total:5 ~bad:3 ~draws:2 ~at_least:2)

let test_hypergeom_paper_committee_sizes () =
  (* Section 5.2: with 25% adversary, PBFT (f = (n-1)/3) needs 600+ nodes
     for Pr <= 2^-20 while AHL+ (f = (n-1)/2) needs about 80. *)
  let neg20 = Float.pow 2.0 (-20.0) in
  let pr_faulty n threshold_frac total =
    let f = int_of_float (floor (float_of_int (n - 1) *. threshold_frac)) in
    Logspace.hypergeom_tail ~total ~bad:(total / 4) ~draws:n ~at_least:(f + 1)
  in
  let total = 2000 in
  Alcotest.(check bool) "AHL+ 80-node committee is safe" true
    (pr_faulty 80 0.5 total <= neg20);
  Alcotest.(check bool) "PBFT 80-node committee is unsafe" true
    (pr_faulty 80 (1.0 /. 3.0) total > neg20);
  Alcotest.(check bool) "PBFT needs roughly 600 nodes" true
    (pr_faulty 600 (1.0 /. 3.0) total <= Float.pow 2.0 (-17.0))

let test_binomial_tail_limits () =
  check_float "at_least 0" 1.0 (Logspace.binomial_tail ~n:10 ~p:0.3 ~at_least:0);
  check_float "beyond n" 0.0 (Logspace.binomial_tail ~n:10 ~p:0.3 ~at_least:11);
  check_float_at 1e-12 "all heads" (Float.pow 0.5 10.0)
    (Logspace.binomial_tail ~n:10 ~p:0.5 ~at_least:10)

let test_binomial_approximates_hypergeom () =
  (* Sampling 10 from a huge population ~ binomial. *)
  let h = Logspace.hypergeom_tail ~total:100_000 ~bad:25_000 ~draws:10 ~at_least:5 in
  let b = Logspace.binomial_tail ~n:10 ~p:0.25 ~at_least:5 in
  check_float_at 1e-3 "binomial limit" b h

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render_aligns () =
  let out = Table.render ~header:[ "a"; "bb" ] ~rows:[ [ "1"; "2" ]; [ "10"; "20" ] ] in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check bool) "has rule line" true
    (List.exists
       (fun l -> String.length l > 0 && String.for_all (fun c -> c = '-' || c = ' ') l)
       lines)

let test_table_fnum () =
  Alcotest.(check string) "integer" "42" (Table.fnum 42.0);
  Alcotest.(check string) "zero" "0" (Table.fnum 0.0);
  Alcotest.(check string) "small" "0.2500" (Table.fnum 0.25);
  Alcotest.(check bool) "tiny uses scientific" true (String.contains (Table.fnum 1e-7) 'e')

let test_series_render () =
  let out =
    Table.series ~title:"t" ~x_label:"N" ~columns:[ "HL"; "AHL" ]
      ~rows:[ (7.0, [ 100.0; 110.0 ]); (19.0, [ 90.0; 105.0 ]) ]
  in
  Alcotest.(check bool) "contains title" true
    (String.length out > 0 && String.sub out 0 4 = "== t")

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let prop_heap_pop_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing key order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k ()) keys;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (k, ()) -> k >= prev && drain k
      in
      drain neg_infinity)

let prop_heap_ties_fifo =
  (* Small key range forces many ties; values are insertion indices, so a
     drain must match a stable sort by key — exercising the seq tie-break. *)
  QCheck.Test.make ~name:"heap breaks key ties in FIFO order" ~count:200
    QCheck.(list (int_bound 7))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h (float_of_int k) i) keys;
      let expected =
        List.map snd
          (List.stable_sort
             (fun (a, _) (b, _) -> Int.compare a b)
             (List.mapi (fun i k -> (k, i)) keys))
      in
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
      in
      drain [] = expected)

let prop_permutation_bijective =
  QCheck.Test.make ~name:"permutation is bijective" ~count:100
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, n) ->
      let n = n + 1 in
      let p = Rng.permutation (Rng.of_int seed) n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.for_all Fun.id seen)

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"mean lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 100.0))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_zipf_sample_in_range =
  QCheck.Test.make ~name:"zipf samples stay in range" ~count:100
    QCheck.(triple small_int (int_bound 500) (float_bound_inclusive 1.99))
    (fun (seed, n, theta) ->
      let n = n + 1 in
      let z = Zipf.create ~n ~theta in
      let rng = Rng.of_int seed in
      List.for_all
        (fun _ ->
          let v = Zipf.sample z rng in
          v >= 0 && v < n)
        (List.init 100 Fun.id))

let prop_hypergeom_tail_in_unit =
  QCheck.Test.make ~name:"hypergeometric tail is a probability" ~count:200
    QCheck.(quad (int_range 1 500) (int_bound 500) (int_bound 500) (int_bound 500))
    (fun (total, bad, draws, at_least) ->
      let bad = min bad total and draws = min draws total in
      let p = Logspace.hypergeom_tail ~total ~bad ~draws ~at_least in
      p >= 0.0 && p <= 1.0 +. 1e-12)

let prop_log_add_commutative =
  QCheck.Test.make ~name:"log_add commutes" ~count:200
    QCheck.(pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0))
    (fun (a, b) -> Float.abs (Logspace.log_add a b -. Logspace.log_add b a) < 1e-9)

(* The 64-bit FNV-1a of the reference definition, on boxed Int64, folded
   to 62 bits: what [Det.stable_hash] computed before it moved to native
   ints.  Every tag derived from it must stay bit-identical. *)
let fnv1a_int64_reference s =
  let prime = 0x100000001b3L and basis = 0xcbf29ce484222325L in
  let h = ref basis in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  Int64.to_int (Int64.logand !h 0x3fffffffffffffffL)

let test_stable_hash_vectors () =
  (* Published FNV-1a 64 test vectors, top two bits cleared. *)
  List.iter
    (fun (s, full) ->
      Alcotest.(check int) (Printf.sprintf "fnv1a64 %S" s)
        (Int64.to_int (Int64.logand full 0x3fffffffffffffffL))
        (Det.stable_hash s))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ]

let any_string = QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.char)

let prop_stable_hash_matches_int64 =
  QCheck.Test.make ~name:"stable_hash = Int64 FNV-1a reference" ~count:1000 any_string
    (fun s -> Det.stable_hash s = fnv1a_int64_reference s)

let edge_int =
  QCheck.(
    oneof
      [ int; small_signed_int; oneofl [ 0; -1; 1; 9; 10; -10; max_int; min_int; max_int - 1 ] ])

let prop_fnv_stream_matches_rendering =
  QCheck.Test.make ~name:"streamed fnv = stable_hash of the rendering" ~count:1000
    QCheck.(triple any_string edge_int any_string)
    (fun (a, n, b) ->
      Det.(fnv_init |> fnv_string a |> fnv_int n |> fnv_string b |> fnv_finish)
      = fnv1a_int64_reference (a ^ string_of_int n ^ b))

let prop_int_tbl_sorted_model =
  (* Random inserts/removes/resets against a sorted association list: the
     table holds the same bindings and visits them in increasing key
     order, whatever the bucket layout. *)
  QCheck.Test.make ~name:"Int_tbl matches a sorted model" ~count:300
    QCheck.(list (pair (int_range 0 3) edge_int))
    (fun ops ->
      let t = Det.Int_tbl.create 2 in
      let model =
        List.fold_left
          (fun m (op, k) ->
            match op with
            | 0 | 1 ->
                Det.Int_tbl.replace t k (k lxor 5);
                (k, k lxor 5) :: List.filter (fun (k', _) -> k' <> k) m
            | 2 ->
                Det.Int_tbl.remove t k;
                List.filter (fun (k', _) -> k' <> k) m
            | _ ->
                if k mod 7 = 0 then begin
                  Det.Int_tbl.reset t;
                  []
                end
                else m)
          [] ops
      in
      let seen = ref [] in
      Det.Int_tbl.iter_sorted (fun k v -> seen := (k, v) :: !seen) t;
      List.rev !seen = List.sort (fun (a, _) (b, _) -> Int.compare a b) model
      && Det.Int_tbl.length t = List.length model
      && List.for_all
           (fun (k, v) -> Det.Int_tbl.mem t k && Det.Int_tbl.find_opt t k = Some v)
           model)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_stable_hash_matches_int64;
      prop_fnv_stream_matches_rendering;
      prop_int_tbl_sorted_model;
      prop_heap_pop_sorted;
      prop_heap_ties_fifo;
      prop_permutation_bijective;
      prop_stats_mean_bounded;
      prop_zipf_sample_in_range;
      prop_hypergeom_tail_in_unit;
      prop_log_add_commutative;
    ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split_named order-free" `Quick test_rng_split_named_order_free;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int rejects nonpositive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int uniform" `Slow test_rng_int_uniform;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "permutation valid" `Quick test_rng_permutation_valid;
          Alcotest.test_case "permutation uniform" `Slow test_rng_permutation_uniform_position;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "random vs sort" `Quick test_heap_random_against_sort;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves submission order" `Quick test_pool_map_ordered;
          Alcotest.test_case "worker exceptions propagate" `Quick test_pool_exception_propagates;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_pool_sequential_inline;
        ] );
      ("det", [ Alcotest.test_case "stable_hash FNV-1a vectors" `Quick test_stable_hash_vectors ]);
      ( "memo",
        [
          Alcotest.test_case "exactly once under contention" `Quick test_memo_exactly_once;
          Alcotest.test_case "clear recomputes" `Quick test_memo_clear_recomputes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic moments" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "series binning" `Quick test_series_binning;
          Alcotest.test_case "series rate" `Quick test_series_rate;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "uniform at theta 0" `Quick test_zipf_uniform_when_theta_zero;
          Alcotest.test_case "monotone pmf" `Quick test_zipf_monotone_pmf;
          Alcotest.test_case "pmf sums to one" `Quick test_zipf_pmf_sums_to_one;
          Alcotest.test_case "sample matches pmf" `Slow test_zipf_sample_matches_pmf;
          Alcotest.test_case "high skew concentrates" `Quick test_zipf_high_skew_concentrates;
        ] );
      ( "logspace",
        [
          Alcotest.test_case "log_gamma factorials" `Quick test_log_gamma_factorials;
          Alcotest.test_case "log_gamma half" `Quick test_log_gamma_half;
          Alcotest.test_case "log_choose" `Quick test_log_choose;
          Alcotest.test_case "log_add" `Quick test_log_add;
          Alcotest.test_case "hypergeom pmf normalizes" `Quick test_hypergeom_pmf_sums_to_one;
          Alcotest.test_case "hypergeom tail monotone" `Quick test_hypergeom_tail_monotone;
          Alcotest.test_case "hypergeom exact small case" `Quick test_hypergeom_exact_small;
          Alcotest.test_case "paper committee sizes" `Quick test_hypergeom_paper_committee_sizes;
          Alcotest.test_case "binomial limits" `Quick test_binomial_tail_limits;
          Alcotest.test_case "binomial approximates hypergeom" `Quick
            test_binomial_approximates_hypergeom;
        ] );
      ( "table",
        [
          Alcotest.test_case "render aligns" `Quick test_table_render_aligns;
          Alcotest.test_case "fnum" `Quick test_table_fnum;
          Alcotest.test_case "series render" `Quick test_series_render;
        ] );
      ("properties", qsuite);
    ]
