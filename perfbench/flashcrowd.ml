(* Open-loop flash-crowd benchmark of the sharded system.

   A seeded Poisson generator drives one workload through the public
   [Repro_core.System] API on the simulated clock: a warm-up, a nominal
   phase, a one-second ramp, then an overload phase (the flash crowd).
   Every simulation ends with a correctness gate; a violation prints
   ["correct": false] and exits 1.

   Usage:
     flashcrowd.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 pools a fixed number of sub-runs (sub-seeds derived from N),
   each simulated in a forked child, repeats them with the same sub-seed
   while S host seconds last (a repeat must agree bit for bit), and prints
   the end-to-end metrics.  --trace 1 simulates sub-run 0 twice untraced
   and once with the lib/obs probe attached, asserts all three agree, and
   prints the per-layer metrics plus host ns/op of single public
   functions.  The last stdout line is one JSON object; see README.md. *)

open Repro_util
open Repro_ledger
open Repro_core
module Engine = Repro_sim.Engine
module Probe = Repro_obs.Probe
module Metrics = Repro_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Workloads and timeline                                              *)
(* ------------------------------------------------------------------ *)

(* Simulated seconds from the end of the nominal phase to full overload. *)
let ramp_len = 1.0

(* A nominal-phase commit later than this counts as a failure. *)
let latency_limit = 5.0

let initial_balance = 5_000

type outage = { members : int list; crash_at : float; recover_at : float }

type spec = {
  name : string;
  shards : int;
  committee_size : int;
  fast_lane : bool;
  kind : Workload.kind;
  theta : float;
  accounts : int;
  nominal_rate : float;  (** tx/s, also during the warm-up *)
  overload_rate : float;  (** tx/s after the ramp *)
  warmup : float;  (** simulated seconds before the nominal phase *)
  nominal_len : float;  (** simulated seconds *)
  overload_len : float;  (** simulated seconds after the ramp *)
  outage : outage option;  (** committee 0 *)
  subruns : int;  (** independent simulations pooled into one run's metrics *)
}

let specs =
  [
    {
      name = "xshard_uniform";
      shards = 12;
      committee_size = 3;
      fast_lane = false;
      kind = Workload.Smallbank;
      theta = 0.2;
      accounts = 96_000;
      nominal_rate = 800.0;
      overload_rate = 2400.0;
      warmup = 2.0;
      nominal_len = 20.0;
      overload_len = 8.0;
      outage = None;
      subruns = 4;
    };
    {
      name = "hotkey_mix";
      shards = 6;
      committee_size = 3;
      fast_lane = true;
      kind = Workload.Hot_increments { increment_fraction = 0.5 };
      theta = 1.49;
      accounts = 12_000;
      nominal_rate = 1000.0;
      overload_rate = 4000.0;
      warmup = 2.0;
      nominal_len = 8.0;
      overload_len = 5.0;
      outage = None;
      subruns = 4;
    };
    {
      name = "committee_recovery";
      shards = 1;
      committee_size = 19;
      fast_lane = false;
      kind = Workload.Smallbank;
      theta = 0.2;
      accounts = 1_000;
      nominal_rate = 800.0;
      overload_rate = 2000.0;
      warmup = 3.0;
      nominal_len = 10.0;
      overload_len = 5.0;
      (* f = 9 followers down for 8 s; member 0 is the observer and stays
         up.  A shorter outage lets them catch up by block replay instead
         of snapshots. *)
      outage = Some { members = List.init 9 (fun i -> 10 + i); crash_at = 3.0; recover_at = 11.0 };
      subruns = 6;
    };
  ]

let nominal_start spec = spec.warmup
let nominal_end spec = nominal_start spec +. spec.nominal_len
let overload_start spec = nominal_end spec +. ramp_len
let horizon spec = overload_start spec +. spec.overload_len

let rate_at spec t =
  if t < nominal_end spec then spec.nominal_rate
  else if t < overload_start spec then
    spec.nominal_rate
    +. ((spec.overload_rate -. spec.nominal_rate) *. (t -. nominal_end spec) /. ramp_len)
  else spec.overload_rate

(* ------------------------------------------------------------------ *)
(* Transaction book                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = Pending | Committed | Aborted

type entry = { tx : Tx.t; due : float; mutable outcome : outcome; mutable done_at : float }

type book = { mutable entries : entry array; mutable n : int; mutable double_done : int }

let book_create () = { entries = [||]; n = 0; double_done = 0 }

let book_add b e =
  if b.n = Array.length b.entries then begin
    let bigger = Array.make (Int.max 1024 (2 * b.n)) e in
    Array.blit b.entries 0 bigger 0 b.n;
    b.entries <- bigger
  end;
  b.entries.(b.n) <- e;
  b.n <- b.n + 1

let book_iter b f =
  for i = 0 to b.n - 1 do
    f b.entries.(i)
  done

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

(* Host-side observations a traced run adds; sampled at arrivals so the
   sampler schedules no events of its own. *)
type host_trace = {
  mutable next_tx_s : float;
  mutable submit_s : float;
  mutable registry_peak : int;
  mutable pending_peak : int;
  mutable inflight : (float * float) list;  (** (time, in-flight) in the nominal phase *)
}

(* One simulation's record, kept after its system is dropped. *)
type run = {
  book : book;
  wall_s : float;
  minor_words : float;
  major_collections : int;
  events : int;
}

let now = Unix.gettimeofday

let is_account_key k =
  String.starts_with ~prefix:(Smallbank_cc.checking_key "") k
  || String.starts_with ~prefix:(Smallbank_cc.savings_key "") k

let account_total sys =
  let total = ref 0 in
  for s = 0 to System.shards sys - 1 do
    let st = System.shard_state sys s in
    List.iter
      (fun k -> if is_account_key k then total := !total + Executor.balance st k)
      (State.keys st)
  done;
  !total

(* Seed of sub-run [i] of a run with [--seed seed]: an independent stream
   per (seed, i). *)
let sub_seed seed i =
  Rng.next_int64 (Rng.split_named (Rng.of_int seed) ("perfbench.sub" ^ string_of_int i))

let setup spec ~seed =
  Gc.compact ();
  let t0 = now () in
  let cfg =
    {
      (System.default_config ~shards:spec.shards ~committee_size:spec.committee_size) with
      System.fast_lane = spec.fast_lane;
    }
  in
  let sys = System.create cfg in
  let wl =
    Workload.create spec.kind ~keyspace:spec.accounts ~theta:spec.theta ~rng:(Rng.create seed)
  in
  Workload.setup wl sys ~initial_balance;
  (sys, wl, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Correctness gate                                                    *)
(* ------------------------------------------------------------------ *)

let violations = ref []

let violation fmt = Printf.ksprintf (fun msg -> violations := msg :: !violations) fmt

(* Net change a committed transaction makes to one shard's account
   balances (fast-lane counters are not accounts). *)
let shard_delta ~shards tx shard =
  List.fold_left
    (fun acc op ->
      match op with
      | Tx.Debit { account; amount }
        when is_account_key account && Tx.shard_of_key ~shards account = shard ->
          acc - amount
      | Tx.Credit { account; amount }
        when is_account_key account && Tx.shard_of_key ~shards account = shard ->
          acc + amount
      | _ -> acc)
    0 tx.Tx.ops

let check spec sys book ~initial_total =
  let shards = System.shards sys in
  let by_txid = Hashtbl.create (2 * book.n) in
  book_iter book (fun e -> Hashtbl.replace by_txid e.tx.Tx.txid e);
  (* Atomicity over the decision trace. *)
  let commits = Hashtbl.create 4096 and aborts = Hashtbl.create 4096 in
  List.iter
    (fun (d : System.decision_event) ->
      Hashtbl.replace (if d.commit then commits else aborts) (d.txid, d.shard) ())
    (System.decision_trace sys);
  let committed_at txid shard = Hashtbl.mem commits (txid, shard) in
  Hashtbl.iter
    (fun (txid, shard) () ->
      for s = 0 to shards - 1 do
        if Hashtbl.mem aborts (txid, s) then
          violation "tx %d committed at shard %d but aborted at shard %d" txid shard s
      done;
      if not (Hashtbl.mem by_txid txid) then violation "decision for unknown tx %d" txid)
    commits;
  book_iter book (fun e ->
      let txid = e.tx.Tx.txid in
      let parts = Tx.shards_touched ~shards e.tx in
      match e.outcome with
      | Committed when List.length parts >= 2 ->
          List.iter
            (fun s ->
              if not (committed_at txid s) then
                violation "cross-shard tx %d committed but not at participant %d" txid s)
            parts
      | Aborted ->
          List.iter
            (fun s -> if committed_at txid s then violation "aborted tx %d committed at %d" txid s)
            parts
      | Committed | Pending -> ());
  (* Conservation: account balances summed over every shard are unchanged
     once each shard's applied commit legs are netted out.  For a
     transaction decided everywhere its legs cancel, so what remains are
     the legs of transactions still in flight at the horizon. *)
  let in_flight = ref 0 in
  Hashtbl.iter
    (fun (txid, shard) () ->
      match Hashtbl.find_opt by_txid txid with
      | Some e -> in_flight := !in_flight + shard_delta ~shards e.tx shard
      | None -> ())
    commits;
  let final_total = account_total sys in
  if final_total <> initial_total + !in_flight then
    violation "conservation: balances %d -> %d with %d in flight" initial_total final_total
      !in_flight;
  (* Accounting: every attempt is committed, aborted or still in flight,
     and the system agrees with the benchmark's own count. *)
  let committed = ref 0 and aborted = ref 0 and pending = ref 0 in
  book_iter book (fun e ->
      incr (match e.outcome with Committed -> committed | Aborted -> aborted | Pending -> pending));
  if book.n <> !committed + !aborted + !pending then
    violation "accounting: %d attempted <> %d + %d + %d" book.n !committed !aborted !pending;
  if System.committed sys <> !committed || System.aborted sys <> !aborted then
    violation "accounting: system reports %d/%d committed/aborted, benchmark saw %d/%d"
      (System.committed sys) (System.aborted sys) !committed !aborted;
  if book.double_done > 0 then violation "%d transactions finished twice" book.double_done;
  if spec.fast_lane then
    List.iter
      (fun (shard, (m : Merge.mismatch)) ->
        violation "merge audit: shard %d key %s expected %s got %s" shard m.Merge.mkey
          m.Merge.expected m.Merge.actual)
      (System.merge_audit sys)

(* ------------------------------------------------------------------ *)
(* One simulation                                                      *)
(* ------------------------------------------------------------------ *)

(* Simulates one sub-run and passes its correctness gate.  The system is
   returned for a traced run to inspect; the end-to-end loop drops it. *)
let run_once spec ~seed ~probe =
  let sys, wl, _ = setup spec ~seed in
  let initial_total = account_total sys in
  let engine = System.engine sys in
  let book = book_create () in
  let host =
    if Probe.enabled probe then begin
      System.set_probe sys probe;
      Some
        {
          next_tx_s = 0.0;
          submit_s = 0.0;
          registry_peak = 0;
          pending_peak = 0;
          inflight = [];
        }
    end
    else None
  in
  let arrivals = Rng.split_named (Rng.create seed) "perfbench.arrivals" in
  let clients = 4 * spec.shards in
  let finished = ref 0 in
  let rec arrive () =
    let due = Engine.now engine in
    if due < horizon spec then begin
      let client = book.n mod clients in
      let tx =
        match host with
        | None -> Workload.next_tx wl sys ~client
        | Some h ->
            h.registry_peak <- Int.max h.registry_peak (System.registry_size sys);
            h.pending_peak <- Int.max h.pending_peak (Engine.pending engine);
            if due >= nominal_start spec && due < nominal_end spec then
              h.inflight <- (due, float_of_int (book.n - !finished)) :: h.inflight;
            let t0 = now () in
            let tx = Workload.next_tx wl sys ~client in
            h.next_tx_s <- h.next_tx_s +. (now () -. t0);
            tx
      in
      let e = { tx; due; outcome = Pending; done_at = nan } in
      book_add book e;
      let on_done o =
        if e.outcome <> Pending then book.double_done <- book.double_done + 1
        else begin
          incr finished;
          e.outcome <- (match o with System.Committed -> Committed | System.Aborted -> Aborted);
          e.done_at <- Engine.now engine
        end
      in
      (match host with
      | None -> System.submit sys ~on_done tx
      | Some h ->
          let t0 = now () in
          System.submit sys ~on_done tx;
          h.submit_s <- h.submit_s +. (now () -. t0));
      Engine.schedule engine
        ~delay:(Rng.exponential arrivals ~mean:(1.0 /. rate_at spec due))
        arrive
    end
  in
  Engine.schedule engine ~delay:(Rng.exponential arrivals ~mean:(1.0 /. spec.nominal_rate)) arrive;
  Option.iter
    (fun o ->
      Engine.schedule_at engine ~time:o.crash_at (fun () ->
          List.iter (fun m -> System.crash_member sys ~committee:0 ~member:m) o.members);
      Engine.schedule_at engine ~time:o.recover_at (fun () ->
          List.iter (fun m -> System.recover_member sys ~committee:0 ~member:m) o.members))
    spec.outage;
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  System.run sys ~until:(horizon spec);
  let wall_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  check spec sys book ~initial_total;
  ( {
      book;
      wall_s;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      events = Engine.events_processed engine;
    },
    sys,
    wl,
    host )

(* ------------------------------------------------------------------ *)
(* Simulated-clock metrics                                             *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Everything the metrics need from one sub-run: small enough to cross a
   pipe from the child process that simulated it. *)
type summary = {
  latencies : float array;  (** nominal-phase commits, due time to commit *)
  attempted : int;
  committed : int;
  aborted : int;
  unfinished : int;
  nominal_attempted : int;
  nominal_failed : int;  (** aborted, unfinished, or later than the limit *)
  max_gap : float;  (** longest nominal-phase stretch without a commit *)
  events : int;
  commits_per_s : int array;  (** commits in each simulated second *)
  wall_s : float;
  top_heap_words : int;
  violations : string list;
}

let summarize spec (r : run) =
  let lat = ref [] and commit_times = ref [] in
  let committed = ref 0 and aborted = ref 0 and unfinished = ref 0 in
  let nominal_attempted = ref 0 and nominal_failed = ref 0 in
  let commits_per_s = Array.make (int_of_float (Float.ceil (horizon spec))) 0 in
  book_iter r.book (fun e ->
      (match e.outcome with
      | Committed ->
          incr committed;
          if e.done_at < horizon spec then begin
            let b = int_of_float e.done_at in
            commits_per_s.(b) <- commits_per_s.(b) + 1
          end;
          if e.done_at >= nominal_start spec && e.done_at < nominal_end spec then
            commit_times := e.done_at :: !commit_times
      | Aborted -> incr aborted
      | Pending -> incr unfinished);
      if e.due >= nominal_start spec && e.due < nominal_end spec then begin
        incr nominal_attempted;
        match e.outcome with
        | Committed ->
            let l = e.done_at -. e.due in
            lat := l :: !lat;
            if l > latency_limit then incr nominal_failed
        | Aborted | Pending -> incr nominal_failed
      end);
  let last, gap =
    List.fold_left
      (fun (prev, g) t -> (t, Float.max g (t -. prev)))
      (nominal_start spec, 0.0)
      (List.sort Float.compare !commit_times)
  in
  {
    latencies = Array.of_list (List.rev !lat);
    attempted = r.book.n;
    committed = !committed;
    aborted = !aborted;
    unfinished = !unfinished;
    nominal_attempted = !nominal_attempted;
    nominal_failed = !nominal_failed;
    max_gap = Float.max gap (nominal_end spec -. last);
    events = r.events;
    commits_per_s;
    wall_s = r.wall_s;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    violations = !violations;
  }

(* Bit-level comparison of everything simulated: equal, not merely close. *)
let sim_equal a b =
  let bits = Int64.bits_of_float in
  Array.length a.latencies = Array.length b.latencies
  && Array.for_all2 (fun x y -> bits x = bits y) a.latencies b.latencies
  && a.attempted = b.attempted && a.committed = b.committed && a.aborted = b.aborted
  && a.unfinished = b.unfinished
  && a.nominal_attempted = b.nominal_attempted
  && a.nominal_failed = b.nominal_failed
  && bits a.max_gap = bits b.max_gap
  && a.events = b.events
  && a.commits_per_s = b.commits_per_s

(* Mean of the middle half of the values. *)
let interquartile_mean xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let mid = Array.sub a (n / 4) (n - (2 * (n / 4))) in
  Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)

(* Pooled over sub-runs: latency percentiles and the failure share are
   taken over all their nominal-phase transactions.  Overload throughput
   is the interquartile mean, over every simulated second of every
   sub-run's overload phase, of the commits in that second: a collapsing
   system flushes a burst of late commits in one of its first overload
   seconds, whose size depends on the seed and would swing a plain mean,
   while block-sized commit batches make a median jump between levels.
   The commit gap is the mean of the per-sub-run maxima. *)
type sim = {
  p50 : float;
  p99 : float;
  p99_samples : int;
  fail_rate : float;
  overload_tps : float;
  max_gap : float;
}

let pool spec subs =
  let lat = Stats.create () in
  List.iter (fun s -> Array.iter (Stats.add lat) s.latencies) subs;
  let sum f = List.fold_left (fun a s -> a + f s) 0 subs in
  {
    p50 = Stats.percentile lat 50.0;
    p99 = Stats.percentile lat 99.0;
    p99_samples = Stats.count lat;
    fail_rate =
      float_of_int (sum (fun s -> s.nominal_failed))
      /. float_of_int (Int.max 1 (sum (fun s -> s.nominal_attempted)));
    overload_tps =
      interquartile_mean
        (List.concat_map
           (fun s ->
             List.init (int_of_float spec.overload_len) (fun i ->
                 float_of_int s.commits_per_s.(int_of_float (overload_start spec) + i)))
           subs);
    max_gap =
      List.fold_left (fun a (s : summary) -> a +. s.max_gap) 0.0 subs
      /. float_of_int (List.length subs);
  }

(* ------------------------------------------------------------------ *)
(* Micro timings of single public functions                            *)
(* ------------------------------------------------------------------ *)

(* Median ns/op over batches, each batch sized to take ~5 ms. *)
let time_op ?(budget = 0.25) f =
  let batch =
    let t0 = now () in
    f ();
    let one = Float.max 1e-8 (now () -. t0) in
    Int.max 1 (int_of_float (0.005 /. one))
  in
  let samples = ref [] in
  let start = now () in
  while now () -. start < budget || List.length !samples < 3 do
    let t0 = now () in
    for _ = 1 to batch do
      f ()
    done;
    samples := ((now () -. t0) /. float_of_int batch *. 1e9) :: !samples
  done;
  let a = Array.of_list !samples in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let balance_state keys =
  let st = State.create () in
  for i = 0 to (keys / 2) - 1 do
    let acc = "acc" ^ string_of_int i in
    Executor.set_balance st (Smallbank_cc.checking_key acc) initial_balance;
    Executor.set_balance st (Smallbank_cc.savings_key acc) initial_balance
  done;
  st

let micro () =
  let open Repro_crypto in
  let payload = String.init 256 (fun i -> Char.chr (i mod 256)) in
  let leaves = List.init 100 (fun i -> "tx-" ^ string_of_int i) in
  let enclave =
    Repro_sgx.Enclave.create
      ~keystore:(Keys.create_keystore (Rng.create 2L))
      ~id:0 ~measurement:"perfbench" ~rng:(Rng.create 3L) ~costs:Cost_model.free
      ~charge:(fun _ -> ())
      ~now:(fun () -> 0.0)
  in
  let a2m = Repro_sgx.A2m.create enclave ~watermark_window:1_000_000 in
  let slot = ref 0 in
  let ref_steps =
    List.concat_map
      (fun txid ->
        [
          (txid, Repro_shard.Reference.Begin { participants = [ 0; 1 ] });
          (txid, Repro_shard.Reference.Prepare_ok { shard = 0 });
          (txid, Repro_shard.Reference.Prepare_ok { shard = 1 });
          (txid, Repro_shard.Reference.Prepare_ok { shard = 1 });
        ])
      (List.init 16 Fun.id)
  in
  let st20k = balance_state 20_000 in
  let fold_state = State.create () in
  let fold_keys = Array.init 16 (fun i -> Kvstore_cc.counter_key ("acc" ^ string_of_int i)) in
  let fold_txid = ref 0 in
  let lock_state = State.create () in
  let locks = Locks.create lock_state in
  let lock_txid = ref 0 in
  let lock_keys = [ Smallbank_cc.checking_key "acc1"; Smallbank_cc.checking_key "acc2" ] in
  let zipf = Zipf.create ~n:100_000 ~theta:0.99 in
  let zrng = Rng.create 9L in
  let events = 1_000 in
  [
    ("micro.crypto.sha256_256B_ns", time_op (fun () -> ignore (Sha256.digest_string payload)));
    ("micro.crypto.merkle_root_100_ns", time_op (fun () -> ignore (Merkle.root leaves)));
    ( "micro.sgx.a2m_append_ns",
      time_op (fun () ->
          incr slot;
          ignore (Repro_sgx.A2m.append a2m ~log:0 ~slot:!slot ~digest_tag:7)) );
    ( "micro.shard.ref_step_batch64_ns",
      time_op (fun () ->
          let t = Repro_shard.Reference.create () in
          ignore (Repro_shard.Reference.step_batch t ref_steps)) );
    ( "micro.shard.snapshot_pack_20k_ns",
      time_op ~budget:1.0 (fun () -> ignore (Repro_shard.State_transfer.pack st20k)) );
    ("micro.ledger.state_root_20k_ns", time_op ~budget:1.0 (fun () -> ignore (State.root st20k)));
    (* One block-boundary fold of 64 deltas spread over 16 hot counters. *)
    ( "micro.ledger.merge_fold_ns",
      time_op (fun () ->
          let lane = Merge.lane () in
          for i = 0 to 63 do
            incr fold_txid;
            Merge.append lane fold_state ~txid:!fold_txid ~key:fold_keys.(i land 15) (Tx.Add 1)
          done;
          ignore (Merge.fold_into lane fold_state)) );
    ( "micro.ledger.locks_acquire_release_ns",
      time_op (fun () ->
          incr lock_txid;
          ignore (Locks.acquire_all locks ~txid:!lock_txid lock_keys);
          Locks.release_all locks ~txid:!lock_txid lock_keys) );
    ("micro.util.zipf_sample_ns", time_op (fun () -> ignore (Zipf.sample zipf zrng)));
    (* Per event: schedule then dispatch through the engine's queue. *)
    ( "micro.sim.schedule_event_ns",
      time_op (fun () ->
          let e = Engine.create ~seed:1L in
          for i = 1 to events do
            Engine.schedule e ~delay:(float_of_int (i land 63) *. 1e-3) ignore
          done;
          Engine.run_until_idle e)
      /. float_of_int events );
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced run                                   *)
(* ------------------------------------------------------------------ *)

(* Least-squares slope of (time, value) samples. *)
let slope pts =
  let n = float_of_int (List.length pts) in
  if n < 2.0 then 0.0
  else begin
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts
    and sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let mx = sx /. n and my = sy /. n in
    let num = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0.0 pts
    and den = List.fold_left (fun a (x, _) -> a +. ((x -. mx) *. (x -. mx))) 0.0 pts in
    if den = 0.0 then 0.0 else num /. den
  end

let layer_metrics spec ~(untraced : run) ~(traced : run) ~sys ~wl ~host ~metrics =
  let ctr name = float_of_int (Metrics.counter metrics name) in
  let hist name f =
    match Metrics.histogram_stats metrics name with Some s when Stats.count s > 0 -> f s | _ -> 0.0
  in
  let mean name = hist name Stats.mean in
  let pct p name = hist name (fun s -> Stats.percentile s p) in
  let count name = hist name (fun s -> float_of_int (Stats.count s)) in
  let total name = hist name Stats.total in
  let h = host in
  let s = summarize spec traced in
  let shards = System.shards sys in
  let xtx = ref 0 and mergeable = ref 0 in
  book_iter traced.book (fun e ->
      if Tx.is_cross_shard ~shards e.tx then incr xtx;
      if List.for_all (function Tx.Credit _ -> true | _ -> false) e.tx.Tx.ops then incr mergeable);
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let events = float_of_int s.events in
  [
    ("shard.ref_busy_frac", System.reference_busy_fraction sys, "ratio");
    ("core.batch_size_mean", mean "2pc.batch.size", "steps");
    ("core.slot_steps_mean", mean "2pc.slot_steps", "steps");
    ("core.pipeline_depth_mean", mean "2pc.batch.pipeline_depth", "count");
    ("core.vote_leg_p50_s", pct 50.0 "2pc.vote_leg_s", "sim_s");
    ("core.decision_leg_p50_s", pct 50.0 "2pc.decision_leg_s", "sim_s");
    ("core.tx_total_p99_s", pct 99.0 "2pc.tx_total_s", "sim_s");
    ("core.fallback_sweeps", ctr "2pc.fallback_sweeps", "count");
    ("core.registry_peak", float_of_int h.registry_peak, "count");
    ("core.cross_shard_frac", Workload.cross_shard_fraction_seen wl, "ratio");
    ("core.next_tx_host_us", 1e6 *. ratio h.next_tx_s (float_of_int traced.book.n), "us");
    ("core.submit_host_us", 1e6 *. ratio h.submit_s (float_of_int traced.book.n), "us");
    ("ledger.lock_conflict_votes", ctr "2pc.vote_nok.lock_conflict", "count");
    ("ledger.insufficient_votes", ctr "2pc.vote_nok.insufficient", "count");
    ( "ledger.lock_conflicts_per_xtx",
      ratio (ctr "2pc.vote_nok.lock_conflict") (float_of_int !xtx),
      "ratio" );
    ("ledger.stuck_locks_end", float_of_int (System.stuck_locks sys), "count");
    ("ledger.lane_hits", ctr "merge.lane_hits", "count");
    ("ledger.lane_hit_ratio", ratio (ctr "merge.lane_hits") (float_of_int !mergeable), "ratio");
    ("ledger.downgrades", ctr "merge.downgrades", "count");
    ("ledger.folds", float_of_int (System.merge_folds sys), "count");
    ("ledger.fold_depth_mean", mean "merge.fold.depth", "count");
    ("consensus.view_changes", float_of_int (System.view_changes sys), "count");
    ("consensus.txs_per_block", ratio (ctr "pbft.txs_executed") (ctr "pbft.blocks"), "count");
    ("consensus.block_interval_p50_s", pct 50.0 "pbft.block_interval_s", "sim_s");
    ( "net.delivered_per_commit",
      ratio (count "net.delivery_s") (float_of_int (Int.max 1 s.committed)),
      "count" );
    ("net.delivery_p50_s", pct 50.0 "net.delivery_s", "sim_s");
    ("net.dropped_inbox", ctr "net.dropped.inbox", "count");
    ("ckpt.fetch_requests", ctr "ckpt.fetch.requests", "count");
    ("ckpt.snapshots", ctr "ckpt.fetch.snapshots", "count");
    ("ckpt.transfer_mb", total "ckpt.transfer_bytes" /. 1e6, "MB");
    ("ckpt.blocks_served", ctr "ckpt.fetch.blocks_served", "count");
    ("ckpt.catchup_slots_mean", mean "ckpt.catchup_slots", "count");
    ("sim.events", events, "count");
    ("sim.host_ns_per_event", 1e9 *. untraced.wall_s /. events, "ns");
    ("sim.pending_peak", float_of_int h.pending_peak, "count");
    ("sim.inflight_slope_nominal", slope h.inflight, "tx/sim_s");
    ("gc.minor_words_per_event", untraced.minor_words /. events, "words");
    ("gc.major_collections", float_of_int untraced.major_collections, "count");
    ( "obs.trace_overhead_pct",
      100.0 *. (traced.wall_s -. untraced.wall_s) /. untraced.wall_s,
      "%" );
  ]

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let json_metrics rows =
  String.concat ", "
    (List.map
       (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       rows)

let emit ~attempted rows =
  let correct = !violations = [] in
  List.iter (fun v -> Printf.eprintf "flashcrowd: VIOLATION %s\n" v) (List.rev !violations);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted (List.length !violations) (json_metrics rows);
  exit (if correct then 0 else 1)

(* Runs [f] in a forked child and returns its result: every sub-run
   starts from a fresh heap, so its setup time and heap peak do not depend
   on what ran before it in this process. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let result =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file -> Error "child exited without a result"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with
      | Ok v -> v
      | Error msg ->
          Printf.eprintf "flashcrowd: sub-run failed: %s\n%!" msg;
          exit 1)

let sub_run spec ~seed =
  let s =
    in_child (fun () ->
        violations := [];
        let r, _, _, _ = run_once spec ~seed ~probe:Probe.none in
        summarize spec r)
  in
  violations := s.violations @ !violations;
  s

let describe spec (subs : summary list) (p : sim) =
  let sum f = List.fold_left (fun a s -> a + f s) 0 subs in
  Printf.printf "%s: sub-run 0 commits per simulated second: %s\n" spec.name
    (String.concat " " (Array.to_list (Array.map string_of_int (List.hd subs).commits_per_s)));
  List.iteri
    (fun i (s : summary) ->
      let q = pool spec [ s ] in
      Printf.printf
        "%s: sub-run %d: p50 %.4f p99 %.4f fail_rate %.5f overload_tps %.1f max_gap %.4f \
         wall %.3f s\n"
        spec.name i q.p50 q.p99 q.fail_rate q.overload_tps q.max_gap s.wall_s)
    subs;
  Printf.printf
    "%s: %d attempted (%d nominal), %d committed, %d aborted, %d unfinished; fail_rate %.6f; \
     p99 over %d nominal commits; %d events\n\
     %!"
    spec.name
    (sum (fun s -> s.attempted))
    (sum (fun s -> s.nominal_attempted))
    (sum (fun s -> s.committed))
    (sum (fun s -> s.aborted))
    (sum (fun s -> s.unfinished))
    p.fail_rate p.p99_samples
    (sum (fun s -> s.events))

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let setup_children = 8

let end_to_end spec ~seed ~seconds =
  let start = now () in
  let seeds = Array.init spec.subruns (sub_seed seed) in
  (* Setup is cheap next to a simulation, so it is sampled on its own:
     in each of [setup_children] children, the median of at least three
     setups and 0.2 host seconds of them, after a discarded first setup
     that also grows the fresh heap.  The same setups run about 1.6 times
     faster in some processes than in others, so one child's median lands
     on either level; the mean over many children does not jump between
     them. *)
  let setup_s =
    let child k =
      in_child (fun () ->
          let seed = seeds.(k mod spec.subruns) in
          ignore (setup spec ~seed);
          let rec more acc =
            if List.length acc >= 3 && List.fold_left ( +. ) 0.0 acc >= 0.2 then median acc
            else
              let _, _, t = setup spec ~seed in
              more (t :: acc)
          in
          more [])
    in
    List.fold_left ( +. ) 0.0 (List.init setup_children child) /. float_of_int setup_children
  in
  let sims_start = now () in
  let subs = Array.map (fun s -> sub_run spec ~seed:s) seeds in
  (* Same-seed repeats while the host-time budget lasts: each must
     reproduce its sub-run bit for bit, and adds a host-time sample. *)
  let per_run = (now () -. sims_start) /. float_of_int spec.subruns in
  let rec repeat i acc =
    if now () -. start +. per_run > float_of_int seconds then List.rev acc
    else begin
      let k = i mod spec.subruns in
      let s = sub_run spec ~seed:seeds.(k) in
      if not (sim_equal subs.(k) s) then
        violation "sub-run %d repeated with the same seed gave different simulated results" k;
      repeat (i + 1) (s :: acc)
    end
  in
  let repeats = repeat 0 [] in
  let firsts = Array.to_list subs in
  let timed = firsts @ repeats in
  let p = pool spec firsts in
  describe spec firsts p;
  Printf.printf "%s: %d simulations of %d sub-runs, host wall %s s\n%!" spec.name
    (List.length timed) spec.subruns
    (String.concat " " (List.map (fun (s : summary) -> Printf.sprintf "%.3f" s.wall_s) timed));
  emit
    ~attempted:(List.fold_left (fun a (s : summary) -> a + s.attempted) 0 firsts)
    [
      ("setup_s", setup_s, "s");
      ("p50_latency_s", p.p50, "sim_s");
      ("p99_latency_s", p.p99, "sim_s");
      ("success_rate", 1.0 -. p.fail_rate, "ratio");
      ("overload_tps", p.overload_tps, "tx/sim_s");
      ("max_commit_gap_s", p.max_gap, "sim_s");
      (* The mean, not the median: the host's noise comes in stretches
         longer than one simulation, and over ten-run sets the mean of a
         run's simulations spread less than their median. *)
      ( "sim_wall_s",
        List.fold_left (fun a (s : summary) -> a +. s.wall_s) 0.0 timed
        /. float_of_int (List.length timed),
        "s" );
      ( "peak_heap_mb",
        median (List.map (fun (s : summary) -> heap_mb s.top_heap_words) timed),
        "MB" );
    ]

(* Sub-run 0 three times: twice untraced, which must agree bit for bit
   (same-seed determinism), then with the probe attached, which must
   reproduce them too (tracing observes without perturbing). *)
let per_layer spec ~seed =
  let seed = sub_seed seed 0 in
  let untraced, _, _, _ = run_once spec ~seed ~probe:Probe.none in
  let u = summarize spec untraced in
  let again, _, _, _ = run_once spec ~seed ~probe:Probe.none in
  if not (sim_equal u (summarize spec again)) then
    violation "same seed run twice: simulated results differ";
  let metrics = Metrics.create () in
  let traced, sys, wl, host =
    run_once spec ~seed ~probe:(Probe.make ~trace:(Repro_obs.Trace.create ()) ~metrics)
  in
  describe spec [ u ] (pool spec [ u ]);
  if not (sim_equal u (summarize spec traced)) then
    violation "traced run: simulated results differ from the untraced run";
  let rows =
    layer_metrics spec ~untraced ~traced ~sys ~wl ~host:(Option.get host) ~metrics
    @ List.map (fun (name, ns) -> (name, ns, "ns")) (micro ())
  in
  emit ~attempted:u.attempted rows

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of arrivals and transaction generation");
      ("--seconds", Arg.Set_int seconds, "S host seconds after which same-seed repeats stop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "flashcrowd.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun s -> s.name = !workload) specs with
  | None ->
      Printf.eprintf "flashcrowd: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun s -> s.name) specs));
      exit 2
  | Some spec ->
      if !trace = 0 then end_to_end spec ~seed:!seed ~seconds:!seconds
      else per_layer spec ~seed:!seed
