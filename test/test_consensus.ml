open Repro_crypto
open Repro_sim
open Repro_consensus

(* ------------------------------------------------------------------ *)
(* Quorum bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let test_quorum_counts_distinct_voters () =
  let q = Quorum.create ~n:4 in
  Alcotest.(check int) "first" 1 (Quorum.vote q ~view:0 ~seq:1 ~digest:7 ~member:0);
  Alcotest.(check int) "dup ignored" 1 (Quorum.vote q ~view:0 ~seq:1 ~digest:7 ~member:0);
  Alcotest.(check int) "second" 2 (Quorum.vote q ~view:0 ~seq:1 ~digest:7 ~member:1)

let test_quorum_digests_separate () =
  let q = Quorum.create ~n:4 in
  ignore (Quorum.vote q ~view:0 ~seq:1 ~digest:7 ~member:0);
  ignore (Quorum.vote q ~view:0 ~seq:1 ~digest:8 ~member:1);
  Alcotest.(check int) "digest 7" 1 (Quorum.count q ~view:0 ~seq:1 ~digest:7);
  Alcotest.(check int) "digest 8" 1 (Quorum.count q ~view:0 ~seq:1 ~digest:8)

let test_quorum_forget_below () =
  let q = Quorum.create ~n:4 in
  ignore (Quorum.vote q ~view:0 ~seq:1 ~digest:7 ~member:0);
  ignore (Quorum.vote q ~view:0 ~seq:10 ~digest:7 ~member:0);
  Quorum.forget_below q ~seq:5;
  Alcotest.(check int) "old gone" 0 (Quorum.count q ~view:0 ~seq:1 ~digest:7);
  Alcotest.(check int) "new kept" 1 (Quorum.count q ~view:0 ~seq:10 ~digest:7)

let test_quorum_voters () =
  let q = Quorum.create ~n:4 in
  ignore (Quorum.vote q ~view:0 ~seq:1 ~digest:7 ~member:2);
  ignore (Quorum.vote q ~view:0 ~seq:1 ~digest:7 ~member:0);
  Alcotest.(check (list int)) "sorted voters" [ 0; 2 ] (Quorum.voters q ~view:0 ~seq:1 ~digest:7)

let test_quorum_cert () =
  let q = Quorum.create ~n:5 in
  ignore (Quorum.vote q ~view:0 ~seq:3 ~digest:9 ~member:4);
  Alcotest.(check bool) "below threshold" true
    (Quorum.cert q ~threshold:2 ~view:0 ~seq:3 ~digest:9 = None);
  ignore (Quorum.vote q ~view:0 ~seq:3 ~digest:9 ~member:1);
  Alcotest.(check bool) "cert lists ascending signers" true
    (Quorum.cert q ~threshold:2 ~view:0 ~seq:3 ~digest:9 = Some [ 1; 4 ]);
  (* votes for a different digest never leak into the certificate *)
  ignore (Quorum.vote q ~view:0 ~seq:3 ~digest:8 ~member:2);
  Alcotest.(check bool) "other digest uncertified" true
    (Quorum.cert q ~threshold:2 ~view:0 ~seq:3 ~digest:8 = None)

let test_quorum_forget_below_keeps_uncertified () =
  (* GC is keyed on the certified watermark: forgetting below seq s drops
     exactly the slots the certificate covers.  Every slot at or above s —
     certified or not, however sparse its votes — must keep them, or a
     stabilizing checkpoint would erase in-flight prepare/commit state. *)
  let q = Quorum.create ~n:7 in
  for s = 1 to 40 do
    ignore (Quorum.vote q ~view:0 ~seq:s ~digest:(100 + s) ~member:(s mod 3))
  done;
  Quorum.forget_below q ~seq:17;
  for s = 1 to 16 do
    Alcotest.(check int)
      (Printf.sprintf "slot %d below the watermark is collected" s)
      0
      (Quorum.count q ~view:0 ~seq:s ~digest:(100 + s))
  done;
  for s = 17 to 40 do
    Alcotest.(check int)
      (Printf.sprintf "uncertified slot %d survives" s)
      1
      (Quorum.count q ~view:0 ~seq:s ~digest:(100 + s))
  done

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_quorum_rules () =
  let hl = Config.default Config.hl ~n:7 in
  Alcotest.(check int) "HL f" 2 (Config.f_of hl);
  Alcotest.(check int) "HL quorum 2f+1" 5 (Config.quorum_size hl);
  let ahl = Config.default Config.ahl_plus ~n:7 in
  Alcotest.(check int) "AHL f" 3 (Config.f_of ahl);
  Alcotest.(check int) "AHL quorum f+1" 4 (Config.quorum_size ahl)

let test_config_n_for_f () =
  Alcotest.(check int) "HL 3f+1" 16 (Config.n_for_f Config.hl ~f:5);
  Alcotest.(check int) "AHL 2f+1" 11 (Config.n_for_f Config.ahl_plus ~f:5)

let test_default_byz_strategy_flags () =
  (* The throughput experiments' scripted adversary: conflicting-message
     noise on, the targeted attacks off. *)
  let s = Pbft.default_byz_strategy in
  Alcotest.(check bool) "vote noise on" true s.Pbft.vote_noise;
  Alcotest.(check bool) "equivocation on" true s.Pbft.naive_equivocation;
  Alcotest.(check bool) "split brain off" false s.Pbft.split_brain;
  Alcotest.(check bool) "no silent targets" true (s.Pbft.silent_toward = []);
  Alcotest.(check bool) "no stale replay" false s.Pbft.stale_view_replay

let test_config_variant_flags () =
  Alcotest.(check bool) "HL plain" false Config.hl.Config.attested;
  Alcotest.(check bool) "AHL attested" true Config.ahl.Config.attested;
  Alcotest.(check bool) "AHL no split" false Config.ahl.Config.split_queues;
  Alcotest.(check bool) "AHL+ splits" true Config.ahl_plus.Config.split_queues;
  Alcotest.(check bool) "AHL+ forwards" true Config.ahl_plus.Config.forward_requests;
  Alcotest.(check bool) "AHLR relays" true Config.ahlr.Config.relay

(* ------------------------------------------------------------------ *)
(* A reusable single-committee fixture                                 *)
(* ------------------------------------------------------------------ *)

type fixture = {
  engine : Engine.t;
  nodes : Pbft.msg Node.t array;
  committee : Pbft.committee;
  network : Pbft.msg Network.t;
  metrics : Metrics.t;
  executions : (int, (int * int list) list ref) Hashtbl.t;
      (* member -> (seq, req ids) in execution order *)
  faults : Faults.t;
}

let make_fixture ?(variant = Config.ahl_plus) ?(n = 5) ?(byzantine = []) () =
  let engine = Engine.create ~seed:11L in
  let cfg = Config.default variant ~n in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let metrics = Metrics.create engine in
  let faults = Faults.with_byzantine_ids ~n ~ids:byzantine in
  let network = Network.create engine ~topology:(Topology.lan ()) in
  let committee = ref None in
  let nodes =
    Array.init n (fun id ->
        Node.create engine ~id ~inbox_mode:(Config.inbox_mode cfg) ~handler:(fun node msg ->
            match !committee with
            | Some c -> Pbft.handle c ~member:(Node.id node) msg
            | None -> ()))
  in
  Array.iter (Network.register network) nodes;
  let executions = Hashtbl.create 8 in
  for m = 0 to n - 1 do
    Hashtbl.replace executions m (ref [])
  done;
  let c =
    Pbft.create ~engine ~keystore ~costs:Cost_model.default ~config:cfg ~faults ~metrics
      ~enclave_base_id:0
      ~send:(fun ~src ~dst ~channel ~bytes m ->
        Network.send network ~src:nodes.(src) ~dst ~channel ~bytes m)
      ~charge:(fun ~member cost -> Node.charge nodes.(member) cost)
      ~execute:(fun ~member ~seq batch ->
        let log = Hashtbl.find executions member in
        log := (seq, List.map (fun r -> r.Types.req_id) batch) :: !log)
  in
  committee := Some c;
  Pbft.set_alive c (fun m -> not (Node.is_crashed nodes.(m)));
  Pbft.start c;
  { engine; nodes; committee = c; network; metrics; executions; faults }

let submit ?via fx ~req_id =
  let member = match via with Some m -> m | None -> req_id mod Array.length fx.nodes in
  let req = Types.request ~req_id ~client:0 ~submitted:(Engine.now fx.engine) () in
  Network.send_external fx.network ~src_region:0 ~dst:member ~channel:Pbft.request_channel
    ~bytes:240
    (Pbft.submit_via fx.committee ~member req)

let committed_ids fx ~member =
  !(Hashtbl.find fx.executions member)
  |> List.rev
  |> List.concat_map (fun (_, ids) -> ids)

(* ------------------------------------------------------------------ *)
(* PBFT end-to-end                                                     *)
(* ------------------------------------------------------------------ *)

let test_pbft_commits_requests () =
  let fx = make_fixture () in
  for i = 0 to 19 do
    submit fx ~req_id:i
  done;
  Engine.run fx.engine ~until:5.0;
  let ids = committed_ids fx ~member:0 in
  Alcotest.(check int) "all 20 committed" 20 (List.length ids);
  Alcotest.(check (list int)) "each exactly once" (List.init 20 Fun.id)
    (List.sort compare ids)

let test_pbft_all_variants_commit () =
  List.iter
    (fun variant ->
      let fx = make_fixture ~variant () in
      for i = 0 to 9 do
        submit fx ~req_id:i
      done;
      Engine.run fx.engine ~until:5.0;
      Alcotest.(check int)
        (variant.Config.name ^ " commits")
        10
        (List.length (committed_ids fx ~member:0)))
    Config.all_variants

let test_pbft_safety_across_replicas () =
  (* Every honest replica executes the same batches at the same seqs. *)
  let fx = make_fixture ~n:7 () in
  for i = 0 to 49 do
    submit fx ~req_id:i
  done;
  Engine.run fx.engine ~until:8.0;
  let reference = !(Hashtbl.find fx.executions 0) |> List.rev in
  Alcotest.(check bool) "some blocks" true (reference <> []);
  for m = 1 to 6 do
    let other = !(Hashtbl.find fx.executions m) |> List.rev in
    (* Prefix equality: a replica may lag, but never diverge. *)
    let rec prefix a b =
      match (a, b) with
      | [], _ | _, [] -> true
      | x :: xs, y :: ys -> x = y && prefix xs ys
    in
    Alcotest.(check bool) (Printf.sprintf "replica %d agrees" m) true (prefix reference other)
  done

let test_pbft_view_change_on_leader_crash () =
  let fx = make_fixture ~n:5 () in
  for i = 0 to 4 do
    submit fx ~req_id:i
  done;
  Engine.run fx.engine ~until:3.0;
  Alcotest.(check int) "view 0 initially" 0 (Pbft.current_view fx.committee ~member:2);
  (* Kill the leader; later requests must still commit after a view change. *)
  Node.crash fx.nodes.(0);
  for i = 100 to 109 do
    (* Clients notice the dead peer and use a live one. *)
    submit fx ~req_id:i ~via:(1 + (i mod 4))
  done;
  Engine.run fx.engine ~until:20.0;
  let v = Pbft.current_view fx.committee ~member:2 in
  Alcotest.(check bool) "view advanced" true (v > 0);
  (* Rotation law: the adopted view's leader is v mod n, and it is not the
     corpse the committee just abandoned. *)
  Alcotest.(check int) "leader rotates with the view" (v mod 5)
    (Pbft.leader_of_view fx.committee v);
  Alcotest.(check bool) "new leader is alive" true (Pbft.leader_of_view fx.committee v <> 0);
  let ids = committed_ids fx ~member:2 in
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "req %d committed" i) true (List.mem i ids))
    [ 100; 105; 109 ]

let test_pbft_new_view_reproposes_prepared () =
  (* Batches that prepared in view 0 but never committed (every Commit is
     eaten by the network) must survive the view change: the New_view
     re-proposals carry their certificates and the new leader drives them
     to execution. *)
  let fx = make_fixture ~n:5 () in
  Network.set_filter fx.network (fun ~src:_ ~dst:_ msg ->
      match msg with Pbft.Commit _ -> Network.Drop | _ -> Network.Deliver);
  for i = 0 to 4 do
    submit fx ~req_id:i ~via:1
  done;
  Engine.run fx.engine ~until:1.5;
  Alcotest.(check int) "nothing commits while commits are dropped" 0
    (List.length (committed_ids fx ~member:2));
  Node.crash fx.nodes.(0);
  Network.clear_filter fx.network;
  Engine.run fx.engine ~until:30.0;
  Alcotest.(check bool) "view advanced" true (Pbft.current_view fx.committee ~member:2 > 0);
  Alcotest.(check (list int)) "prepared batches re-proposed, committed exactly once"
    (List.init 5 Fun.id)
    (List.sort compare (committed_ids fx ~member:2))

let test_pbft_progress_with_f_crashes () =
  (* AHL+: n = 5, f = 2 — two crashed followers must not stop progress. *)
  let fx = make_fixture ~n:5 () in
  Node.crash fx.nodes.(3);
  Node.crash fx.nodes.(4);
  for i = 0 to 9 do
    submit fx ~req_id:i ~via:(i mod 3)
  done;
  Engine.run fx.engine ~until:6.0;
  Alcotest.(check int) "commits with quorum f+1" 10 (List.length (committed_ids fx ~member:0))

let test_pbft_no_progress_beyond_f_crashes () =
  let fx = make_fixture ~n:5 () in
  Node.crash fx.nodes.(2);
  Node.crash fx.nodes.(3);
  Node.crash fx.nodes.(4);
  for i = 0 to 9 do
    submit fx ~req_id:i
  done;
  Engine.run fx.engine ~until:6.0;
  Alcotest.(check int) "no quorum, no commits" 0 (List.length (committed_ids fx ~member:0))

let test_pbft_byzantine_equivocation_tolerated () =
  (* n = 5 AHL+ tolerates f = 2 equivocators (A2M blocks their lies). *)
  let fx = make_fixture ~n:5 ~byzantine:[ 3; 4 ] () in
  for i = 0 to 9 do
    submit fx ~req_id:i ~via:(i mod 3)
  done;
  Engine.run fx.engine ~until:10.0;
  let obs = Pbft.observer fx.committee in
  Alcotest.(check int) "commits despite equivocators" 10 (List.length (committed_ids fx ~member:obs))

let test_pbft_hl_message_complexity_higher () =
  let count variant =
    let fx = make_fixture ~variant ~n:7 () in
    for i = 0 to 19 do
      submit fx ~req_id:i
    done;
    Engine.run fx.engine ~until:5.0;
    Network.sent_count fx.network
  in
  let hl = count Config.hl and ahlr = count Config.ahlr in
  Alcotest.(check bool) "O(N^2) vs O(N)" true (hl > 2 * ahlr)

let test_pbft_observer_skips_byzantine () =
  let fx = make_fixture ~n:5 ~byzantine:[ 0 ] () in
  Alcotest.(check int) "observer is first honest" 1 (Pbft.observer fx.committee)

(* ------------------------------------------------------------------ *)
(* Lockstep (Tendermint / IBFT)                                        *)
(* ------------------------------------------------------------------ *)

let make_lockstep ?(flavour = Lockstep.Tendermint) ~n () =
  let engine = Engine.create ~seed:21L in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let metrics = Metrics.create engine in
  let network = Network.create engine ~topology:(Topology.lan ()) in
  let committee = ref None in
  let nodes =
    Array.init n (fun id ->
        Node.create engine ~id ~inbox_mode:(Inbox.Shared 5000) ~handler:(fun node msg ->
            match !committee with
            | Some c -> Lockstep.handle c ~member:(Node.id node) msg
            | None -> ()))
  in
  Array.iter (Network.register network) nodes;
  let c =
    Lockstep.create ~engine ~keystore ~costs:Cost_model.default ~flavour ~n ~batch_max:50
      ~metrics
      ~send:(fun ~src ~dst ~channel ~bytes m ->
        Network.send network ~src:nodes.(src) ~dst ~channel ~bytes m)
      ~charge:(fun ~member cost -> Node.charge nodes.(member) cost)
  in
  committee := Some c;
  Lockstep.start c;
  (engine, network, nodes, c, metrics)

let test_lockstep_commits () =
  let engine, network, _, c, metrics = make_lockstep ~n:4 () in
  for i = 0 to 9 do
    let req = Types.request ~req_id:i ~client:0 ~submitted:(Engine.now engine) () in
    Network.send_external network ~src_region:0 ~dst:(i mod 4) ~channel:Lockstep.request_channel
      ~bytes:240 (Lockstep.submit c req)
  done;
  Engine.run engine ~until:10.0;
  Alcotest.(check int) "all committed" 10 (Metrics.committed metrics);
  Alcotest.(check bool) "heights advanced" true (Lockstep.height c ~member:0 >= 1)

let test_lockstep_heights_agree () =
  let engine, network, _, c, _ = make_lockstep ~n:4 () in
  for i = 0 to 29 do
    let req = Types.request ~req_id:i ~client:0 ~submitted:(Engine.now engine) () in
    Network.send_external network ~src_region:0 ~dst:(i mod 4) ~channel:Lockstep.request_channel
      ~bytes:240 (Lockstep.submit c req)
  done;
  Engine.run engine ~until:10.0;
  let h0 = Lockstep.height c ~member:0 in
  for m = 1 to 3 do
    Alcotest.(check bool) "within one height" true (abs (Lockstep.height c ~member:m - h0) <= 1)
  done

let test_lockstep_round_change_on_proposer_crash () =
  let engine, network, nodes, c, metrics = make_lockstep ~n:4 () in
  (* Let one height commit so we are at height >= 1, then crash the next
     proposer before feeding more work. *)
  let send i =
    let req = Types.request ~req_id:i ~client:0 ~submitted:(Engine.now engine) () in
    Network.send_external network ~src_region:0 ~dst:(i mod 4) ~channel:Lockstep.request_channel
      ~bytes:240 (Lockstep.submit c req)
  in
  send 0;
  Engine.run engine ~until:3.0;
  let h = Lockstep.height c ~member:3 in
  Node.crash nodes.((h + 0) mod 4);
  for i = 1 to 10 do
    send (100 + i)
  done;
  Engine.run engine ~until:25.0;
  Alcotest.(check bool) "round changes occurred" true (Lockstep.round_changes c >= 1);
  Alcotest.(check bool) "still commits" true (Metrics.committed metrics > 1)

(* ------------------------------------------------------------------ *)
(* Raft                                                                *)
(* ------------------------------------------------------------------ *)

let make_raft ~n () =
  let engine = Engine.create ~seed:31L in
  let metrics = Metrics.create engine in
  let network = Network.create engine ~topology:(Topology.lan ()) in
  let cluster = ref None in
  let nodes =
    Array.init n (fun id ->
        Node.create engine ~id ~inbox_mode:(Inbox.Shared 5000) ~handler:(fun node msg ->
            match !cluster with
            | Some c -> Raft.handle c ~member:(Node.id node) msg
            | None -> ()))
  in
  Array.iter (Network.register network) nodes;
  let c =
    Raft.create ~engine ~costs:Cost_model.default ~n ~batch_max:50 ~metrics
      ~send:(fun ~src ~dst ~channel ~bytes m ->
        Network.send network ~src:nodes.(src) ~dst ~channel ~bytes m)
      ~charge:(fun ~member cost -> Node.charge nodes.(member) cost)
  in
  cluster := Some c;
  Raft.start c;
  (engine, network, nodes, c, metrics)

let test_raft_commits () =
  let engine, network, _, c, metrics = make_raft ~n:5 () in
  for i = 0 to 9 do
    let req = Types.request ~req_id:i ~client:0 ~submitted:(Engine.now engine) () in
    Network.send_external network ~src_region:0 ~dst:0 ~channel:Raft.request_channel ~bytes:240
      (Raft.submit c req)
  done;
  Engine.run engine ~until:10.0;
  Alcotest.(check int) "all committed" 10 (Metrics.committed metrics);
  Alcotest.(check (option int)) "leader is node 0" (Some 0) (Raft.leader_id c)

let test_raft_election_after_leader_crash () =
  let engine, network, nodes, c, metrics = make_raft ~n:5 () in
  let send i dst =
    let req = Types.request ~req_id:i ~client:0 ~submitted:(Engine.now engine) () in
    Network.send_external network ~src_region:0 ~dst ~channel:Raft.request_channel ~bytes:240
      (Raft.submit c req)
  in
  send 0 0;
  Engine.run engine ~until:2.0;
  Raft.crash c ~member:0;
  Node.crash nodes.(0);
  Engine.run engine ~until:10.0;
  (match Raft.leader_id c with
  | Some l -> Alcotest.(check bool) "new leader elected" true (l <> 0)
  | None -> Alcotest.fail "no leader after crash");
  Alcotest.(check bool) "election counted" true (Raft.elections c >= 1);
  (* New work reaches the new leader and commits (node 0 — the metrics
     observer — is dead, so check log indexes instead of counters). *)
  ignore metrics;
  let new_leader = Option.get (Raft.leader_id c) in
  let before = Raft.committed_index c ~member:new_leader in
  for i = 10 to 14 do
    send i new_leader
  done;
  Engine.run engine ~until:20.0;
  Alcotest.(check bool) "commits resumed" true
    (Raft.committed_index c ~member:new_leader > before)

let test_raft_followers_catch_up () =
  let engine, network, _, c, _ = make_raft ~n:5 () in
  for i = 0 to 19 do
    let req = Types.request ~req_id:i ~client:0 ~submitted:(Engine.now engine) () in
    Network.send_external network ~src_region:0 ~dst:0 ~channel:Raft.request_channel ~bytes:240
      (Raft.submit c req)
  done;
  Engine.run engine ~until:10.0;
  let leader_idx = Raft.committed_index c ~member:0 in
  Alcotest.(check bool) "leader committed" true (leader_idx >= 1);
  for m = 1 to 4 do
    Alcotest.(check bool) "follower within one entry" true
      (abs (Raft.committed_index c ~member:m - leader_idx) <= 1)
  done

(* ------------------------------------------------------------------ *)
(* PoET                                                                *)
(* ------------------------------------------------------------------ *)

let test_poet_basic_run () =
  let r =
    Poet.run ~n:8
      ~topology:(Topology.constrained_lan ~latency_ms:100.0 ~bandwidth_mbps:50.0)
      ~block_mb:2.0 ~block_time:18.0 ~l_bits:0 ~tx_bytes:500 ~duration:600.0 ()
  in
  Alcotest.(check bool) "blocks adopted" true (r.Poet.adopted > 0);
  Alcotest.(check bool) "adopted <= produced" true (r.Poet.adopted <= r.Poet.produced);
  Alcotest.(check bool) "stale in [0,1]" true (r.Poet.stale_rate >= 0.0 && r.Poet.stale_rate < 1.0);
  Alcotest.(check bool) "positive throughput" true (r.Poet.throughput > 0.0)

let test_poet_plus_reduces_stale () =
  let run l_bits =
    Poet.run ~n:32
      ~topology:(Topology.constrained_lan ~latency_ms:100.0 ~bandwidth_mbps:50.0)
      ~block_mb:8.0 ~block_time:18.0 ~l_bits ~tx_bytes:500 ~duration:2400.0 ()
  in
  let plain = run 0 and plus = run (Poet.plus_l_bits ~n:32) in
  Alcotest.(check bool) "PoET+ stales less" true (plus.Poet.stale_rate < plain.Poet.stale_rate)

let test_poet_plus_l_bits () =
  Alcotest.(check int) "n=128 -> l=4" 4 (Poet.plus_l_bits ~n:128);
  Alcotest.(check bool) "at least 1" true (Poet.plus_l_bits ~n:2 >= 1)

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let test_harness_open_loop () =
  let r =
    Harness.run ~duration:8.0 ~warmup:2.0 ~variant:Config.ahl_plus ~n:4
      ~topology:(Topology.lan ())
      ~workload:(Harness.Open_loop { rate = 500.0; clients = 4 })
      ()
  in
  Alcotest.(check bool) "throughput ~ offered" true
    (r.Harness.throughput > 350.0 && r.Harness.throughput < 650.0);
  Alcotest.(check bool) "latency positive" true (r.Harness.latency_mean > 0.0)

let test_harness_closed_loop_saturates () =
  let tps clients =
    (Harness.run ~duration:8.0 ~warmup:2.0 ~variant:Config.ahl_plus ~n:4
       ~topology:(Topology.lan ())
       ~workload:(Harness.Closed_loop { clients; outstanding = 8; think = 0.0 })
       ())
      .Harness.throughput
  in
  Alcotest.(check bool) "more clients more tps until saturation" true (tps 8 > tps 1)

let test_harness_crash_schedule_counters () =
  (* A leader crash injected through the harness must surface in the
     result's view-change counters while the committee keeps committing. *)
  let r =
    Harness.run ~seed:3L ~duration:20.0 ~warmup:2.0
      ~crashes:[ (0, 2.0) ]
      ~variant:Config.ahl_plus ~n:5 ~topology:(Topology.lan ())
      ~workload:(Harness.Open_loop { rate = 300.0; clients = 4 })
      ()
  in
  Alcotest.(check bool) "view change attempted" true (r.Harness.view_change_attempts >= 1);
  Alcotest.(check bool) "view change adopted" true (r.Harness.view_changes >= 1);
  Alcotest.(check bool) "attempts >= adoptions" true
    (r.Harness.view_change_attempts >= r.Harness.view_changes);
  Alcotest.(check bool) "still commits after the crash" true (r.Harness.committed > 0)

let test_harness_deterministic () =
  let run () =
    Harness.run ~seed:5L ~duration:6.0 ~variant:Config.ahl_plus ~n:4
      ~topology:(Topology.lan ())
      ~workload:(Harness.Open_loop { rate = 300.0; clients = 2 })
      ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same committed" a.Harness.committed b.Harness.committed;
  Alcotest.(check int) "same messages" a.Harness.messages_sent b.Harness.messages_sent

(* ------------------------------------------------------------------ *)
(* Fault-schedule safety property                                      *)
(* ------------------------------------------------------------------ *)

(* Under random crash/recover schedules (within the f bound), honest
   replicas' execution logs must stay prefix-consistent and every request
   that any replica executed is executed at most once there. *)
let prop_pbft_safety_under_crash_schedules =
  QCheck.Test.make ~name:"pbft: prefix safety under random crash schedules" ~count:8
    QCheck.(pair (int_range 1 1000) (list_of_size Gen.(1 -- 6) (pair (int_bound 4) (int_bound 7))))
    (fun (seed, schedule) ->
      let fx = make_fixture ~n:5 () in
      ignore seed;
      (* Submit steady work via member 0 (kept alive). *)
      for i = 0 to 39 do
        submit fx ~req_id:i ~via:0
      done;
      (* Crash/recover members 1..2 (at most f = 2 down at once) at the
         scheduled virtual times. *)
      List.iter
        (fun (who, at) ->
          let member = 1 + (who mod 2) in
          Engine.schedule fx.engine ~delay:(float_of_int (1 + at)) (fun () ->
              if Node.is_crashed fx.nodes.(member) then Node.recover fx.nodes.(member)
              else Node.crash fx.nodes.(member)))
        schedule;
      Engine.run fx.engine ~until:25.0;
      let logs =
        List.init 5 (fun m -> !(Hashtbl.find fx.executions m) |> List.rev)
      in
      let rec prefix a b =
        match (a, b) with
        | [], _ | _, [] -> true
        | x :: xs, y :: ys -> x = y && prefix xs ys
      in
      let reference = List.nth logs 0 in
      let no_dup log =
        let ids = List.concat_map snd log in
        List.length ids = List.length (List.sort_uniq compare ids)
      in
      List.for_all (fun log -> prefix reference log || prefix log reference) logs
      && List.for_all no_dup logs
      && List.length (List.concat_map snd reference) > 0)

let test_pbft_partial_synchrony_delay () =
  (* Messages delayed by 300 ms across the board: progress continues
     (liveness under partial synchrony). *)
  let fx = make_fixture ~n:4 () in
  Network.set_filter fx.network (fun ~src:_ ~dst:_ _ -> Network.Delay 0.3);
  for i = 0 to 9 do
    submit fx ~req_id:i
  done;
  Engine.run fx.engine ~until:15.0;
  Alcotest.(check int) "commits despite delay" 10 (List.length (committed_ids fx ~member:0))

let test_pbft_lossy_network_recovers () =
  (* 10% random message loss: retransmission-free PBFT rides through via
     quorum slack and checkpoint sync. *)
  let fx = make_fixture ~n:7 () in
  let rng = Repro_util.Rng.create 13L in
  Network.set_filter fx.network (fun ~src:_ ~dst:_ _ ->
      if Repro_util.Rng.float rng 1.0 < 0.10 then Network.Drop else Network.Deliver);
  for i = 0 to 29 do
    submit fx ~req_id:i
  done;
  Engine.run fx.engine ~until:30.0;
  let obs = Pbft.observer fx.committee in
  Alcotest.(check bool) "most requests commit" true
    (List.length (committed_ids fx ~member:obs) >= 25)

let test_pbft_checkpoints_stabilize () =
  (* Checkpoints every 16 blocks: after enough commits the stable horizon
     advances, proving garbage collection runs. *)
  let fx = make_fixture ~n:4 () in
  (* Drip requests so they spread over many small blocks (the checkpoint
     interval is counted in blocks, not transactions). *)
  for i = 0 to 399 do
    Engine.schedule fx.engine ~delay:(0.05 *. float_of_int i) (fun () -> submit fx ~req_id:i)
  done;
  Engine.run fx.engine ~until:40.0;
  let stable = Pbft.last_stable fx.committee ~member:0 in
  Alcotest.(check bool) "stable checkpoint advanced" true (stable >= 16);
  Alcotest.(check int) "multiple of the interval" 0 (stable mod 16)

let obs_counter metrics name =
  Option.value ~default:0 (List.assoc_opt name (Repro_obs.Metrics.counters metrics))

let test_pbft_first_cert_on_the_interval () =
  (* The first certificate must land exactly on the checkpoint interval:
     a committee that executed at least 16 but fewer than 32 blocks
     certifies seq 16 — not 15, not the latest executed slot — and every
     member binds that seq to the same execution-chain root. *)
  let fx = make_fixture ~n:4 () in
  (* 28 requests spread far apart: one block each, so the block count
     stays inside [16, 32) and the only certifiable boundary is 16. *)
  for i = 0 to 27 do
    Engine.schedule fx.engine ~delay:(0.15 *. float_of_int i) (fun () -> submit fx ~req_id:i)
  done;
  Engine.run fx.engine ~until:15.0;
  let blocks = Pbft.last_executed fx.committee ~member:0 in
  Alcotest.(check bool) "scenario stayed inside one interval" true (blocks >= 16 && blocks < 32);
  let quorum = Config.quorum_size (Config.default Config.ahl_plus ~n:4) in
  (* Replicas at equal last_executed hold equal execution-chain roots —
     the property that makes the root a certifiable digest at all. *)
  List.iter
    (fun m ->
      if Pbft.last_executed fx.committee ~member:m = blocks then
        Alcotest.(check int)
          (Printf.sprintf "member %d exec root matches" m)
          (Pbft.exec_root fx.committee ~member:0)
          (Pbft.exec_root fx.committee ~member:m))
    [ 1; 2; 3 ];
  let certs =
    List.init 4 (fun m ->
        match Pbft.checkpoint_cert fx.committee ~member:m with
        | None -> Alcotest.fail (Printf.sprintf "member %d holds no certificate" m)
        | Some (seq, root, voters) ->
            Alcotest.(check int) (Printf.sprintf "member %d certifies the boundary" m) 16 seq;
            Alcotest.(check bool)
              (Printf.sprintf "member %d cert carries a quorum" m)
              true
              (List.length (List.sort_uniq compare voters) >= quorum);
            root)
  in
  match certs with
  | r :: rest -> List.iter (Alcotest.(check int) "roots agree" r) rest
  | [] -> ()

let test_pbft_stale_checkpoint_vote_ignored () =
  (* A straggler's Checkpoint vote for a seq at or below the receiver's
     stable watermark refers to state already certified and collected:
     the receiver counts it as stale and its horizon does not move. *)
  let fx = make_fixture ~n:4 () in
  let trace = Repro_obs.Trace.create () and ometrics = Repro_obs.Metrics.create () in
  Pbft.set_probe fx.committee (Repro_obs.Probe.make ~trace ~metrics:ometrics);
  for i = 0 to 39 do
    Engine.schedule fx.engine ~delay:(0.1 *. float_of_int i) (fun () -> submit fx ~req_id:i)
  done;
  Engine.run fx.engine ~until:15.0;
  let stable = Pbft.last_stable fx.committee ~member:0 in
  Alcotest.(check bool) "a checkpoint stabilized" true (stable >= 16);
  let before = obs_counter ometrics "ckpt.stale_msg" in
  (* Deliver the straggler's vote over the wire, on the channel real
     checkpoint traffic uses. *)
  let msg = Pbft.Checkpoint { seq = stable; digest = 424242; sender = 2 } in
  Network.send_external fx.network ~src_region:0 ~dst:0 ~channel:Pbft.consensus_channel
    ~bytes:(Pbft.bytes_of_msg (Config.default Config.ahl_plus ~n:4) msg)
    msg;
  Engine.run fx.engine ~until:16.0;
  Alcotest.(check int) "straggler vote counted as stale" (before + 1)
    (obs_counter ometrics "ckpt.stale_msg");
  Alcotest.(check int) "watermark unmoved by the garbage digest" stable
    (Pbft.last_stable fx.committee ~member:0)

let test_harness_recovery_uses_fetch () =
  (* End to end through the harness: a follower crashes mid-run, recovers,
     and rejoins via the checkpoint fetch protocol — the probe records the
     applied Fetch_resp rather than the member silently staying behind. *)
  let trace = Repro_obs.Trace.create () and ometrics = Repro_obs.Metrics.create () in
  let probe = Repro_obs.Probe.make ~trace ~metrics:ometrics in
  let r =
    Harness.run ~probe ~duration:15.0 ~warmup:2.0 ~variant:Config.ahl_plus ~n:5
      ~crashes:[ (3, 4.0) ]
      ~recovers:[ (3, 9.0) ]
      ~topology:(Topology.lan ())
      ~workload:(Harness.Open_loop { rate = 400.0; clients = 8 })
      ()
  in
  Alcotest.(check bool) "run commits through the crash" true (r.Harness.committed > 0);
  Alcotest.(check bool) "recovery fetched the missed slots" true
    (obs_counter ometrics "ckpt.fetch.applied" >= 1)

let test_pbft_lagging_replica_catches_up () =
  (* A crashed follower misses whole checkpoints; on recovery the stable
     checkpoint sync (Section 5.3's state fetch) pulls it forward. *)
  let fx = make_fixture ~n:4 () in
  Node.crash fx.nodes.(3);
  for i = 0 to 199 do
    submit fx ~req_id:i ~via:(i mod 3)
  done;
  Engine.run fx.engine ~until:20.0;
  Alcotest.(check int) "lagger saw nothing" 0 (Pbft.last_executed fx.committee ~member:3);
  Node.recover fx.nodes.(3);
  for i = 200 to 299 do
    submit fx ~req_id:i ~via:(i mod 3)
  done;
  Engine.run fx.engine ~until:45.0;
  let leader_exec = Pbft.last_executed fx.committee ~member:0 in
  let lagger_exec = Pbft.last_executed fx.committee ~member:3 in
  Alcotest.(check bool) "caught up to within a checkpoint" true
    (leader_exec - lagger_exec <= 16);
  (* Quiescence: everything the leader knows about has been executed. *)
  Alcotest.(check int) "leader backlog drained" 0 (Pbft.known_backlog fx.committee ~member:0)

let test_byzantine_attack_degrades_throughput () =
  (* Figure 8 right: the conflicting-message attack costs real throughput
     but does not halt the attested variants. *)
  let run byzantine =
    (Harness.run ~duration:10.0 ~warmup:3.0 ~byzantine ~variant:Config.ahl_plus ~n:7
       ~topology:(Topology.lan ())
       ~workload:(Harness.Open_loop { rate = 1500.0; clients = 10 })
       ())
      .Harness.throughput
  in
  let honest = run 0 and attacked = run 3 in
  Alcotest.(check bool) "attack hurts" true (attacked < honest);
  Alcotest.(check bool) "but does not halt" true (attacked > 50.0)

let test_vc_backoff_cap_recovers_from_failed_view_changes () =
  (* A crashed leader plus a run of byzantine next-leaders (who never emit
     the New_view) force six consecutive failed view changes.  With the
     capped retry backoff the deadlines stay bounded and the committee
     reaches the first honest leader inside the horizon; with the cap
     lifted to the old effective exponent of 6 the deadline sum alone is
     0.25 * (2^0 + ... + 2^5) = 15.75 s and the run never recovers. *)
  let run cap =
    let trace = Repro_obs.Trace.create () and metrics = Repro_obs.Metrics.create () in
    let probe = Repro_obs.Probe.make ~trace ~metrics in
    let r =
      Harness.run ~seed:2L ~duration:12.0 ~warmup:0.0 ~byzantine:6
        ~byz_ids:[ 1; 2; 3; 4; 5; 6 ] ~crashes:[ (0, 0.1) ]
        ~tune:(fun c -> { c with Config.progress_timeout = 0.25; vc_backoff_cap = cap })
        ~probe ~variant:Config.ahl ~n:15 ~topology:(Topology.lan ())
        ~workload:(Harness.Open_loop { rate = 400.0; clients = 8 })
        ()
    in
    let capped =
      Option.value ~default:0
        (List.assoc_opt "pbft.vc.backoff_capped" (Repro_obs.Metrics.counters metrics))
    in
    (r, capped)
  in
  let default_cap = (Config.default Config.ahl ~n:15).Config.vc_backoff_cap in
  Alcotest.(check int) "default cap is 3" 3 default_cap;
  let r, capped = run default_cap in
  Alcotest.(check bool) "cap binds during the stall run" true (capped > 0);
  Alcotest.(check bool) "honest leader reached" true (r.Harness.view_changes >= 1);
  Alcotest.(check bool) "committee recovers and commits" true (r.Harness.committed > 0);
  let r6, _ = run 6 in
  Alcotest.(check int) "old exponent never recovers in-horizon" 0 r6.Harness.committed

let test_relay_watchdog_fires_on_selective_serving () =
  (* AHLR under a selective-serving byzantine leader: served replicas send
     their relay votes to a leader that sits on them, so the relay
     watchdog must suspect it ("relay-stall") and the committee must
     depose it and keep committing. *)
  let run ~attack =
    let trace = Repro_obs.Trace.create () and metrics = Repro_obs.Metrics.create () in
    let probe = Repro_obs.Probe.make ~trace ~metrics in
    let byz_ids, byz_strategy =
      if attack then
        ( [ 0 ],
          Some
            {
              Pbft.default_byz_strategy with
              Pbft.leader_attack = Some (Pbft.Leader_serve_only [ 0; 1; 2 ]);
            } )
      else ([], None)
    in
    let r =
      Harness.run ~seed:2L ~duration:12.0 ~warmup:0.0 ~byzantine:(List.length byz_ids) ~byz_ids
        ?byz_strategy ~probe ~variant:Config.ahlr ~n:4 ~topology:(Topology.lan ())
        ~workload:(Harness.Open_loop { rate = 400.0; clients = 4 })
        ()
    in
    let relay_stalls =
      Option.value ~default:0
        (List.assoc_opt "pbft.vc.reason.relay-stall" (Repro_obs.Metrics.counters metrics))
    in
    (r, relay_stalls)
  in
  let attacked, stalls = run ~attack:true in
  Alcotest.(check bool) "relay watchdog fires" true (stalls > 0);
  Alcotest.(check bool) "selective server deposed" true (attacked.Harness.view_changes >= 1);
  Alcotest.(check bool) "committee still commits" true (attacked.Harness.committed > 0);
  (* Quiet when commits merely arrive via the relay: an honest AHLR run
     must never suspect its leader. *)
  let honest, honest_stalls = run ~attack:false in
  Alcotest.(check int) "no relay-stall without the attack" 0 honest_stalls;
  Alcotest.(check int) "no view changes without the attack" 0 honest.Harness.view_changes;
  Alcotest.(check bool) "honest run commits" true (honest.Harness.committed > 0)

let test_slow_drip_leader_throttles_without_detection () =
  (* The drip strategy emits each batch just under the watchdog period:
     the committee is throttled hard but no replica ever suspects the
     leader — the stealth end of the leader-attack palette. *)
  let run byz_strategy =
    Harness.run ~seed:2L ~duration:12.0 ~warmup:2.0
      ~byzantine:(if byz_strategy = None then 0 else 1)
      ~byz_ids:(if byz_strategy = None then [] else [ 0 ])
      ?byz_strategy ~variant:Config.ahl ~n:4 ~topology:(Topology.lan ())
      ~workload:(Harness.Open_loop { rate = 400.0; clients = 4 })
      ()
  in
  let dripped =
    run (Some { Pbft.default_byz_strategy with Pbft.leader_attack = Some (Pbft.Leader_drip 1.9) })
  in
  let honest = run None in
  Alcotest.(check int) "never deposed" 0 dripped.Harness.view_changes;
  Alcotest.(check bool) "still commits" true (dripped.Harness.committed > 0);
  Alcotest.(check bool) "but badly throttled" true
    (dripped.Harness.throughput < honest.Harness.throughput /. 2.0)

let test_hl_byzantine_equivocation_splits_votes () =
  (* Without A2M the equivocators' conflicting digests pollute the vote
     tables; with 3f+1 honest margin progress continues regardless. *)
  let fx = make_fixture ~variant:Config.hl ~n:7 ~byzantine:[ 5; 6 ] () in
  for i = 0 to 9 do
    submit fx ~req_id:i ~via:(i mod 5)
  done;
  Engine.run fx.engine ~until:15.0;
  let obs = Pbft.observer fx.committee in
  Alcotest.(check int) "HL survives f equivocators" 10
    (List.length (committed_ids fx ~member:obs))

let test_pbft_partition_halts_minority () =
  (* Partition {0,1} | {2,3,4} in an n=5 AHL+ committee (quorum 3): the
     majority side keeps committing, the minority side cannot — and after
     healing the minority catches up without divergence. *)
  let fx = make_fixture ~n:5 () in
  let majority = [ 2; 3; 4 ] in
  Network.set_filter fx.network (fun ~src ~dst _ ->
      let side x = List.mem x majority in
      if src >= 0 && side src <> side dst then Network.Drop else Network.Deliver);
  (* The leader (member 0) is in the minority: nobody commits until a view
     change elects a majority-side leader. *)
  for i = 0 to 9 do
    submit fx ~req_id:i ~via:2
  done;
  Engine.run fx.engine ~until:20.0;
  let committed_majority = committed_ids fx ~member:2 in
  let committed_minority = committed_ids fx ~member:0 in
  Alcotest.(check int) "majority commits all" 10 (List.length committed_majority);
  Alcotest.(check int) "minority commits nothing" 0 (List.length committed_minority);
  (* Heal; enough post-heal traffic crosses a checkpoint, which is what
     pulls the stale minority forward (Section 5.3's state transfer). *)
  Network.clear_filter fx.network;
  for i = 10 to 409 do
    Engine.schedule fx.engine ~delay:(20.0 +. (0.02 *. float_of_int i)) (fun () ->
        submit fx ~req_id:i ~via:2)
  done;
  Engine.run fx.engine ~until:60.0;
  Alcotest.(check bool) "minority synced after heal" true
    (Pbft.last_executed fx.committee ~member:0 >= 16);
  (* Anything the minority executed itself is a prefix of the majority's
     log (no divergence). *)
  (* No divergence — but catch-up may legitimately skip a certified prefix
     (the Section 5.3 snapshot install: this embedding's snapshot hook is
     the state-free default, so a member anchored at a checkpoint adopts it
     without replay).  Whatever the minority member executed must match the
     majority slot for slot, in order, and any skipped prefix must be
     covered by its stable certificate. *)
  let log0 = !(Hashtbl.find fx.executions 0) |> List.rev in
  let log2 = !(Hashtbl.find fx.executions 2) |> List.rev in
  Alcotest.(check bool) "minority executed after heal" true (log0 <> []);
  List.iter
    (fun (seq, ids) ->
      match List.assoc_opt seq log2 with
      | Some ids2 -> Alcotest.(check (list int)) (Printf.sprintf "slot %d agrees" seq) ids2 ids
      | None -> Alcotest.fail (Printf.sprintf "slot %d unknown to the majority" seq))
    log0;
  Alcotest.(check bool) "slots executed in order" true
    (List.for_all2 ( = ) (List.map fst log0) (List.sort compare (List.map fst log0)));
  (match log0 with
  | (first, _) :: _ ->
      Alcotest.(check bool) "skipped prefix covered by a certificate" true
        (first = 1 || Pbft.last_stable fx.committee ~member:0 >= first - 1)
  | [] -> ())

(* Tags are hashed from their renderings without building the strings;
   each must equal the [Printf] rendering it replaced, hashed whole
   ([Det.stable_hash] itself is pinned to an Int64 reference in
   test_util). *)
let edge_int =
  QCheck.(oneof [ int; small_signed_int; oneofl [ 0; -1; 10; max_int; min_int ] ])

let prop_digest_of_batch_rendering =
  QCheck.Test.make ~name:"digest_of_batch = hash of its rendering" ~count:500
    QCheck.(small_list edge_int)
    (fun ids ->
      let batch =
        List.map (fun req_id -> Types.request ~req_id ~client:0 ~submitted:0.0 ()) ids
      in
      Types.digest_of_batch batch
      = Repro_util.Det.stable_hash
          ("batch:" ^ String.concat "," (List.map string_of_int ids)))

let prop_vote_tag_rendering =
  QCheck.Test.make ~name:"vote_tag = hash of its rendering" ~count:500
    QCheck.(quad bool edge_int edge_int edge_int)
    (fun (commit, view, seq, digest) ->
      let phase, idx = if commit then (Types.Commit_phase, 2) else (Types.Prepare_phase, 1) in
      Pbft.vote_tag ~phase ~view ~seq ~digest
      = Repro_util.Det.stable_hash (Printf.sprintf "rvote:%d:%d:%d:%d" idx view seq digest))

let prop_exec_root_rendering =
  QCheck.Test.make ~name:"chain_exec_root = hash of its rendering" ~count:500
    QCheck.(triple edge_int edge_int edge_int)
    (fun (root, seq, digest) ->
      Types.chain_exec_root ~root ~seq ~digest
      = Repro_util.Det.stable_hash (Printf.sprintf "ckpt:%d:%d:%d" root seq digest))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pbft_safety_under_crash_schedules;
      prop_digest_of_batch_rendering;
      prop_vote_tag_rendering;
      prop_exec_root_rendering;
    ]

let () =
  Alcotest.run "consensus"
    [
      ( "quorum",
        [
          Alcotest.test_case "distinct voters" `Quick test_quorum_counts_distinct_voters;
          Alcotest.test_case "digests separate" `Quick test_quorum_digests_separate;
          Alcotest.test_case "forget below" `Quick test_quorum_forget_below;
          Alcotest.test_case "cert threshold" `Quick test_quorum_cert;
          Alcotest.test_case "forget below keeps uncertified" `Quick
            test_quorum_forget_below_keeps_uncertified;
          Alcotest.test_case "voters" `Quick test_quorum_voters;
        ] );
      ( "config",
        [
          Alcotest.test_case "quorum rules" `Quick test_config_quorum_rules;
          Alcotest.test_case "n_for_f" `Quick test_config_n_for_f;
          Alcotest.test_case "variant flags" `Quick test_config_variant_flags;
          Alcotest.test_case "default byz strategy" `Quick test_default_byz_strategy_flags;
        ] );
      ( "pbft",
        [
          Alcotest.test_case "commits requests" `Quick test_pbft_commits_requests;
          Alcotest.test_case "all variants commit" `Quick test_pbft_all_variants_commit;
          Alcotest.test_case "safety across replicas" `Quick test_pbft_safety_across_replicas;
          Alcotest.test_case "view change on leader crash" `Quick
            test_pbft_view_change_on_leader_crash;
          Alcotest.test_case "new view re-proposes prepared" `Quick
            test_pbft_new_view_reproposes_prepared;
          Alcotest.test_case "progress with f crashes" `Quick test_pbft_progress_with_f_crashes;
          Alcotest.test_case "halts beyond f crashes" `Quick test_pbft_no_progress_beyond_f_crashes;
          Alcotest.test_case "byzantine equivocation tolerated" `Quick
            test_pbft_byzantine_equivocation_tolerated;
          Alcotest.test_case "message complexity" `Quick test_pbft_hl_message_complexity_higher;
          Alcotest.test_case "observer skips byzantine" `Quick test_pbft_observer_skips_byzantine;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "commits" `Quick test_lockstep_commits;
          Alcotest.test_case "heights agree" `Quick test_lockstep_heights_agree;
          Alcotest.test_case "round change on crash" `Quick
            test_lockstep_round_change_on_proposer_crash;
        ] );
      ( "raft",
        [
          Alcotest.test_case "commits" `Quick test_raft_commits;
          Alcotest.test_case "election after crash" `Quick test_raft_election_after_leader_crash;
          Alcotest.test_case "followers catch up" `Quick test_raft_followers_catch_up;
        ] );
      ( "poet",
        [
          Alcotest.test_case "basic run" `Quick test_poet_basic_run;
          Alcotest.test_case "PoET+ reduces stale" `Slow test_poet_plus_reduces_stale;
          Alcotest.test_case "plus l bits" `Quick test_poet_plus_l_bits;
        ] );
      ( "harness",
        [
          Alcotest.test_case "open loop" `Quick test_harness_open_loop;
          Alcotest.test_case "closed loop saturates" `Quick test_harness_closed_loop_saturates;
          Alcotest.test_case "crash schedule counters" `Quick test_harness_crash_schedule_counters;
          Alcotest.test_case "deterministic" `Quick test_harness_deterministic;
        ] );
      ( "adversarial-network",
        [
          Alcotest.test_case "partial synchrony delay" `Quick test_pbft_partial_synchrony_delay;
          Alcotest.test_case "lossy network" `Quick test_pbft_lossy_network_recovers;
          Alcotest.test_case "checkpoints stabilize" `Quick test_pbft_checkpoints_stabilize;
          Alcotest.test_case "first cert on the interval" `Quick
            test_pbft_first_cert_on_the_interval;
          Alcotest.test_case "stale checkpoint vote ignored" `Quick
            test_pbft_stale_checkpoint_vote_ignored;
          Alcotest.test_case "harness recovery uses fetch" `Quick
            test_harness_recovery_uses_fetch;
          Alcotest.test_case "lagging replica catches up" `Quick
            test_pbft_lagging_replica_catches_up;
          Alcotest.test_case "byzantine attack degrades" `Slow
            test_byzantine_attack_degrades_throughput;
          Alcotest.test_case "HL survives equivocators" `Quick
            test_hl_byzantine_equivocation_splits_votes;
          Alcotest.test_case "partition safety" `Quick test_pbft_partition_halts_minority;
          Alcotest.test_case "vc backoff cap recovery" `Slow
            test_vc_backoff_cap_recovers_from_failed_view_changes;
          Alcotest.test_case "relay watchdog on selective serving" `Slow
            test_relay_watchdog_fires_on_selective_serving;
          Alcotest.test_case "slow-drip leader throttles" `Slow
            test_slow_drip_leader_throttles_without_detection;
        ] );
      ("properties", qsuite);
    ]
