open Repro_ledger

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let test_state_put_get () =
  let s = State.create () in
  State.put s "k" "v";
  Alcotest.(check (option string)) "get" (Some "v") (State.get_data s "k");
  Alcotest.(check bool) "mem" true (State.mem s "k");
  Alcotest.(check (option string)) "missing" None (State.get_data s "nope")

let test_state_versions_bump () =
  let s = State.create () in
  State.put s "k" "v1";
  State.put s "k" "v2";
  match State.get s "k" with
  | Some { State.data; version } ->
      Alcotest.(check string) "latest" "v2" data;
      Alcotest.(check int) "version" 1 version
  | None -> Alcotest.fail "missing"

let test_state_delete () =
  let s = State.create () in
  State.put s "k" "v";
  State.delete s "k";
  Alcotest.(check bool) "gone" false (State.mem s "k")

let test_state_root_changes_with_content () =
  let s = State.create () in
  State.put s "a" "1";
  let r1 = State.root s in
  State.put s "b" "2";
  let r2 = State.root s in
  Alcotest.(check bool) "root differs" false (Repro_crypto.Sha256.equal r1 r2)

let test_state_root_insertion_order_free () =
  let s1 = State.create () and s2 = State.create () in
  State.put s1 "a" "1";
  State.put s1 "b" "2";
  State.put s2 "b" "2";
  State.put s2 "a" "1";
  Alcotest.(check bool) "same root" true (Repro_crypto.Sha256.equal (State.root s1) (State.root s2))

let test_state_snapshot_restore () =
  let s = State.create () in
  State.put s "a" "1";
  State.put s "b" "2";
  State.put s "b" "3";
  let s' = State.restore (State.snapshot s) in
  Alcotest.(check bool) "equal" true (State.equal s s');
  Alcotest.(check bool) "roots match" true
    (Repro_crypto.Sha256.equal (State.root s) (State.root s'))

(* ------------------------------------------------------------------ *)
(* Locks                                                               *)
(* ------------------------------------------------------------------ *)

let test_locks_acquire_release () =
  let s = State.create () in
  let l = Locks.create s in
  Alcotest.(check bool) "acquire" true (Locks.acquire l ~txid:1 "acc");
  Alcotest.(check (option int)) "holder" (Some 1) (Locks.holder l "acc");
  Alcotest.(check bool) "lock tuple on chain" true (State.mem s "L_acc");
  Locks.release l ~txid:1 "acc";
  Alcotest.(check (option int)) "released" None (Locks.holder l "acc")

let test_locks_conflict () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:1 "acc");
  Alcotest.(check bool) "other tx refused" false (Locks.acquire l ~txid:2 "acc");
  Alcotest.(check bool) "re-entrant" true (Locks.acquire l ~txid:1 "acc")

let test_locks_release_only_owner () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:1 "acc");
  Locks.release l ~txid:2 "acc";
  Alcotest.(check (option int)) "still held" (Some 1) (Locks.holder l "acc")

let test_locks_acquire_all_rollback () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:9 "b");
  Alcotest.(check bool) "all-or-nothing fails" false (Locks.acquire_all l ~txid:1 [ "a"; "b"; "c" ]);
  Alcotest.(check (option int)) "a rolled back" None (Locks.holder l "a");
  Alcotest.(check (option int)) "b untouched" (Some 9) (Locks.holder l "b")

let test_locks_acquire_all_keeps_prior_locks () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:1 "a");
  ignore (Locks.acquire l ~txid:9 "c");
  Alcotest.(check bool) "fails on c" false (Locks.acquire_all l ~txid:1 [ "a"; "b"; "c" ]);
  Alcotest.(check (option int)) "pre-existing a kept" (Some 1) (Locks.holder l "a");
  Alcotest.(check (option int)) "b rolled back" None (Locks.holder l "b")

let test_locks_held_by () =
  let s = State.create () in
  let l = Locks.create s in
  ignore (Locks.acquire l ~txid:1 "b");
  ignore (Locks.acquire l ~txid:1 "a");
  ignore (Locks.acquire l ~txid:2 "c");
  Alcotest.(check (list string)) "tx1 locks" [ "a"; "b" ] (Locks.held_by l ~txid:1)

(* ------------------------------------------------------------------ *)
(* Tx                                                                  *)
(* ------------------------------------------------------------------ *)

let test_tx_keys_sorted_distinct () =
  let tx =
    Tx.make ~txid:1
      [ Tx.Put { key = "b"; value = "1" }; Tx.Get { key = "a" }; Tx.Put { key = "b"; value = "2" } ]
  in
  Alcotest.(check (list string)) "keys" [ "a"; "b" ] (Tx.keys tx)

let test_tx_shard_mapping_stable () =
  let a = Tx.shard_of_key ~shards:7 "account-42" in
  let b = Tx.shard_of_key ~shards:7 "account-42" in
  Alcotest.(check int) "deterministic" a b;
  Alcotest.(check bool) "in range" true (a >= 0 && a < 7)

let test_tx_shard_mapping_spreads () =
  let shards = 8 in
  let counts = Array.make shards 0 in
  for i = 0 to 7999 do
    let s = Tx.shard_of_key ~shards ("key" ^ string_of_int i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "within 20% of uniform" true (abs (c - 1000) < 200))
    counts

let test_tx_ops_for_shard_partitions () =
  let shards = 5 in
  let ops = List.init 20 (fun i -> Tx.Put { key = "k" ^ string_of_int i; value = "" }) in
  let tx = Tx.make ~txid:1 ops in
  let total =
    List.fold_left
      (fun acc s -> acc + List.length (Tx.ops_for_shard ~shards tx s))
      0
      (List.init shards Fun.id)
  in
  Alcotest.(check int) "partition covers all ops" 20 total

let test_tx_cross_shard_detection () =
  let shards = 4 in
  (* Find two keys in different shards and two in the same. *)
  let k0 = "base" in
  let s0 = Tx.shard_of_key ~shards k0 in
  let rec find pred i =
    let k = "probe" ^ string_of_int i in
    if pred (Tx.shard_of_key ~shards k) then k else find pred (i + 1)
  in
  let other = find (fun s -> s <> s0) 0 in
  let same = find (fun s -> s = s0) 0 in
  let mk keys = Tx.make ~txid:1 (List.map (fun key -> Tx.Put { key; value = "" }) keys) in
  Alcotest.(check bool) "cross" true (Tx.is_cross_shard ~shards (mk [ k0; other ]));
  Alcotest.(check bool) "single" false (Tx.is_cross_shard ~shards (mk [ k0; same ]))

(* ------------------------------------------------------------------ *)
(* Executor                                                            *)
(* ------------------------------------------------------------------ *)

let funded () =
  let s = State.create () in
  Executor.set_balance s "alice" 100;
  Executor.set_balance s "bob" 50;
  s

let transfer ~amount = [ Tx.Debit { account = "alice"; amount }; Tx.Credit { account = "bob"; amount } ]

let test_executor_prepare_commit () =
  let s = funded () in
  (match Executor.prepare s ~txid:1 (transfer ~amount:30) with
  | Executor.Prepare_ok -> ()
  | Executor.Prepare_not_ok r -> Alcotest.fail r);
  (* Locks are held between prepare and commit. *)
  let l = Locks.create s in
  Alcotest.(check (option int)) "alice locked" (Some 1) (Locks.holder l "alice");
  Executor.commit s ~txid:1 (transfer ~amount:30);
  Alcotest.(check int) "alice" 70 (Executor.balance s "alice");
  Alcotest.(check int) "bob" 80 (Executor.balance s "bob");
  Alcotest.(check (option int)) "locks released" None (Locks.holder l "alice")

let test_executor_prepare_insufficient () =
  let s = funded () in
  (match Executor.prepare s ~txid:1 (transfer ~amount:1000) with
  | Executor.Prepare_not_ok _ -> ()
  | Executor.Prepare_ok -> Alcotest.fail "should refuse overdraft");
  let l = Locks.create s in
  Alcotest.(check (option int)) "no dangling lock" None (Locks.holder l "alice")

let test_executor_credit_funds_debit () =
  (* A debit covered by a credit within the same transaction is valid. *)
  let s = State.create () in
  Executor.set_balance s "x" 0;
  let ops = [ Tx.Credit { account = "x"; amount = 10 }; Tx.Debit { account = "x"; amount = 5 } ] in
  match Executor.prepare s ~txid:1 ops with
  | Executor.Prepare_ok -> ()
  | Executor.Prepare_not_ok r -> Alcotest.fail r

let test_executor_abort_releases_without_applying () =
  let s = funded () in
  ignore (Executor.prepare s ~txid:1 (transfer ~amount:30));
  Executor.abort s ~txid:1 (transfer ~amount:30);
  Alcotest.(check int) "alice unchanged" 100 (Executor.balance s "alice");
  Alcotest.(check (option int)) "released" None (Locks.holder (Locks.create s) "alice")

let test_executor_commit_requires_own_locks () =
  (* A commit without a preceding prepare (no locks) must not apply. *)
  let s = funded () in
  Executor.commit s ~txid:7 (transfer ~amount:30);
  Alcotest.(check int) "alice unchanged" 100 (Executor.balance s "alice")

let test_executor_lock_conflict_votes_nok () =
  let s = funded () in
  ignore (Executor.prepare s ~txid:1 (transfer ~amount:10));
  match Executor.prepare s ~txid:2 (transfer ~amount:10) with
  | Executor.Prepare_not_ok _ -> ()
  | Executor.Prepare_ok -> Alcotest.fail "conflicting prepare must fail"

let test_executor_single_path () =
  let s = funded () in
  (match Executor.execute_single s ~txid:1 (transfer ~amount:30) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "alice" 70 (Executor.balance s "alice");
  match Executor.execute_single s ~txid:2 (transfer ~amount:1000) with
  | Error _ -> Alcotest.(check int) "alice unchanged" 70 (Executor.balance s "alice")
  | Ok () -> Alcotest.fail "overdraft"

(* ------------------------------------------------------------------ *)
(* Block / Chain                                                       *)
(* ------------------------------------------------------------------ *)

let test_chain_append_and_validate () =
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let c = Block.Chain.create ~state_root in
  Block.Chain.append c ~txs:[ "t1"; "t2" ] ~state_root ~timestamp:1.0;
  Block.Chain.append c ~txs:[ "t3" ] ~state_root ~timestamp:2.0;
  Alcotest.(check int) "height" 2 (Block.Chain.height c);
  Alcotest.(check bool) "validates" true (Block.Chain.validate c)

let test_chain_link_verification () =
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let g = Block.genesis state_root in
  let b1 = Block.next ~parent:g ~txs:[ "a" ] ~state_root ~timestamp:1.0 in
  Alcotest.(check bool) "link ok" true (Block.verify_link ~parent:g ~child:b1);
  let forged = { b1 with Block.txs = [ "b" ] } in
  Alcotest.(check bool) "tampered txs detected" false (Block.verify_link ~parent:g ~child:forged)

let test_chain_append_links_like_next () =
  (* Chain.append defers hashing to the first read; Block.next hashes
     eagerly and re-hashes the parent.  Both must produce the very same
     blocks, whether the chain is read after every append or only once
     at the end. *)
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let batches = [ [ "t1"; "t2" ]; []; [ "t3" ]; [ "t4"; "t5"; "t6" ] ] in
  let by_next =
    List.rev
      (snd
         (List.fold_left
            (fun (i, acc) txs ->
              let parent = List.hd acc in
              let timestamp = float_of_int i in
              (i + 1, Block.next ~parent ~txs ~state_root ~timestamp :: acc))
            (1, [ Block.genesis state_root ])
            batches))
  in
  let hex b = Repro_crypto.Sha256.to_hex (Block.hash b) in
  let read_each = Block.Chain.create ~state_root and read_once = Block.Chain.create ~state_root in
  List.iteri
    (fun i txs ->
      let timestamp = float_of_int (i + 1) in
      Block.Chain.append read_each ~txs ~state_root ~timestamp;
      Block.Chain.append read_once ~txs ~state_root ~timestamp;
      Alcotest.(check string)
        (Printf.sprintf "tip %d hash" (i + 1))
        (hex (List.nth by_next (i + 1)))
        (hex (Block.Chain.tip read_each)))
    batches;
  List.iteri
    (fun h expected ->
      match Block.Chain.at read_once h with
      | Some b -> Alcotest.(check string) (Printf.sprintf "block %d hash" h) (hex expected) (hex b)
      | None -> Alcotest.fail "missing block")
    by_next

let test_chain_height_counts_unsealed () =
  (* [height] answers from the append count alone; sealing later must not
     change it, and every block sealed in one go links to its predecessor. *)
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let c = Block.Chain.create ~state_root in
  Alcotest.(check int) "genesis" 0 (Block.Chain.height c);
  for i = 1 to 5 do
    Block.Chain.append c ~txs:[ Printf.sprintf "t%d" i ] ~state_root ~timestamp:(float_of_int i);
    Alcotest.(check int) (Printf.sprintf "after append %d" i) i (Block.Chain.height c)
  done;
  Alcotest.(check int) "tip seals the newest" 5 (Block.Chain.tip c).Block.header.Block.height;
  Alcotest.(check int) "height unchanged by sealing" 5 (Block.Chain.height c);
  Alcotest.(check bool) "validates" true (Block.Chain.validate c);
  Block.Chain.append c ~txs:[ "t6" ] ~state_root ~timestamp:6.0;
  Alcotest.(check int) "append after a read" 6 (Block.Chain.height c);
  match (Block.Chain.at c 5, Block.Chain.at c 6) with
  | Some parent, Some child ->
      Alcotest.(check bool) "sealed across a read" true (Block.verify_link ~parent ~child)
  | _ -> Alcotest.fail "missing block"

let test_chain_lazy_seal_catches_forgery () =
  (* Blocks sealed on first read are ordinary blocks: a forged tx body or
     header in a copy of them still fails validation. *)
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let c = Block.Chain.create ~state_root in
  for i = 1 to 3 do
    Block.Chain.append c ~txs:[ Printf.sprintf "t%d" i; "x" ] ~state_root ~timestamp:1.0
  done;
  Alcotest.(check bool) "honest chain validates" true (Block.Chain.validate c);
  let block h =
    match Block.Chain.at c h with Some b -> b | None -> Alcotest.fail "missing block"
  in
  let adopt blocks =
    match Block.Chain.of_blocks blocks with Some c -> c | None -> Alcotest.fail "empty chain"
  in
  let forged_tx h = { (block h) with Block.txs = [ "t0"; "x" ] } in
  Alcotest.(check bool) "forged tip tx rejected" false
    (Block.Chain.validate (adopt [ forged_tx 3; block 2; block 1; block 0 ]));
  Alcotest.(check bool) "forged inner tx rejected" false
    (Block.Chain.validate (adopt [ block 3; forged_tx 2; block 1; block 0 ]));
  let forged_mid =
    let b = block 2 in
    { b with Block.header = { b.Block.header with Block.timestamp = 2.0 } }
  in
  Alcotest.(check bool) "forged inner header rejected" false
    (Block.Chain.validate (adopt [ block 3; forged_mid; block 1; block 0 ]))

let test_chain_rejects_forged_parent_header () =
  (* Rewrite a committed block's header in place (its state root): every
     child still points at the original header hash, and validation must
     notice because it re-hashes headers rather than trusting a cache. *)
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let c = Block.Chain.create ~state_root in
  for i = 1 to 3 do
    Block.Chain.append c ~txs:[ Printf.sprintf "t%d" i ] ~state_root ~timestamp:1.0
  done;
  let block h =
    match Block.Chain.at c h with Some b -> b | None -> Alcotest.fail "missing block"
  in
  let forged =
    let b = block 1 in
    {
      b with
      Block.header =
        { b.Block.header with Block.state_root = Repro_crypto.Sha256.digest_string "forged" };
    }
  in
  let adopt blocks =
    match Block.Chain.of_blocks blocks with Some c -> c | None -> Alcotest.fail "empty chain"
  in
  Alcotest.(check bool) "honest copy validates" true
    (Block.Chain.validate (adopt [ block 3; block 2; block 1; block 0 ]));
  Alcotest.(check bool) "forged parent header rejected" false
    (Block.Chain.validate (adopt [ block 3; block 2; forged; block 0 ]));
  Alcotest.(check bool) "no blocks, no chain" true (Block.Chain.of_blocks [] = None)

let test_chain_tx_inclusion_proof () =
  let state_root = Repro_crypto.Sha256.digest_string "s0" in
  let g = Block.genesis state_root in
  let b = Block.next ~parent:g ~txs:[ "t0"; "t1"; "t2" ] ~state_root ~timestamp:1.0 in
  let proof = Block.tx_proof b 1 in
  Alcotest.(check bool) "t1 included" true (Block.verify_tx b ~tx:"t1" proof);
  Alcotest.(check bool) "t9 not included" false (Block.verify_tx b ~tx:"t9" proof)

(* ------------------------------------------------------------------ *)
(* Chaincodes                                                          *)
(* ------------------------------------------------------------------ *)

let invoke cc s ~txid fn args = Chaincode.invoke cc s ~txid { Chaincode.fn; args }

let test_kvstore_write_read () =
  let s = State.create () in
  (match invoke Kvstore_cc.chaincode s ~txid:1 "write" [ "k"; "v" ] with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  match invoke Kvstore_cc.chaincode s ~txid:2 "read" [ "k" ] with
  | Chaincode.Success v -> Alcotest.(check string) "read back" "v" v
  | Chaincode.Failure e -> Alcotest.fail e

let test_kvstore_prepare_commit_cycle () =
  let s = State.create () in
  let ops = [ Tx.Put { key = "k"; value = "v" } ] in
  let inv phase = Chaincode.functions_of_ops ~txid:5 ~phase ops in
  (match Chaincode.invoke Kvstore_cc.chaincode s ~txid:5 (inv `Prepare) with
  | Chaincode.Success r -> Alcotest.(check string) "vote" "PrepareOK" r
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check bool) "lock tuple exists" true (State.mem s "L_k");
  (match Chaincode.invoke Kvstore_cc.chaincode s ~txid:5 (inv `Commit) with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check (option string)) "written" (Some "v") (State.get_data s "k");
  Alcotest.(check bool) "lock gone" false (State.mem s "L_k")

let test_kvstore_unknown_function () =
  let s = State.create () in
  match invoke Kvstore_cc.chaincode s ~txid:1 "nuke" [] with
  | Chaincode.Failure _ -> ()
  | Chaincode.Success _ -> Alcotest.fail "unknown fn must fail"

let test_smallbank_setup_and_balance () =
  let s = State.create () in
  Smallbank_cc.setup s ~accounts:3 ~initial:100;
  Alcotest.(check int) "checking" 100 (Smallbank_cc.checking s "acc0");
  Alcotest.(check int) "savings" 100 (Smallbank_cc.savings s "acc1");
  Alcotest.(check int) "total" 600 (Smallbank_cc.total_money s);
  match invoke Smallbank_cc.chaincode s ~txid:1 "getBalance" [ "acc0" ] with
  | Chaincode.Success v -> Alcotest.(check string) "combined" "200" v
  | Chaincode.Failure e -> Alcotest.fail e

let test_smallbank_send_payment () =
  let s = State.create () in
  Smallbank_cc.setup s ~accounts:2 ~initial:100;
  (match invoke Smallbank_cc.chaincode s ~txid:1 "sendPayment" [ "acc0"; "acc1"; "40" ] with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check int) "src" 60 (Smallbank_cc.checking s "acc0");
  Alcotest.(check int) "dst" 140 (Smallbank_cc.checking s "acc1");
  Alcotest.(check int) "money conserved" 400 (Smallbank_cc.total_money s)

let test_smallbank_overdraft_refused () =
  let s = State.create () in
  Smallbank_cc.setup s ~accounts:2 ~initial:100;
  (match invoke Smallbank_cc.chaincode s ~txid:1 "sendPayment" [ "acc0"; "acc1"; "500" ] with
  | Chaincode.Failure _ -> ()
  | Chaincode.Success _ -> Alcotest.fail "overdraft accepted");
  Alcotest.(check int) "unchanged" 100 (Smallbank_cc.checking s "acc0")

let test_smallbank_amalgamate () =
  let s = State.create () in
  Smallbank_cc.setup s ~accounts:2 ~initial:100;
  (match invoke Smallbank_cc.chaincode s ~txid:1 "amalgamate" [ "acc0"; "acc1" ] with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check int) "src emptied" 0 (Smallbank_cc.checking s "acc0" + Smallbank_cc.savings s "acc0");
  Alcotest.(check int) "dst holds all" 300 (Smallbank_cc.checking s "acc1");
  Alcotest.(check int) "conserved" 400 (Smallbank_cc.total_money s)

let test_smallbank_write_check_and_savings () =
  let s = State.create () in
  Smallbank_cc.setup s ~accounts:1 ~initial:100;
  (match invoke Smallbank_cc.chaincode s ~txid:1 "writeCheck" [ "acc0"; "30" ] with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check int) "checking" 70 (Smallbank_cc.checking s "acc0");
  (match invoke Smallbank_cc.chaincode s ~txid:2 "transactSavings" [ "acc0"; "200" ] with
  | Chaincode.Failure _ -> ()
  | Chaincode.Success _ -> Alcotest.fail "savings overdraft accepted");
  Alcotest.(check int) "savings unchanged" 100 (Smallbank_cc.savings s "acc0")

let test_smallbank_prepare_payment_running_example () =
  (* The Section 6.3 running example: preparePayment writes the lock
     tuples, commitPayment applies and removes them. *)
  let s = State.create () in
  Smallbank_cc.setup s ~accounts:2 ~initial:100;
  let ops = Smallbank_cc.send_payment_ops ~src:"acc0" ~dst:"acc1" ~amount:25 in
  let inv phase = Chaincode.functions_of_ops ~txid:9 ~phase ops in
  (match Chaincode.invoke Smallbank_cc.chaincode s ~txid:9 (inv `Prepare) with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check bool) "L_chk_acc0 exists" true (State.mem s "L_chk_acc0");
  (match Chaincode.invoke Smallbank_cc.chaincode s ~txid:9 (inv `Commit) with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check int) "applied" 75 (Smallbank_cc.checking s "acc0");
  Alcotest.(check bool) "lock removed" false (State.mem s "L_chk_acc0")

(* ------------------------------------------------------------------ *)
(* UTXO                                                                *)
(* ------------------------------------------------------------------ *)

let test_utxo_mint_and_spend () =
  let u = Utxo.create () in
  let c = Utxo.mint u ~owner:"alice" ~amount:10 in
  Alcotest.(check int) "balance" 10 (Utxo.balance u "alice");
  match Utxo.apply u { Utxo.inputs = [ c.Utxo.id ]; outputs = [ ("bob", 10) ] } with
  | Ok [ out ] ->
      Alcotest.(check string) "new owner" "bob" out.Utxo.owner;
      Alcotest.(check int) "alice spent" 0 (Utxo.balance u "alice");
      Alcotest.(check int) "bob funded" 10 (Utxo.balance u "bob")
  | Ok _ | Error _ -> Alcotest.fail "spend failed"

let test_utxo_double_spend_rejected () =
  let u = Utxo.create () in
  let c = Utxo.mint u ~owner:"alice" ~amount:10 in
  ignore (Utxo.apply u { Utxo.inputs = [ c.Utxo.id ]; outputs = [ ("bob", 10) ] });
  match Utxo.apply u { Utxo.inputs = [ c.Utxo.id ]; outputs = [ ("carol", 10) ] } with
  | Error _ -> Alcotest.(check int) "carol got nothing" 0 (Utxo.balance u "carol")
  | Ok _ -> Alcotest.fail "double spend accepted"

let test_utxo_rejects_inflation () =
  let u = Utxo.create () in
  let c = Utxo.mint u ~owner:"alice" ~amount:10 in
  match Utxo.apply u { Utxo.inputs = [ c.Utxo.id ]; outputs = [ ("bob", 11) ] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "created money"

let test_utxo_rejects_duplicate_inputs () =
  let u = Utxo.create () in
  let c = Utxo.mint u ~owner:"alice" ~amount:10 in
  match Utxo.apply u { Utxo.inputs = [ c.Utxo.id; c.Utxo.id ]; outputs = [ ("bob", 20) ] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate input accepted"

let test_utxo_multi_input_change () =
  let u = Utxo.create () in
  let c1 = Utxo.mint u ~owner:"alice" ~amount:7 in
  let c2 = Utxo.mint u ~owner:"alice" ~amount:5 in
  match
    Utxo.apply u
      { Utxo.inputs = [ c1.Utxo.id; c2.Utxo.id ]; outputs = [ ("bob", 10); ("alice", 2) ] }
  with
  | Ok _ ->
      Alcotest.(check int) "change" 2 (Utxo.balance u "alice");
      Alcotest.(check int) "paid" 10 (Utxo.balance u "bob")
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Tx serialization                                                    *)
(* ------------------------------------------------------------------ *)

let sample_tx =
  Tx.make ~txid:42 ~client:7 ~submitted:1.25
    [
      Tx.Put { key = "k|odd"; value = "v%0a" };
      Tx.Get { key = "plain" };
      Tx.Debit { account = "alice"; amount = 30 };
      Tx.Credit { account = "bob"; amount = 30 };
    ]

let test_tx_serialize_roundtrip () =
  match Tx.deserialize (Tx.serialize sample_tx) with
  | Ok t ->
      Alcotest.(check int) "txid" 42 t.Tx.txid;
      Alcotest.(check int) "client" 7 t.Tx.client;
      Alcotest.(check int) "ops count" 4 (List.length t.Tx.ops);
      Alcotest.(check bool) "ops equal" true (t.Tx.ops = sample_tx.Tx.ops)
  | Error e -> Alcotest.fail e

let test_tx_deserialize_rejects_garbage () =
  (match Tx.deserialize "not a tx" with Error _ -> () | Ok _ -> Alcotest.fail "garbage accepted");
  match Tx.deserialize "tx|1|2|3.0\nfly|me" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad op accepted"

let test_tx_digest_distinguishes () =
  let other = Tx.make ~txid:43 ~client:7 ~submitted:1.25 sample_tx.Tx.ops in
  Alcotest.(check bool) "different txid different digest" false
    (Repro_crypto.Sha256.equal (Tx.digest sample_tx) (Tx.digest other))

(* ------------------------------------------------------------------ *)
(* Contract DSL (Section 6.4 extension)                                *)
(* ------------------------------------------------------------------ *)

let send_payment_contract =
  Contract.define ~name:"sendPayment" ~arity:3
    [ Contract.Transfer { from_ = Contract.Param 0; to_ = Contract.Param 1;
                          amount = Contract.Amount_param 2 } ]

let test_contract_compile () =
  match Contract.compile send_payment_contract ~args:[ "alice"; "bob"; "25" ] with
  | Ok [ Tx.Debit { account = "alice"; amount = 25 }; Tx.Credit { account = "bob"; amount = 25 } ]
    ->
      ()
  | Ok _ -> Alcotest.fail "wrong ops"
  | Error e -> Alcotest.fail e

let test_contract_arity_and_amount_errors () =
  (match Contract.compile send_payment_contract ~args:[ "alice"; "bob" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity not checked");
  match Contract.compile send_payment_contract ~args:[ "alice"; "bob"; "lots" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "amount not parsed"

let test_contract_define_validates_params () =
  Alcotest.check_raises "param out of range"
    (Repro_util.Invariant.Violation "Contract.define: parameter out of range") (fun () ->
      ignore
        (Contract.define ~name:"bad" ~arity:1
           [ Contract.Deposit { to_ = Contract.Param 3; amount = Contract.Amount_lit 1 } ]))

let test_contract_analyze () =
  let shards = 4 in
  match Contract.analyze send_payment_contract ~shards ~args:[ "alice"; "bob"; "5" ] with
  | `Single s -> Alcotest.(check int) "alice&bob same shard" (Tx.shard_of_key ~shards "alice") s
  | `Cross l ->
      Alcotest.(check (list int)) "footprint"
        (List.sort_uniq compare [ Tx.shard_of_key ~shards "alice"; Tx.shard_of_key ~shards "bob" ])
        l

let test_contract_single_shard_entry () =
  let cc = Contract.to_chaincode send_payment_contract in
  let s = State.create () in
  Executor.set_balance s "alice" 100;
  (match Chaincode.invoke cc s ~txid:1 { Chaincode.fn = "sendPayment"; args = [ "alice"; "bob"; "30" ] } with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check int) "alice" 70 (Executor.balance s "alice");
  Alcotest.(check int) "bob" 30 (Executor.balance s "bob")

let test_contract_auto_sharded_entries () =
  (* The same definition serves the coordinator's prepare/commit flow. *)
  let cc = Contract.to_chaincode send_payment_contract in
  let s = State.create () in
  Executor.set_balance s "alice" 100;
  let ops = Result.get_ok (Contract.compile send_payment_contract ~args:[ "alice"; "bob"; "30" ]) in
  let inv phase = Chaincode.functions_of_ops ~txid:9 ~phase ops in
  (match Chaincode.invoke cc s ~txid:9 (inv `Prepare) with
  | Chaincode.Success v -> Alcotest.(check string) "vote" "PrepareOK" v
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check bool) "auto lock tuple" true (State.mem s "L_alice");
  (match Chaincode.invoke cc s ~txid:9 (inv `Commit) with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check int) "applied" 70 (Executor.balance s "alice");
  Alcotest.(check bool) "lock gone" false (State.mem s "L_alice")

let test_contract_guarded_withdraw () =
  let escrow =
    Contract.define ~name:"release" ~arity:2
      [
        Contract.Withdraw { from_ = Contract.Lit "escrow"; amount = Contract.Amount_param 1 };
        Contract.Deposit { to_ = Contract.Param 0; amount = Contract.Amount_param 1 };
        Contract.Set { key = Contract.Lit "escrow_status"; value = Contract.Lit "released" };
      ]
  in
  let cc = Contract.to_chaincode escrow in
  let s = State.create () in
  Executor.set_balance s "escrow" 50;
  (match Chaincode.invoke cc s ~txid:1 { Chaincode.fn = "release"; args = [ "carol"; "80" ] } with
  | Chaincode.Failure _ -> ()
  | Chaincode.Success _ -> Alcotest.fail "overdraft accepted");
  (match Chaincode.invoke cc s ~txid:2 { Chaincode.fn = "release"; args = [ "carol"; "50" ] } with
  | Chaincode.Success _ -> ()
  | Chaincode.Failure e -> Alcotest.fail e);
  Alcotest.(check int) "carol paid" 50 (Executor.balance s "carol");
  Alcotest.(check (option string)) "status" (Some "released") (State.get_data s "escrow_status")

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_money_conserved_under_random_transfers =
  QCheck.Test.make ~name:"smallbank conserves money under random op sequences" ~count:100
    QCheck.(list (triple (int_bound 4) (int_bound 4) (int_range 1 50)))
    (fun transfers ->
      let s = State.create () in
      Smallbank_cc.setup s ~accounts:5 ~initial:100;
      List.iteri
        (fun i (a, b, amt) ->
          ignore
            (Chaincode.invoke Smallbank_cc.chaincode s ~txid:i
               {
                 Chaincode.fn = "sendPayment";
                 args = [ "acc" ^ string_of_int a; "acc" ^ string_of_int b; string_of_int amt ];
               }))
        transfers;
      Smallbank_cc.total_money s = 1000)

let prop_utxo_value_never_increases =
  QCheck.Test.make ~name:"utxo total value never increases" ~count:100
    QCheck.(list (pair (int_bound 9) (int_bound 9)))
    (fun spends ->
      let u = Utxo.create () in
      let coins = Array.init 10 (fun i -> Utxo.mint u ~owner:("o" ^ string_of_int i) ~amount:10) in
      let initial = Utxo.total_unspent u in
      List.iter
        (fun (i, j) ->
          ignore
            (Utxo.apply u
               { Utxo.inputs = [ coins.(i).Utxo.id ]; outputs = [ (("o" ^ string_of_int j), 10) ] }))
        spends;
      Utxo.total_unspent u <= initial)

let prop_tx_serialize_roundtrip =
  QCheck.Test.make ~name:"tx serialization roundtrips" ~count:200
    QCheck.(
      pair small_int
        (list_of_size Gen.(1 -- 8) (pair (pair printable_string printable_string) (int_bound 1000))))
    (fun (txid, raw_ops) ->
      let ops =
        List.concat_map
          (fun ((k, v), amount) ->
            if k = "" then []
            else [ Tx.Put { key = k; value = v }; Tx.Debit { account = k ^ "a"; amount } ])
          raw_ops
      in
      ops = []
      ||
      let tx = Tx.make ~txid ops in
      match Tx.deserialize (Tx.serialize tx) with
      | Ok t -> t.Tx.ops = tx.Tx.ops && t.Tx.txid = tx.Tx.txid
      | Error _ -> false)

let prop_prepare_abort_is_identity =
  QCheck.Test.make ~name:"prepare then abort leaves state unchanged" ~count:100
    QCheck.(pair (int_range 1 200) (int_range 1 200))
    (fun (bal, amount) ->
      let s = State.create () in
      Executor.set_balance s "a" bal;
      Executor.set_balance s "b" 0;
      let snapshot = State.snapshot s in
      let ops = [ Tx.Debit { account = "a"; amount }; Tx.Credit { account = "b"; amount } ] in
      ignore (Executor.prepare s ~txid:1 ops);
      Executor.abort s ~txid:1 ops;
      (* Versions may have moved (lock write/delete) but data must match. *)
      List.for_all
        (fun (k, v) -> State.get_data s k = Some v.State.data)
        snapshot)

(* ------------------------------------------------------------------ *)
(* Mergeable state (the fast lane's delta algebra, DESIGN §18)         *)
(* ------------------------------------------------------------------ *)

let test_merge_classify () =
  let reg = Merge.create_registry () in
  Smallbank_cc.declare_mergeable reg;
  Kvstore_cc.declare_mergeable reg;
  Alcotest.(check (list string))
    "rules declared" [ "smallbank.credit"; "kvstore.counter" ] (Merge.rule_names reg);
  Smallbank_cc.declare_mergeable reg;
  Alcotest.(check int) "re-declaring is a no-op" 2 (List.length (Merge.rule_names reg));
  (* A Merge op classifies as itself; a Credit via the smallbank rule;
     conditional debits never classify. *)
  (match Merge.classify_op reg (Tx.Merge { key = "k"; delta = Tx.Add 3 }) with
  | Some ("k", Tx.Add 3) -> ()
  | _ -> Alcotest.fail "Merge op should classify as itself");
  (match Merge.classify_op reg (Tx.Credit { account = "a"; amount = 7 }) with
  | Some ("a", Tx.Add 7) -> ()
  | _ -> Alcotest.fail "Credit should classify via smallbank.credit");
  Alcotest.(check bool) "Debit is not mergeable" true
    (Merge.classify_op reg (Tx.Debit { account = "a"; amount = 7 }) = None);
  (* classify_tx is all-or-nothing. *)
  let all_credits =
    Tx.make ~txid:1
      [ Tx.Credit { account = "a"; amount = 1 }; Tx.Credit { account = "b"; amount = 2 } ]
  in
  (match Merge.classify_tx reg all_credits with
  | Some [ ("a", Tx.Add 1); ("b", Tx.Add 2) ] -> ()
  | _ -> Alcotest.fail "all-credit tx should classify");
  let mixed =
    Tx.make ~txid:2
      [ Tx.Credit { account = "a"; amount = 1 }; Tx.Debit { account = "b"; amount = 2 } ]
  in
  Alcotest.(check bool) "mixed tx stays locked" true (Merge.classify_tx reg mixed = None)

let test_merge_apply_delta () =
  let s = State.create () in
  Executor.set_balance s "n" 10;
  Merge.apply_delta s "n" (Tx.Add 5);
  Alcotest.(check int) "add folds onto balance" 15 (Executor.balance s "n");
  Merge.apply_delta s "n" (Tx.Maxi 40);
  Alcotest.(check int) "max lifts" 40 (Executor.balance s "n");
  Merge.apply_delta s "n" (Tx.Maxi 12);
  Alcotest.(check int) "max keeps" 40 (Executor.balance s "n");
  Merge.apply_delta s "fresh" (Tx.Add 3);
  Alcotest.(check int) "absent key starts at identity" 3 (Executor.balance s "fresh");
  Merge.apply_delta s "set" (Tx.Union [ "b"; "a" ]);
  Merge.apply_delta s "set" (Tx.Union [ "c"; "a" ]);
  Alcotest.(check (option string)) "union accumulates sorted" (Some "a,b,c")
    (State.get_data s "set")

let test_merge_lane_fold_order_free () =
  (* Same delta set, two append orders: identical folded state and root. *)
  let run order =
    let lane = Merge.lane () in
    let s = State.create () in
    Executor.set_balance s "x" 100;
    List.iter (fun (txid, key, d) -> Merge.append lane s ~txid ~key d) order;
    let count, _digest = Merge.fold_into lane s in
    (count, Executor.balance s "x", Executor.balance s "y", Repro_crypto.Sha256.to_hex (Merge.root lane))
  in
  let deltas = [ (1, "x", Tx.Add 5); (2, "y", Tx.Add 7); (3, "x", Tx.Maxi 90) ] in
  let a = run deltas and b = run (List.rev deltas) in
  Alcotest.(check bool) "fold independent of arrival order" true (a = b);
  let count, x, y, _ = a in
  Alcotest.(check int) "all folded" 3 count;
  Alcotest.(check int) "x folded canonically" 105 x;
  Alcotest.(check int) "y folded" 7 y

let test_merge_audit_detects_divergence () =
  let lane = Merge.lane () in
  let s = State.create () in
  Executor.set_balance s "k" 10;
  Merge.append lane s ~txid:1 ~key:"k" (Tx.Add 5);
  ignore (Merge.fold_into lane s);
  Alcotest.(check int) "one fold" 1 (Merge.folds lane);
  Alcotest.(check int) "nothing pending" 0 (Merge.depth lane);
  Alcotest.(check int) "log keeps history" 1 (Merge.log_length lane);
  Alcotest.(check bool) "converged after fold" true (Merge.audit lane s = []);
  (* A write bypassing the lane is exactly what the audit exists to catch. *)
  Executor.set_balance s "k" 999;
  match Merge.audit lane s with
  | [ { Merge.mkey = "k"; expected; actual } ] ->
      Alcotest.(check string) "expected is the canonical fold" "15" expected;
      Alcotest.(check string) "actual is the tampered value" "999" actual
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms)

let delta_arb =
  let print d = Format.asprintf "%a" Tx.pp_delta d in
  QCheck.make ~print
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Tx.Add n) (int_range (-100) 100);
          map (fun n -> Tx.Maxi n) (int_range (-100) 100);
          map
            (fun l -> Tx.Union l)
            (list_size (0 -- 4) (string_size ~gen:(char_range 'a' 'd') (1 -- 2)));
        ])

let prop_merge_combine_commutative =
  QCheck.Test.make ~name:"merge combine is commutative" ~count:300
    QCheck.(pair delta_arb delta_arb)
    (fun (a, b) -> Merge.combine a b = Merge.combine b a)

let prop_merge_combine_associative =
  QCheck.Test.make ~name:"merge combine is associative" ~count:300
    QCheck.(triple delta_arb delta_arb delta_arb)
    (fun (a, b, c) ->
      let ( >>= ) = Option.bind in
      (Merge.combine a b >>= fun ab -> Merge.combine ab c)
      = (Merge.combine b c >>= fun bc -> Merge.combine a bc))

let prop_merge_identity =
  QCheck.Test.make ~name:"merge identity is neutral" ~count:300 delta_arb (fun d ->
      Merge.combine d (Merge.identity d) = Some (Merge.canon d))

(* The state's snapshot/root memo against a memo-free model: after any
   interleaving of writes and reads, the memoised root and snapshot must
   equal those of a fresh State.restore of the model's entries. *)
type state_op = Put of int * int | Delete of int | Read_root | Read_snapshot

let state_op_arb =
  QCheck.(
    map
      (fun (tag, k, v) ->
        match tag with
        | 0 | 1 -> Put (k, v)
        | 2 -> Delete k
        | 3 -> Read_root
        | _ -> Read_snapshot)
      (triple (int_bound 4) (int_bound 7) (int_bound 99)))

let prop_state_memo_matches_restore =
  QCheck.Test.make ~name:"memoised root/snapshot equal a fresh restore" ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) state_op_arb)
    (fun ops ->
      let s = State.create () in
      let model = Hashtbl.create 8 in
      let key k = "k" ^ string_of_int k in
      let entries () =
        List.sort (fun (a, _) (b, _) -> String.compare a b) (List.of_seq (Hashtbl.to_seq model))
      in
      let snapshot_agrees () =
        let snap = State.snapshot s and expected = entries () in
        List.length snap = List.length expected
        && List.for_all2
             (fun (ka, (va : State.value)) (kb, (vb : State.value)) ->
               ka = kb && va.data = vb.data && va.version = vb.version)
             snap expected
      in
      let root_agrees () =
        Repro_crypto.Sha256.equal (State.root s) (State.root (State.restore (entries ())))
      in
      List.for_all
        (fun op ->
          match op with
          | Put (k, v) ->
              let version =
                match Hashtbl.find_opt model (key k) with
                | Some (old : State.value) -> old.version + 1
                | None -> 0
              in
              State.put s (key k) (string_of_int v);
              Hashtbl.replace model (key k) { State.data = string_of_int v; version };
              true
          | Delete k ->
              State.delete s (key k);
              Hashtbl.remove model (key k);
              true
          | Read_root -> root_agrees ()
          | Read_snapshot -> snapshot_agrees ())
        ops
      && root_agrees () && snapshot_agrees ())

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_money_conserved_under_random_transfers;
      prop_utxo_value_never_increases;
      prop_prepare_abort_is_identity;
      prop_tx_serialize_roundtrip;
      prop_merge_combine_commutative;
      prop_merge_combine_associative;
      prop_merge_identity;
      prop_state_memo_matches_restore;
    ]

let () =
  Alcotest.run "ledger"
    [
      ( "state",
        [
          Alcotest.test_case "put/get" `Quick test_state_put_get;
          Alcotest.test_case "versions" `Quick test_state_versions_bump;
          Alcotest.test_case "delete" `Quick test_state_delete;
          Alcotest.test_case "root changes" `Quick test_state_root_changes_with_content;
          Alcotest.test_case "root order-free" `Quick test_state_root_insertion_order_free;
          Alcotest.test_case "snapshot/restore" `Quick test_state_snapshot_restore;
        ] );
      ( "locks",
        [
          Alcotest.test_case "acquire/release" `Quick test_locks_acquire_release;
          Alcotest.test_case "conflict" `Quick test_locks_conflict;
          Alcotest.test_case "owner-only release" `Quick test_locks_release_only_owner;
          Alcotest.test_case "acquire_all rollback" `Quick test_locks_acquire_all_rollback;
          Alcotest.test_case "acquire_all keeps prior" `Quick test_locks_acquire_all_keeps_prior_locks;
          Alcotest.test_case "held_by" `Quick test_locks_held_by;
        ] );
      ( "tx",
        [
          Alcotest.test_case "keys" `Quick test_tx_keys_sorted_distinct;
          Alcotest.test_case "stable mapping" `Quick test_tx_shard_mapping_stable;
          Alcotest.test_case "mapping spreads" `Quick test_tx_shard_mapping_spreads;
          Alcotest.test_case "ops partition" `Quick test_tx_ops_for_shard_partitions;
          Alcotest.test_case "cross-shard detection" `Quick test_tx_cross_shard_detection;
          Alcotest.test_case "serialize roundtrip" `Quick test_tx_serialize_roundtrip;
          Alcotest.test_case "deserialize rejects garbage" `Quick
            test_tx_deserialize_rejects_garbage;
          Alcotest.test_case "digest distinguishes" `Quick test_tx_digest_distinguishes;
        ] );
      ( "executor",
        [
          Alcotest.test_case "prepare/commit" `Quick test_executor_prepare_commit;
          Alcotest.test_case "insufficient funds" `Quick test_executor_prepare_insufficient;
          Alcotest.test_case "credit funds debit" `Quick test_executor_credit_funds_debit;
          Alcotest.test_case "abort releases" `Quick test_executor_abort_releases_without_applying;
          Alcotest.test_case "commit needs locks" `Quick test_executor_commit_requires_own_locks;
          Alcotest.test_case "conflict votes NOK" `Quick test_executor_lock_conflict_votes_nok;
          Alcotest.test_case "single path" `Quick test_executor_single_path;
        ] );
      ( "block",
        [
          Alcotest.test_case "append/validate" `Quick test_chain_append_and_validate;
          Alcotest.test_case "link verification" `Quick test_chain_link_verification;
          Alcotest.test_case "append links like next" `Quick test_chain_append_links_like_next;
          Alcotest.test_case "height counts unsealed appends" `Quick test_chain_height_counts_unsealed;
          Alcotest.test_case "lazy seal catches forgery" `Quick test_chain_lazy_seal_catches_forgery;
          Alcotest.test_case "forged parent header" `Quick test_chain_rejects_forged_parent_header;
          Alcotest.test_case "tx inclusion proof" `Quick test_chain_tx_inclusion_proof;
        ] );
      ( "chaincode",
        [
          Alcotest.test_case "kvstore write/read" `Quick test_kvstore_write_read;
          Alcotest.test_case "kvstore 2PC cycle" `Quick test_kvstore_prepare_commit_cycle;
          Alcotest.test_case "unknown function" `Quick test_kvstore_unknown_function;
          Alcotest.test_case "smallbank setup" `Quick test_smallbank_setup_and_balance;
          Alcotest.test_case "sendPayment" `Quick test_smallbank_send_payment;
          Alcotest.test_case "overdraft refused" `Quick test_smallbank_overdraft_refused;
          Alcotest.test_case "amalgamate" `Quick test_smallbank_amalgamate;
          Alcotest.test_case "writeCheck/savings" `Quick test_smallbank_write_check_and_savings;
          Alcotest.test_case "preparePayment example" `Quick
            test_smallbank_prepare_payment_running_example;
        ] );
      ( "contract",
        [
          Alcotest.test_case "compile" `Quick test_contract_compile;
          Alcotest.test_case "arity/amount errors" `Quick test_contract_arity_and_amount_errors;
          Alcotest.test_case "define validates" `Quick test_contract_define_validates_params;
          Alcotest.test_case "analyze" `Quick test_contract_analyze;
          Alcotest.test_case "single-shard entry" `Quick test_contract_single_shard_entry;
          Alcotest.test_case "auto-sharded entries" `Quick test_contract_auto_sharded_entries;
          Alcotest.test_case "guarded withdraw" `Quick test_contract_guarded_withdraw;
        ] );
      ( "merge",
        [
          Alcotest.test_case "classify" `Quick test_merge_classify;
          Alcotest.test_case "apply delta" `Quick test_merge_apply_delta;
          Alcotest.test_case "fold order-free" `Quick test_merge_lane_fold_order_free;
          Alcotest.test_case "audit detects divergence" `Quick
            test_merge_audit_detects_divergence;
        ] );
      ( "utxo",
        [
          Alcotest.test_case "mint and spend" `Quick test_utxo_mint_and_spend;
          Alcotest.test_case "double spend" `Quick test_utxo_double_spend_rejected;
          Alcotest.test_case "inflation" `Quick test_utxo_rejects_inflation;
          Alcotest.test_case "duplicate inputs" `Quick test_utxo_rejects_duplicate_inputs;
          Alcotest.test_case "multi-input change" `Quick test_utxo_multi_input_change;
        ] );
      ("properties", qsuite);
    ]
