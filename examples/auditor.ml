(* A light-client auditor: verify that a payment is on a shard's chain
   without replaying the ledger.

   The consortium's auditors (running example, §3.1) hold only block
   headers.  Given a transaction and a Merkle inclusion proof from any
   committee member, they check (1) the proof against the block's tx root
   and (2) the block's place in the hash chain — a Byzantine member cannot
   fabricate either.

   Run with:  dune exec examples/auditor.exe *)

open Repro_crypto
open Repro_ledger

let () =
  (* A shard's chain as its committee maintains it. *)
  let state = State.create () in
  Executor.set_balance state "alice" 100;
  let chain = Block.Chain.create ~state_root:(State.root state) in

  (* Three blocks of real (serialized, SHA-256-addressable) transactions. *)
  let mk_tx txid ops = Tx.make ~txid ops in
  let blocks_of_txs =
    [
      [ mk_tx 1 [ Tx.Debit { account = "alice"; amount = 30 }; Tx.Credit { account = "bob"; amount = 30 } ] ];
      [
        mk_tx 2 [ Tx.Put { key = "audit_note"; value = "q3-settlement" } ];
        mk_tx 3 [ Tx.Debit { account = "bob"; amount = 5 }; Tx.Credit { account = "carol"; amount = 5 } ];
      ];
      [ mk_tx 4 [ Tx.Credit { account = "alice"; amount = 1 } ] ];
    ]
  in
  let appended =
    List.map
      (fun txs ->
        List.iter (fun tx -> ignore (Executor.execute_single state ~txid:tx.Tx.txid tx.Tx.ops)) txs;
        let body = List.map Tx.serialize txs in
        Block.Chain.append chain ~txs:body ~state_root:(State.root state) ~timestamp:0.0;
        (Block.Chain.tip chain, txs))
      blocks_of_txs
  in
  Printf.printf "chain height: %d, full validation: %b\n" (Block.Chain.height chain)
    (Block.Chain.validate chain);

  (* The auditor wants evidence that tx 3 (bob -> carol) settled. *)
  let block, txs = List.nth appended 1 in
  let target = List.nth txs 1 in
  let proof = Block.tx_proof block 1 in
  let presented = Tx.serialize target in
  Printf.printf "auditing tx %d (digest %s...)\n" target.Tx.txid
    (String.sub (Sha256.to_hex (Tx.digest target)) 0 16);
  Printf.printf "  inclusion proof verifies: %b\n" (Block.verify_tx block ~tx:presented proof);

  (* A forged variant of the same transaction fails the same check. *)
  let forged =
    Tx.serialize
      (mk_tx 3 [ Tx.Debit { account = "bob"; amount = 5 }; Tx.Credit { account = "mallory"; amount = 5 } ])
  in
  Printf.printf "  forged variant verifies:  %b\n" (Block.verify_tx block ~tx:forged proof);

  (* And a tampered block body breaks the chain links the auditor holds. *)
  let tampered = { block with Block.txs = forged :: List.tl block.Block.txs } in
  let parent, _ = List.nth appended 0 in
  Printf.printf "  tampered block keeps its chain link: %b\n"
    (Block.verify_link ~parent ~child:tampered);
  print_endline "auditor done: inclusion + integrity checks behave as expected"
