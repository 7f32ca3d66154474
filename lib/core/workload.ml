open Repro_util
open Repro_ledger

type kind =
  | Kvstore of { updates_per_tx : int }
  | Smallbank
  | Hot_increments of { increment_fraction : float }

type t = {
  kind : kind;
  keyspace : int;
  zipf : Zipf.t;
  rng : Rng.t;
  mutable next_txid : int;
  mutable generated : int;
  mutable cross_shard : int;
}

let create kind ~keyspace ~theta ~rng =
  {
    kind;
    keyspace;
    zipf = Zipf.create ~n:keyspace ~theta;
    rng = Rng.split_named rng "workload";
    next_txid = 0;
    generated = 0;
    cross_shard = 0;
  }

let account i = "acc" ^ string_of_int i

let setup t system ~initial_balance =
  match t.kind with
  | Kvstore _ -> ()
  | Smallbank | Hot_increments _ ->
      for i = 0 to t.keyspace - 1 do
        let acc = account i in
        List.iter
          (fun key ->
            let shard = System.shard_of_key system key in
            Executor.set_balance (System.shard_state system shard) key initial_balance)
          [ Smallbank_cc.checking_key acc; Smallbank_cc.savings_key acc ]
      done

let distinct_keys t count =
  let rec draw acc =
    if List.length acc >= count then acc
    else begin
      let k = Zipf.sample t.zipf t.rng in
      if List.mem k acc then
        (* Fall back to uniform so high skew cannot loop forever. *)
        let k' = Rng.int t.rng t.keyspace in
        draw (if List.mem k' acc then acc else k' :: acc)
      else draw (k :: acc)
    end
  in
  draw []

let next_tx t system ~client =
  let txid = t.next_txid in
  t.next_txid <- txid + 1;
  let ops =
    match t.kind with
    | Kvstore { updates_per_tx } ->
        let keys = distinct_keys t updates_per_tx in
        List.map (fun k -> Tx.Put { key = "key" ^ string_of_int k; value = "v" ^ string_of_int txid }) keys
    | Smallbank -> (
        match distinct_keys t 2 with
        | [ a; b ] ->
            let amount = 1 + Rng.int t.rng 10 in
            Smallbank_cc.send_payment_ops ~src:(account a) ~dst:(account b) ~amount
        | ks -> Repro_sim.Sim_error.invalid "Workload.next_tx: expected 2 keys, got %d" (List.length ks))
    | Hot_increments { increment_fraction } -> (
        (* The CRDV-style mix: with probability [increment_fraction] a
           credit-only increment of two hot counters — all-commutative, so
           the fast lane takes it when enabled; on the locked path it is an
           ordinary cross-shard 2PC transaction whose lock acquisitions
           collide on the Zipf head.  The rest are sendPayments, whose
           debits are conditional and always keep the locked path.  The
           counters are deliberately disjoint from the account keys: lane
           keys must never be written outside the fold, or the
           merge-convergence audit has nothing to certify. *)
        match distinct_keys t 2 with
        | [ a; b ] ->
            if Rng.float t.rng 1.0 < increment_fraction then
              let amount = 1 + Rng.int t.rng 5 in
              [
                Tx.Credit { account = Kvstore_cc.counter_key (account a); amount };
                Tx.Credit { account = Kvstore_cc.counter_key (account b); amount };
              ]
            else
              let amount = 1 + Rng.int t.rng 10 in
              Smallbank_cc.send_payment_ops ~src:(account a) ~dst:(account b) ~amount
        | ks -> Repro_sim.Sim_error.invalid "Workload.next_tx: expected 2 keys, got %d" (List.length ks))
  in
  let tx =
    Tx.make ~txid ~client ~submitted:(Repro_sim.Engine.now (System.engine system)) ops
  in
  t.generated <- t.generated + 1;
  if List.length (System.shards_touched system tx) > 1 then
    t.cross_shard <- t.cross_shard + 1;
  tx

let start_closed_loop t system ~clients ~outstanding =
  let engine = System.engine system in
  let rec submit_next client =
    let tx = next_tx t system ~client in
    System.submit system ~on_done:(fun _ -> submit_next client) tx
  in
  for client = 0 to clients - 1 do
    for _ = 1 to outstanding do
      Repro_sim.Engine.schedule engine ~delay:(Rng.float t.rng 1.0) (fun () -> submit_next client)
    done
  done

let cross_shard_fraction_seen t =
  if t.generated = 0 then 0.0 else float_of_int t.cross_shard /. float_of_int t.generated
