open Repro_util
open Repro_crypto
open Repro_sim
open Repro_consensus
open Repro_ledger
open Repro_shard
module Probe = Repro_obs.Probe
module Ev = Repro_obs.Event

type coordination_mode = With_reference | Client_driven | Flattened

type concurrency_control =
  | Two_phase_locking  (** the paper's 2PL: conflicting prepares vote NotOK *)
  | Wait_die
      (** Section 6.4's optimization opportunity: an older transaction
          whose prepare hits a lock parks and retries when the lock frees
          (younger ones still die, so no deadlocks) *)

type batching = { window : float; max_steps : int; pipeline : bool }

type config = {
  shards : int;
  committee_size : int;
  variant : Config.variant;
  topology : Topology.t;
  cpu_scale : float;
  mode : coordination_mode;
  concurrency : concurrency_control;
  seed : int64;
  tune : Config.t -> Config.t;
  client_fallback_timeout : float;
  batching : batching option;
  fast_lane : bool;
      (* DESIGN §18: route all-mergeable transactions down the lock-free
         delta lane instead of 2PC+2PL *)
}

let default_batching = { window = 0.02; max_steps = 128; pipeline = true }

let default_config ~shards ~committee_size =
  {
    shards;
    committee_size;
    variant = Config.ahl_plus;
    topology = Topology.lan ();
    cpu_scale = 1.0;
    mode = With_reference;
    concurrency = Two_phase_locking;
    seed = 1L;
    tune = Fun.id;
    client_fallback_timeout = 5.0;
    batching = Some default_batching;
    fast_lane = false;
  }

type tx_outcome = Committed | Aborted

type committee_ctx = {
  index : int; (* 0..shards-1, or [shards] for R *)
  base : int; (* global node id of member 0 *)
  pbft : Pbft.committee;
  pcfg : Config.t;
  nodes : Pbft.msg Node.t array;
  state : State.t;
  chain : Block.Chain.chain;
  cmetrics : Metrics.t;
  coordsm : Reference.t option;
      (* the Fig.-6 2PC chaincode: hosted by R in [With_reference] mode,
         by every shard committee in [Flattened] mode (the coordinator
         shard of a transaction runs its machine), by nobody when the
         client coordinates *)
  applied : (int * int, unit) Hashtbl.t;
      (* (txid, phase) pairs already executed — client retries after
         request loss make re-delivery possible, execution must be
         idempotent *)
  parked : (int, Tx.op list * Types.request * float) Hashtbl.t;
      (* wait-die: prepares waiting for a lock (with park time),
         retried on releases *)
  prepared : (int, bool) Hashtbl.t;
      (* the shard observer's record of each prepare's quorum outcome —
         the evidence R's fallback sweep reads instead of guessing from
         lock tuples (a prepare still in flight has no entry) *)
  mlane : Merge.lane;
      (* the shard's lock-free delta lane: fast-lane legs append here and
         the observer folds it into [state] at each block boundary *)
  mutable state_commit : Sha256.digest;
      (* rolling state commitment chained per block; recomputing the full
         Merkle root over the whole state each block would be O(state) *)
  snapshots : State_transfer.server;
      (* serves [state] to joiners: one package, verified once, per
         version of the state *)
}

(* Book-keeping for one in-flight cross-shard transaction. *)
type tx_record = {
  tx : Tx.t;
  participant_shards : int list;
  mutable decided : bool;
  mutable legs_left : int;
  legs_done : (int, unit) Hashtbl.t;
  mutable outcome : tx_outcome;
  mutable relaying : bool; (* false once a malicious client went silent *)
  lane_deltas : (string * Tx.delta) list option;
      (* [Some _] iff this transaction rides the merge fast lane; retries
         then re-send delta legs rather than commit/abort legs *)
  mutable prepare_started : float; (* -1 until the first prepare dispatch *)
  mutable decided_at : float; (* -1 until the decision is reached *)
  on_done : tx_outcome -> unit;
}

type decision_event = { at : float; txid : int; shard : int; commit : bool }

(* Per-destination accumulator of coordinator-bound steps: one consensus
   slot then carries the whole batch instead of one request per leg. *)
type batcher = {
  mutable steps : Coordination.op list; (* newest first *)
  mutable count : int;
  mutable bclient : int; (* client of the carrier request *)
  mutable armed : bool; (* a window-flush timer is pending *)
}

type t = {
  cfg : config;
  engine : Engine.t;
  network : Pbft.msg Network.t;
  registry : Coordination.registry;
  merge_reg : Merge.registry; (* chaincode-declared commutative ops *)
  mutable committees : committee_ctx array; (* shards, then optionally R last *)
  metrics : Metrics.t; (* transaction-level *)
  inflight : (int, tx_record) Hashtbl.t;
  client_votes : (int, (int, bool) Hashtbl.t) Hashtbl.t;
      (* per-tx vote collection when the client itself coordinates *)
  mutable next_req : int;
  rng : Rng.t;
  mutable leg_filter : (dst:int -> Coordination.op -> Network.verdict) option;
      (* adversarial hook over coordination legs (see set_leg_filter) *)
  mutable decisions : decision_event list; (* reverse chronological *)
  mutable probe : Probe.t;
  batchers : (int, batcher) Hashtbl.t; (* destination committee -> pending *)
  mutable next_batch : int;
  mutable batches_inflight : int; (* sent, not yet executed *)
  live_batches : (int, unit) Hashtbl.t;
  corrupt_snapshot : (int, unit) Hashtbl.t;
      (* one-shot per-committee flag: the next snapshot served for catch-up
         is tampered (models a Byzantine serving member; the joiner's
         verification must reject it) *)
  placement : (string, int) Hashtbl.t;
      (* key -> shard memo over Tx.shard_of_key (DESIGN §19): each key is
         hashed once per system instead of on every prepare, decision,
         retry and delta leg that touches it *)
}

let ref_index t = t.cfg.shards

let has_reference t = t.cfg.mode = With_reference

let engine t = t.engine

let shards t = t.cfg.shards

let committee_size t = t.cfg.committee_size

let shard_state t s = t.committees.(s).state

let shard_chain t s = t.committees.(s).chain

(* Placement through the per-system memo.  The answer is Tx.shard_of_key's
   exactly, so memoising changes no simulated result.  One shard needs no
   table: Tx.shard_of_key answers 0 without hashing. *)
let shard_of_key t key =
  let shards = t.cfg.shards in
  if shards = 1 then Tx.shard_of_key ~shards key
  else
    match Hashtbl.find_opt t.placement key with
    | Some shard -> shard
    | None ->
        let shard = Tx.shard_of_key ~shards key in
        Hashtbl.replace t.placement key shard;
        shard

let shards_touched t tx =
  List.sort_uniq Int.compare (List.map (fun op -> shard_of_key t (Tx.key_of_op op)) tx.Tx.ops)

let ops_for_shard t tx shard =
  List.filter (fun op -> shard_of_key t (Tx.key_of_op op) = shard) tx.Tx.ops

let reference_machine t = if has_reference t then t.committees.(ref_index t).coordsm else None

let coordination_machines t =
  Array.to_list t.committees |> List.filter_map (fun ctx -> ctx.coordsm)

(* The committee that runs a transaction's 2PC machine. *)
let coordinator_of t (rec_ : tx_record) =
  match t.cfg.mode with
  | With_reference -> ref_index t
  | Flattened ->
      (* SharPer-style: an involved shard coordinates; spread the role over
         participants by txid so no shard becomes the de-facto R. *)
      let ps = rec_.participant_shards in
      List.nth ps (rec_.tx.Tx.txid mod List.length ps)
  | Client_driven ->
      Sim_error.invalid "System.coordinator_of: no coordinator committee in client-driven mode"

let pipelining t = match t.cfg.batching with Some b -> b.pipeline | None -> false

(* ------------------------------------------------------------------ *)
(* Request plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let fresh_req t ~client ~op_tag =
  let req_id = t.next_req in
  t.next_req <- req_id + 1;
  Types.request ~req_id ~client ~submitted:(Engine.now t.engine) ~op_tag ()

(* Hand one coordination step (or a batch carrier) to a committee's entry
   replica, unconditionally — leg filtering happens in the callers. *)
let deliver_op t ~committee ~client op =
  let ctx = t.committees.(committee) in
  let op_tag = Coordination.register t.registry op in
  let req = fresh_req t ~client ~op_tag in
  (* Clients notice an unresponsive peer (dead TCP connection) and try the
     next one, so entry requests go to a live member. *)
  let n = Array.length ctx.nodes in
  let member =
    let start = req.Types.req_id mod n in
    let rec probe i =
      if i >= n then start
      else
        let m = (start + i) mod n in
        if Node.is_crashed ctx.nodes.(m) then probe (i + 1) else m
    in
    probe 0
  in
  (match op with
  | Coordination.Batch { steps; _ } ->
      (* The entry replica's enclave verifies every inner step's client
         signature and its peers accept the attested carrier, so the
         per-step verification cost is paid once — at a rotating member,
         off the replicated pre-prepare path (the amortization DESIGN §15
         justifies; without it each step would cost every replica
         [client_sig_verify]). *)
      Node.charge ctx.nodes.(member)
        (float_of_int (List.length steps)
        *. ctx.pcfg.Config.client_sig_verify *. t.cfg.cpu_scale)
  | _ -> ());
  let dst = ctx.base + member in
  let msg = Pbft.submit_via ctx.pbft ~member req in
  let region = Topology.region_of_node t.cfg.topology dst in
  Network.send_external t.network ~src_region:region ~dst ~channel:Pbft.request_channel
    ~bytes:(240 + Coordination.op_bytes op)
    msg

(* Submit a coordination step as a consensus request to a committee, via a
   deterministic entry replica (clients talk to one peer, AHL+ forwards).
   An installed leg filter can drop, delay, or duplicate the whole step —
   the adversarial knob the cross-shard checker drives. *)
let send_to_committee t ~committee ~client op =
  let deliver () = deliver_op t ~committee ~client op in
  match t.leg_filter with
  | None -> deliver ()
  | Some filter -> (
      match filter ~dst:committee op with
      | Network.Deliver -> deliver ()
      | Network.Drop -> ()
      | Network.Delay d -> Engine.schedule t.engine ~delay:d deliver
      | Network.Duplicate { copies; spacing } ->
          deliver ();
          for k = 1 to copies - 1 do
            Engine.schedule t.engine ~delay:(float_of_int k *. spacing) deliver
          done)

(* ------------------------------------------------------------------ *)
(* The step batcher (DESIGN §15)                                       *)
(* ------------------------------------------------------------------ *)

(* A batch the executing committee never sees (entry replica crashed,
   consensus stalled past the horizon) would pin its registry entries
   forever; release them after a generous grace period instead. *)
let batch_gc_period = 120.0

let send_batch t ~committee ~client steps =
  match steps with
  | [] -> ()
  | steps ->
      let id = t.next_batch in
      t.next_batch <- id + 1;
      Probe.observe t.probe "2pc.batch.size" (float_of_int (List.length steps));
      Hashtbl.replace t.live_batches id ();
      t.batches_inflight <- t.batches_inflight + 1;
      Probe.observe t.probe "2pc.batch.pipeline_depth" (float_of_int t.batches_inflight);
      deliver_op t ~committee ~client (Coordination.Batch { batch = id; steps });
      Engine.schedule t.engine ~delay:batch_gc_period (fun () ->
          if Hashtbl.mem t.live_batches id then begin
            Hashtbl.remove t.live_batches id;
            t.batches_inflight <- t.batches_inflight - 1;
            Coordination.release t.registry ~txid:(Coordination.batch_txid id)
          end)

(* Seal the pending steps into canonical order and ship them.  The leg
   filter is applied per *constituent* step — an adversary that drops Vote
   legs with probability p must see the same per-leg semantics whether the
   legs travel alone or batched — and the surviving steps are regrouped
   into sub-batches (delivered now / after each distinct delay / duplicated
   as singletons), each with its own carrier id. *)
let flush_batcher t ~committee b =
  match b.steps with
  | [] -> ()
  | rev_steps ->
      b.steps <- [];
      b.count <- 0;
      let client = b.bclient in
      (* [List.rev] restores enqueue order so the stable sort resolves
         batch_order ties (structurally identical duplicates) the same way
         for any flush size. *)
      let steps = List.sort Coordination.batch_order (List.rev rev_steps) in
      (match t.leg_filter with
      | None -> send_batch t ~committee ~client steps
      | Some filter ->
          let now_ = ref [] and delayed = ref [] in
          List.iter
            (fun s ->
              match filter ~dst:committee s with
              | Network.Deliver -> now_ := s :: !now_
              | Network.Drop -> Probe.incr t.probe "2pc.batch.step_dropped"
              | Network.Delay d -> delayed := (d, s) :: !delayed
              | Network.Duplicate { copies; spacing } ->
                  now_ := s :: !now_;
                  for k = 1 to copies - 1 do
                    Engine.schedule t.engine ~delay:(float_of_int k *. spacing) (fun () ->
                        send_batch t ~committee ~client [ s ])
                  done)
            steps;
          send_batch t ~committee ~client (List.rev !now_);
          let delayed =
            List.stable_sort (fun (d1, _) (d2, _) -> Float.compare d1 d2) (List.rev !delayed)
          in
          let rec groups = function
            | [] -> []
            | (d, s) :: rest ->
                let same, others = List.partition (fun (d2, _) -> Float.equal d d2) rest in
                (d, s :: List.map snd same) :: groups others
          in
          List.iter
            (fun (d, ss) ->
              Engine.schedule t.engine ~delay:d (fun () -> send_batch t ~committee ~client ss))
            (groups delayed))

(* Coordinator-bound steps (Begin/Vote) ride batches when batching is on;
   everything else keeps the one-request-per-step path. *)
let enqueue_step t ~committee ~client op =
  match t.cfg.batching with
  | None -> send_to_committee t ~committee ~client op
  | Some bcfg ->
      let b =
        match Hashtbl.find_opt t.batchers committee with
        | Some b -> b
        | None ->
            let b = { steps = []; count = 0; bclient = client; armed = false } in
            Hashtbl.replace t.batchers committee b;
            b
      in
      if b.count = 0 then b.bclient <- client;
      b.steps <- op :: b.steps;
      b.count <- b.count + 1;
      if b.count >= bcfg.max_steps then begin
        Probe.incr t.probe "2pc.batch.flush.full";
        flush_batcher t ~committee b
      end
      else if not b.armed then begin
        b.armed <- true;
        Engine.schedule t.engine ~delay:bcfg.window (fun () ->
            b.armed <- false;
            match b.steps with
            | [] -> ()
            | _ :: _ ->
                Probe.incr t.probe "2pc.batch.flush.window";
                flush_batcher t ~committee b)
      end

(* ------------------------------------------------------------------ *)
(* Coordination driver (the client relay + coordinator fallback)       *)
(* ------------------------------------------------------------------ *)

let finish_leg t txid shard =
  match Hashtbl.find_opt t.inflight txid with
  | None -> ()
  | Some rec_ when Hashtbl.mem rec_.legs_done shard -> ignore rec_
  | Some rec_ ->
      Hashtbl.replace rec_.legs_done shard ();
      rec_.legs_left <- rec_.legs_left - 1;
      if rec_.decided_at >= 0.0 then
        Probe.observe t.probe "2pc.decision_leg_s" (Engine.now t.engine -. rec_.decided_at);
      if rec_.legs_left <= 0 then begin
        Hashtbl.remove t.inflight txid;
        Coordination.release t.registry ~txid;
        (match rec_.outcome with
        | Committed ->
            Metrics.commit t.metrics ~count:1;
            Metrics.commit_latency t.metrics ~submitted:rec_.tx.Tx.submitted;
            Probe.incr t.probe "2pc.committed"
        | Aborted ->
            Metrics.abort t.metrics ~count:1;
            Probe.incr t.probe "2pc.aborted");
        Probe.observe t.probe "2pc.tx_total_s" (Engine.now t.engine -. rec_.tx.Tx.submitted);
        rec_.on_done rec_.outcome
      end

let dispatch_decision t txid ok =
  match Hashtbl.find_opt t.inflight txid with
  | None -> ()
  | Some rec_ ->
      if not rec_.decided then begin
        rec_.decided <- true;
        rec_.outcome <- (if ok then Committed else Aborted);
        rec_.decided_at <- Engine.now t.engine;
        if Probe.enabled t.probe then begin
          Probe.incr t.probe
            (if ok then "2pc.decided.commit" else "2pc.decided.abort");
          Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"2pc" ~node:"coord"
            ~args:[ ("txid", Ev.I txid); ("commit", Ev.S (string_of_bool ok)) ]
            "decision"
        end;
        rec_.legs_left <- List.length rec_.participant_shards;
        List.iter
          (fun shard ->
            let ops = ops_for_shard t rec_.tx shard in
            let op =
              if ok then Coordination.Commit_tx { txid; ops }
              else Coordination.Abort_tx { txid; ops }
            in
            send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client op)
          rec_.participant_shards
      end

let dispatch_prepares t txid =
  match Hashtbl.find_opt t.inflight txid with
  | None -> ()
  | Some rec_ ->
      if rec_.prepare_started < 0.0 then begin
        rec_.prepare_started <- Engine.now t.engine;
        Probe.incr t.probe "2pc.prepare_rounds";
        Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"2pc" ~node:"coord"
          "prepare_dispatch"
      end;
      List.iter
        (fun shard ->
          let ops = ops_for_shard t rec_.tx shard in
          send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client
            (Coordination.Prepare_tx { txid; ops }))
        rec_.participant_shards

(* Client-driven vote collection (OmniLedger mode). *)
let on_client_vote t txid shard ok =
  match Hashtbl.find_opt t.inflight txid with
  | None -> ()
  | Some rec_ when rec_.relaying ->
      let votes =
        match Hashtbl.find_opt t.client_votes txid with
        | Some v -> v
        | None ->
            let v = Hashtbl.create 4 in
            Hashtbl.replace t.client_votes txid v;
            v
      in
      Hashtbl.replace votes shard ok;
      let all_in = Hashtbl.length votes = List.length rec_.participant_shards in
      let any_nok = Det.fold ~compare:Int.compare (fun _ ok acc -> acc || not ok) votes false in
      if any_nok || all_in then begin
        Hashtbl.remove t.client_votes txid;
        dispatch_decision t txid (not any_nok)
      end
  | Some _ -> () (* malicious client: locks stay, nobody decides *)

(* ------------------------------------------------------------------ *)
(* Execution at committee observers                                    *)
(* ------------------------------------------------------------------ *)

(* Block-boundary merge fold (DESIGN §18): materialise the delta lane into
   canonical state before sealing the block.  The fold order is canonical
   (key, txid, seq) — a pure function of the delta set — so every replica
   folding this block chains the same root, and the lane's effect on the
   state commitment is independent of leg arrival order. *)
let fold_lane t ctx =
  let depth = Merge.depth ctx.mlane in
  if depth > 0 then begin
    let count, digest = Merge.fold_into ctx.mlane ctx.state in
    if Probe.enabled t.probe then begin
      Probe.incr t.probe "merge.folds";
      Probe.observe t.probe "merge.fold.depth" (float_of_int depth);
      let dur =
        float_of_int count *. Cost_model.default.Cost_model.tx_execute *. t.cfg.cpu_scale
      in
      Probe.span t.probe ~time:(Engine.now t.engine) ~dur ~cat:"merge"
        ~node:("s" ^ string_of_int ctx.index)
        ~args:[ ("entries", Ev.I count) ]
        "merge_fold"
    end;
    ctx.state_commit <-
      Sha256.digest_concat
        [ Sha256.to_raw ctx.state_commit; "merge-fold"; Sha256.to_raw digest ]
  end

let record_block t ctx batch =
  fold_lane t ctx;
  let txs = List.map (fun (r : Types.request) -> Printf.sprintf "req-%d" r.Types.req_id) batch in
  ctx.state_commit <-
    Sha256.digest_concat (Sha256.to_raw ctx.state_commit :: txs);
  Block.Chain.append ctx.chain ~txs ~state_root:ctx.state_commit ~timestamp:(Engine.now t.engine)

(* Deliver a shard's quorum answer for a prepare to whoever coordinates. *)
let emit_vote t ctx (req : Types.request) ~txid ~ok =
  match t.cfg.mode with
  | With_reference | Flattened -> (
      match Hashtbl.find_opt t.inflight txid with
      | Some rec_ when rec_.relaying ->
          enqueue_step t ~committee:(coordinator_of t rec_) ~client:req.Types.client
            (Coordination.Vote { txid; shard = ctx.index; ok })
      | Some _ | None ->
          (* Silent client: the coordinator's fallback sweep reads the
             chain instead. *)
          ())
  | Client_driven -> on_client_vote t txid ctx.index ok

(* A prepare's quorum outcome is evidence the shard observer keeps until
   the transaction's decision lands; R's fallback sweep reads it rather
   than inferring a vote from the lock table. *)
let record_prepare t ctx ~txid ~ok =
  ignore t;
  Hashtbl.replace ctx.prepared txid ok

(* Wait-die retry: lock releases wake parked prepares in txid order. *)
let retry_parked t ctx =
  let waiting = Det.bindings ~compare:Int.compare ctx.parked in
  List.iter
    (fun (txid, (ops, req, parked_at)) ->
      match Executor.try_prepare ctx.state ~txid ops with
      | Ok () ->
          Hashtbl.remove ctx.parked txid;
          Probe.incr t.probe "2pc.waitdie.retry_ok";
          Probe.observe t.probe "2pc.waitdie.wait_s" (Engine.now t.engine -. parked_at);
          record_prepare t ctx ~txid ~ok:true;
          emit_vote t ctx req ~txid ~ok:true
      | Error (Executor.Insufficient _) ->
          Hashtbl.remove ctx.parked txid;
          Probe.incr t.probe "2pc.vote_nok.insufficient";
          record_prepare t ctx ~txid ~ok:false;
          emit_vote t ctx req ~txid ~ok:false
      | Error (Executor.Lock_conflict _) -> ())
    waiting

let execute_on_shard t ctx (req : Types.request) =
  match Coordination.lookup t.registry req.Types.op_tag with
  | None -> ()
  | Some op -> (
      match op with
      (* Client retries can re-deliver any step; state-changing ones are
         applied at most once per (txid, step). *)
      | Coordination.Single { txid; _ } when Hashtbl.mem ctx.applied (txid, 0) -> ()
      | Coordination.Commit_tx { txid; _ } when Hashtbl.mem ctx.applied (txid, 1) -> ()
      | Coordination.Abort_tx { txid; _ } when Hashtbl.mem ctx.applied (txid, 2) -> ()
      | Coordination.Prepare_tx { txid; _ }
        when Hashtbl.mem ctx.applied (txid, 1) || Hashtbl.mem ctx.applied (txid, 2) ->
          (* A retried prepare arriving after the decision must not
             re-acquire locks the commit/abort already released. *)
          ()
      | Coordination.Merge_tx { txid; _ } when Hashtbl.mem ctx.applied (txid, 3) ->
          () (* duplicated/retried delta legs append at most once *)
      | Coordination.Merge_tx { txid; deltas } ->
          Hashtbl.replace ctx.applied (txid, 3) ();
          List.iter
            (fun (key, delta) -> Merge.append ctx.mlane ctx.state ~txid ~key delta)
            deltas;
          if Probe.enabled t.probe then begin
            Probe.add t.probe "merge.deltas" (List.length deltas);
            Probe.observe t.probe "merge.lane.depth" (float_of_int (Merge.depth ctx.mlane))
          end;
          t.decisions <-
            { at = Engine.now t.engine; txid; shard = ctx.index; commit = true } :: t.decisions;
          finish_leg t txid ctx.index
      | Coordination.Single { txid; ops } -> (
          Hashtbl.replace ctx.applied (txid, 0) ();
          match Executor.execute_single ctx.state ~txid ops with
          | Ok () -> (
              match Hashtbl.find_opt t.inflight txid with
              | Some rec_ ->
                  Hashtbl.remove t.inflight txid;
                  Coordination.release t.registry ~txid;
                  Metrics.commit t.metrics ~count:1;
                  Metrics.commit_latency t.metrics ~submitted:rec_.tx.Tx.submitted;
                  rec_.on_done Committed
              | None -> ())
          | Error _ -> (
              match Hashtbl.find_opt t.inflight txid with
              | Some rec_ ->
                  Hashtbl.remove t.inflight txid;
                  Coordination.release t.registry ~txid;
                  Metrics.abort t.metrics ~count:1;
                  rec_.on_done Aborted
              | None -> ()))
      | Coordination.Prepare_tx { txid; ops } -> (
          (* The client reads the vote off the shard's chain and relays. *)
          match Executor.try_prepare ctx.state ~txid ops with
          | Ok () ->
              record_prepare t ctx ~txid ~ok:true;
              emit_vote t ctx req ~txid ~ok:true
          | Error (Executor.Insufficient _) ->
              Probe.incr t.probe "2pc.vote_nok.insufficient";
              record_prepare t ctx ~txid ~ok:false;
              emit_vote t ctx req ~txid ~ok:false
          | Error (Executor.Lock_conflict { holder; _ }) -> (
              if Probe.enabled t.probe then
                Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"2pc"
                  ~node:("s" ^ string_of_int ctx.index)
                  ~args:[ ("txid", Ev.I txid); ("holder", Ev.I holder) ]
                  "lock_conflict";
              match t.cfg.concurrency with
              | Two_phase_locking ->
                  Probe.incr t.probe "2pc.vote_nok.lock_conflict";
                  record_prepare t ctx ~txid ~ok:false;
                  emit_vote t ctx req ~txid ~ok:false
              | Wait_die ->
                  if txid < holder && not (Hashtbl.mem ctx.parked txid) then begin
                    (* Older waits; a park timeout bounds the wait.  No
                       evidence is recorded while parked: the prepare is
                       still undecided. *)
                    Probe.incr t.probe "2pc.waitdie.parked";
                    Hashtbl.replace ctx.parked txid (ops, req, Engine.now t.engine);
                    Engine.schedule t.engine ~delay:4.0 (fun () ->
                        match Hashtbl.find_opt ctx.parked txid with
                        | Some (_, req, parked_at) ->
                            Hashtbl.remove ctx.parked txid;
                            Probe.incr t.probe "2pc.waitdie.park_timeout";
                            Probe.observe t.probe "2pc.waitdie.wait_s"
                              (Engine.now t.engine -. parked_at);
                            record_prepare t ctx ~txid ~ok:false;
                            emit_vote t ctx req ~txid ~ok:false
                        | None -> ())
                  end
                  else begin
                    Probe.incr t.probe "2pc.waitdie.died";
                    record_prepare t ctx ~txid ~ok:false;
                    emit_vote t ctx req ~txid ~ok:false
                  end))
      | Coordination.Commit_tx { txid; ops } ->
          Hashtbl.replace ctx.applied (txid, 1) ();
          Executor.commit ctx.state ~txid ops;
          Hashtbl.remove ctx.parked txid;
          Hashtbl.remove ctx.prepared txid;
          t.decisions <-
            { at = Engine.now t.engine; txid; shard = ctx.index; commit = true } :: t.decisions;
          finish_leg t txid ctx.index;
          if t.cfg.concurrency = Wait_die then retry_parked t ctx
      | Coordination.Abort_tx { txid; ops } ->
          Hashtbl.replace ctx.applied (txid, 2) ();
          Executor.abort ctx.state ~txid ops;
          Hashtbl.remove ctx.parked txid;
          Hashtbl.remove ctx.prepared txid;
          t.decisions <-
            { at = Engine.now t.engine; txid; shard = ctx.index; commit = false } :: t.decisions;
          finish_leg t txid ctx.index;
          if t.cfg.concurrency = Wait_die then retry_parked t ctx
      | Coordination.Begin_tx _ | Coordination.Vote _ | Coordination.Batch _ ->
          () (* coordinator-only ops *))

let merge_deltas_for t deltas shard =
  List.filter (fun (key, _) -> shard_of_key t key = shard) deltas

let observe_vote_leg t txid =
  if Probe.enabled t.probe then
    match Hashtbl.find_opt t.inflight txid with
    | Some rec_ when rec_.prepare_started >= 0.0 && not rec_.decided ->
        Probe.observe t.probe "2pc.vote_leg_s" (Engine.now t.engine -. rec_.prepare_started)
    | Some _ | None -> ()

let rec react_begin t txid decision =
  match decision with
  | Reference.Now_started -> (
      match Hashtbl.find_opt t.inflight txid with
      | None -> ()
      | Some rec_ ->
          if rec_.relaying then begin
            (* Under the pipelined path the submitting client already
               dispatched prepares alongside BeginTx; the coordinator only
               dispatches here on the legacy (unpipelined) path. *)
            if not (pipelining t) then dispatch_prepares t txid
          end
          else
            (* Fallback: the coordinator's nodes dispatch PrepareTx
               themselves if the client relay stays silent, then sweep for
               the shards' prepare evidence until the tx is done. *)
            Engine.schedule t.engine ~delay:t.cfg.client_fallback_timeout (fun () ->
                (match coord_state t rec_ ~txid with
                | Some (Reference.Preparing _) | Some Reference.Started ->
                    dispatch_prepares t txid
                | Some Reference.Committed | Some Reference.Aborted | None -> ());
                Engine.schedule t.engine ~delay:t.cfg.client_fallback_timeout (fun () ->
                    fallback_collect t txid)))
  | Reference.Now_committed ->
      (* Buffered early votes completed the machine inside BeginTx. *)
      dispatch_decision t txid true
  | Reference.Now_aborted -> dispatch_decision t txid false
  | Reference.No_change -> ()

and react_vote t txid decision =
  match decision with
  | Reference.Now_committed -> dispatch_decision t txid true
  | Reference.Now_aborted -> dispatch_decision t txid false
  | Reference.No_change | Reference.Now_started -> ()

and coord_state t rec_ ~txid =
  match t.committees.(coordinator_of t rec_).coordsm with
  | None -> None
  | Some sm -> Reference.state_of sm ~txid

(* Run coordinator chaincode steps at the hosting committee's observer.
   One [Batch] carrier applies a whole consensus slot's worth of legs via
   [Reference.step_batch], reacting to each step's decision exactly as the
   per-request path would. *)
and execute_coord t ctx (req : Types.request) =
  match ctx.coordsm with
  | None -> ()
  | Some refsm -> (
      match Coordination.lookup t.registry req.Types.op_tag with
      | None -> ()
      | Some op -> (
          match op with
          | Coordination.Begin_tx { txid; participants } ->
              react_begin t txid (Reference.step refsm ~txid (Reference.Begin { participants }))
          | Coordination.Vote { txid; shard; ok } ->
              observe_vote_leg t txid;
              let event =
                if ok then Reference.Prepare_ok { shard } else Reference.Prepare_not_ok { shard }
              in
              react_vote t txid (Reference.step refsm ~txid event)
          | Coordination.Batch { batch; steps } ->
              Probe.observe t.probe "2pc.slot_steps" (float_of_int (List.length steps));
              let events =
                List.filter_map
                  (fun s ->
                    match s with
                    | Coordination.Begin_tx { txid; participants } ->
                        Some (s, (txid, Reference.Begin { participants }))
                    | Coordination.Vote { txid; shard; ok } ->
                        Some
                          ( s,
                            ( txid,
                              if ok then Reference.Prepare_ok { shard }
                              else Reference.Prepare_not_ok { shard } ) )
                    | Coordination.Single _ | Coordination.Prepare_tx _
                    | Coordination.Commit_tx _ | Coordination.Abort_tx _
                    | Coordination.Merge_tx _ | Coordination.Batch _ ->
                        None)
                  steps
              in
              List.iter
                (fun (s, (txid, _)) ->
                  match s with Coordination.Vote _ -> observe_vote_leg t txid | _ -> ())
                events;
              let decisions = Reference.step_batch refsm (List.map snd events) in
              List.iter2
                (fun (s, _) (txid, d) ->
                  match s with
                  | Coordination.Begin_tx _ -> react_begin t txid d
                  | _ -> react_vote t txid d)
                events decisions;
              if Hashtbl.mem t.live_batches batch then begin
                Hashtbl.remove t.live_batches batch;
                t.batches_inflight <- t.batches_inflight - 1
              end;
              Coordination.release t.registry ~txid:(Coordination.batch_txid batch)
          | Coordination.Single _ | Coordination.Prepare_tx _ | Coordination.Commit_tx _
          | Coordination.Abort_tx _ | Coordination.Merge_tx _ ->
              ()))

(* When the client never relays votes, the coordinator's members sweep the
   participants: each shard observer keeps the quorum outcome of every
   prepare it ran ([ctx.prepared]), and the sweep relays exactly that
   evidence.  A shard with no evidence yet (prepare lost or still in
   flight) gets its prepare re-dispatched instead of a guessed vote —
   inferring NotOK from the lock table here is what used to abort
   transactions that would have committed, and a single-shot sweep left
   locks stuck when a leg was lost.  The sweep re-arms every
   [client_fallback_timeout] until the transaction is done, re-driving
   undelivered decision legs too (the client will not). *)
and fallback_collect t txid =
  match Hashtbl.find_opt t.inflight txid with
  | None -> ()
  | Some rec_ ->
      Probe.incr t.probe "2pc.fallback_sweeps";
      Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"2pc" ~node:"R"
        ~args:[ ("txid", Ev.I txid) ]
        "fallback_sweep";
      (if rec_.decided then
         List.iter
           (fun shard ->
             if not (Hashtbl.mem rec_.legs_done shard) then begin
               let ops = ops_for_shard t rec_.tx shard in
               let op =
                 if rec_.outcome = Committed then Coordination.Commit_tx { txid; ops }
                 else Coordination.Abort_tx { txid; ops }
               in
               send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client op
             end)
           rec_.participant_shards
       else
         List.iter
           (fun shard ->
             match Hashtbl.find_opt t.committees.(shard).prepared txid with
             | Some ok ->
                 enqueue_step t ~committee:(coordinator_of t rec_) ~client:rec_.tx.Tx.client
                   (Coordination.Vote { txid; shard; ok })
             | None ->
                 let ops = ops_for_shard t rec_.tx shard in
                 send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client
                   (Coordination.Prepare_tx { txid; ops }))
           rec_.participant_shards);
      Engine.schedule t.engine ~delay:t.cfg.client_fallback_timeout (fun () ->
          fallback_collect t txid)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create cfg =
  let engine = Engine.create ~seed:cfg.seed in
  let keystore = Keys.create_keystore (Engine.rng engine) in
  let network = Network.create engine ~topology:cfg.topology in
  let registry = Coordination.create_registry () in
  let merge_reg = Merge.create_registry () in
  Smallbank_cc.declare_mergeable merge_reg;
  Kvstore_cc.declare_mergeable merge_reg;
  let metrics = Metrics.create engine in
  let committee_count = cfg.shards + (if cfg.mode = With_reference then 1 else 0) in
  let t =
    {
      cfg;
      engine;
      network;
      registry;
      merge_reg;
      committees = [||];
      metrics;
      inflight = Hashtbl.create 1024;
      client_votes = Hashtbl.create 64;
      next_req = 0;
      rng = Rng.split_named (Engine.rng engine) "system";
      leg_filter = None;
      decisions = [];
      probe = Probe.none;
      batchers = Hashtbl.create 8;
      next_batch = 0;
      batches_inflight = 0;
      live_batches = Hashtbl.create 64;
      corrupt_snapshot = Hashtbl.create 4;
      placement = Hashtbl.create 1024;
    }
  in
  let make_committee index =
    let n = cfg.committee_size in
    let base = index * n in
    let pbft_cfg = cfg.tune (Config.default cfg.variant ~n) in
    let cmetrics = Metrics.create engine in
    let ctx_ref = ref None in
    let nodes =
      Array.init n (fun member ->
          Node.create engine ~id:(base + member) ~inbox_mode:(Config.inbox_mode pbft_cfg)
            ~handler:(fun _node msg ->
              match !ctx_ref with
              | Some ctx -> Pbft.handle ctx.pbft ~member msg
              | None -> ()))
    in
    Array.iter (Network.register network) nodes;
    let send ~src ~dst ~channel ~bytes m =
      Network.send network ~src:nodes.(src) ~dst:(base + dst) ~channel ~bytes m
    in
    let charge ~member cost = Node.charge nodes.(member) (cost *. cfg.cpu_scale) in
    let state = State.create () in
    let chain = Block.Chain.create ~state_root:(State.root state) in
    let execute ~member ~seq:_ batch =
      match !ctx_ref with
      | None -> ()
      | Some ctx ->
          if member = Pbft.observer ctx.pbft && batch <> [] then begin
            List.iter
              (fun req ->
                match Coordination.lookup t.registry req.Types.op_tag with
                | Some (Coordination.Begin_tx _ | Coordination.Vote _ | Coordination.Batch _)
                  ->
                    execute_coord t ctx req
                | Some _ | None -> execute_on_shard t ctx req)
              batch;
            record_block t ctx batch
          end
    in
    let pbft =
      Pbft.create ~engine ~keystore ~costs:Cost_model.default ~config:pbft_cfg
        ~faults:(Faults.honest n) ~metrics:cmetrics ~enclave_base_id:base ~send ~charge ~execute
    in
    let coordsm =
      match cfg.mode with
      | With_reference -> if index = cfg.shards then Some (Reference.create ()) else None
      | Flattened -> Some (Reference.create ())
      | Client_driven -> None
    in
    let ctx =
      {
        index;
        base;
        pbft;
        pcfg = pbft_cfg;
        nodes;
        state;
        chain;
        cmetrics;
        coordsm;
        applied = Hashtbl.create 1024;
        parked = Hashtbl.create 64;
        prepared = Hashtbl.create 64;
        mlane = Merge.lane ();
        state_commit = State.root state;
        snapshots = State_transfer.server state;
      }
    in
    ctx_ref := Some ctx;
    Pbft.set_alive pbft (fun member -> not (Node.is_crashed nodes.(member)));
    (* Section 5.3 state transfer for checkpoint catch-up: a member whose
       missed slots were pruned from its peers' replay rings pulls a
       snapshot of the shard state, pays transfer + Merkle re-verification
       time, and rejects packages that fail verification.  The observer is
       the one member this can never apply to — its materialized state is
       the committee's only copy, so it must replay, never install. *)
    Pbft.set_snapshot_hook pbft (fun ~member ~seq:_ ~digest:_ ~k ->
        if member = Pbft.observer pbft then k false
        else begin
          let pkg = State_transfer.serve ctx.snapshots in
          let expected = State_transfer.claimed_root pkg in
          let pkg =
            if Hashtbl.mem t.corrupt_snapshot index then begin
              Hashtbl.remove t.corrupt_snapshot index;
              State_transfer.tamper pkg ~key:"acct_0" ~value:"doctored"
            end
            else pkg
          in
          let transfer = State_transfer.transfer_time t.cfg.topology pkg in
          let verify =
            float_of_int (State_transfer.size_bytes pkg / 64)
            *. Cost_model.default.Cost_model.sha256 *. t.cfg.cpu_scale
          in
          if Probe.enabled t.probe then begin
            Probe.observe t.probe "ckpt.transfer_bytes"
              (float_of_int (State_transfer.size_bytes pkg));
            Probe.observe t.probe "ckpt.transfer_s" (transfer +. verify)
          end;
          Engine.schedule t.engine ~delay:(transfer +. verify) (fun () ->
              match State_transfer.verify pkg ~expected_root:expected with
              | Ok _ -> k true
              | Error _ -> k false)
        end);
    Pbft.start pbft;
    ctx
  in
  t.committees <- Array.init committee_count make_committee;
  t

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

(* An honest client retries until its transaction finishes: requests can
   be lost at crashed or transitioning replicas, and every coordination
   step is idempotent, so re-driving from the top is safe. *)
let client_retry_period = 25.0

let rec arm_retry t txid =
  Engine.schedule t.engine ~delay:client_retry_period (fun () ->
      match Hashtbl.find_opt t.inflight txid with
      | None -> ()
      | Some rec_ when not rec_.relaying -> ignore rec_ (* malicious: stays silent *)
      | Some rec_ ->
          (match rec_.participant_shards with
          | [ shard ] when not rec_.decided ->
              send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client
                (Coordination.Single { txid; ops = rec_.tx.Tx.ops })
          | _ when rec_.decided ->
              (* Re-send the decision to the legs that have not landed. *)
              List.iter
                (fun shard ->
                  if not (Hashtbl.mem rec_.legs_done shard) then begin
                    let op =
                      match rec_.lane_deltas with
                      | Some deltas ->
                          (* Fast lane: re-drive the delta leg itself; the
                             shard's applied table makes it append-once. *)
                          Coordination.Merge_tx
                            { txid; deltas = merge_deltas_for t deltas shard }
                      | None ->
                          let ops = ops_for_shard t rec_.tx shard in
                          if rec_.outcome = Committed then Coordination.Commit_tx { txid; ops }
                          else Coordination.Abort_tx { txid; ops }
                    in
                    send_to_committee t ~committee:shard ~client:rec_.tx.Tx.client op
                  end)
                rec_.participant_shards
          | _ -> (
              match t.cfg.mode with
              | With_reference | Flattened ->
                  enqueue_step t ~committee:(coordinator_of t rec_) ~client:rec_.tx.Tx.client
                    (Coordination.Begin_tx { txid; participants = rec_.participant_shards });
                  dispatch_prepares t txid
              | Client_driven -> dispatch_prepares t txid));
          arm_retry t txid)

(* A transaction is admitted to the fast lane iff every op classifies as a
   commutative delta AND no touched key is under an in-flight exclusive
   lock — deltas folded around a 2PC transaction's lock window would
   otherwise interleave with its validated read (the downgrade guard of
   DESIGN §18). *)
let merge_lock_conflict t deltas =
  List.exists
    (fun (key, _) ->
      let shard = shard_of_key t key in
      let locks = Locks.create t.committees.(shard).state in
      Option.is_some (Locks.holder locks key))
    deltas

let submit_merge t ~on_done ~malicious_client tx deltas =
  let txid = tx.Tx.txid in
  let touched =
    List.sort_uniq Int.compare
      (List.map (fun (key, _) -> shard_of_key t key) deltas)
  in
  let rec_ =
    {
      tx;
      participant_shards = touched;
      (* The lane has no abort path: the transaction is decided the moment
         it is classified; only its delta legs remain. *)
      decided = true;
      legs_left = List.length touched;
      legs_done = Hashtbl.create 4;
      outcome = Committed;
      relaying = not malicious_client;
      lane_deltas = Some deltas;
      prepare_started = -1.0;
      decided_at = Engine.now t.engine;
      on_done;
    }
  in
  Hashtbl.replace t.inflight txid rec_;
  Probe.incr t.probe "merge.lane_hits";
  List.iter
    (fun shard ->
      send_to_committee t ~committee:shard ~client:tx.Tx.client
        (Coordination.Merge_tx { txid; deltas = merge_deltas_for t deltas shard }))
    touched;
  arm_retry t txid

let submit_locked t ?(on_done = fun _ -> ()) ?(malicious_client = false) tx =
  let txid = tx.Tx.txid in
  let touched = shards_touched t tx in
  match touched with
  | [] -> on_done Aborted
  | [ shard ] ->
      Hashtbl.replace t.inflight txid
        {
          tx;
          participant_shards = touched;
          decided = false;
          legs_left = 1;
          legs_done = Hashtbl.create 4;
          outcome = Aborted;
          relaying = true;
          lane_deltas = None;
          prepare_started = -1.0;
          decided_at = -1.0;
          on_done;
        };
      send_to_committee t ~committee:shard ~client:tx.Tx.client
        (Coordination.Single { txid; ops = tx.Tx.ops });
      arm_retry t txid
  | _ :: _ ->
      let rec_ =
        {
          tx;
          participant_shards = touched;
          decided = false;
          legs_left = List.length touched;
          legs_done = Hashtbl.create 4;
          outcome = Aborted;
          relaying = not malicious_client;
          lane_deltas = None;
          prepare_started = -1.0;
          decided_at = -1.0;
          on_done;
        }
      in
      Hashtbl.replace t.inflight txid rec_;
      (match t.cfg.mode with
      | With_reference | Flattened ->
          enqueue_step t ~committee:(coordinator_of t rec_) ~client:tx.Tx.client
            (Coordination.Begin_tx { txid; participants = touched });
          (* Pipelining (DESIGN §15): don't round-trip BeginTx through the
             coordinator's consensus before preparing — dispatch prepares
             immediately and let the coordinator's machine buffer any vote
             that outruns its Begin. *)
          if pipelining t && rec_.relaying then dispatch_prepares t txid
      | Client_driven -> dispatch_prepares t txid);
      arm_retry t txid

let submit t ?(on_done = fun _ -> ()) ?(malicious_client = false) tx =
  if not t.cfg.fast_lane then submit_locked t ~on_done ~malicious_client tx
  else
    match Merge.classify_tx t.merge_reg tx with
    | None -> submit_locked t ~on_done ~malicious_client tx
    | Some deltas ->
        if merge_lock_conflict t deltas then begin
          (* Downgrade: mergeable, but a touched key is exclusively locked
             by an in-flight 2PC transaction — take the full path. *)
          Probe.incr t.probe "merge.downgrades";
          submit_locked t ~on_done ~malicious_client tx
        end
        else submit_merge t ~on_done ~malicious_client tx deltas

let run t ~until = Engine.run t.engine ~until

let committed t = Metrics.committed t.metrics

let aborted t = Metrics.aborted t.metrics

let abort_rate t = Metrics.abort_rate t.metrics

let throughput t ~warmup = Metrics.throughput t.metrics ~warmup

let latency_stats t = Metrics.latency_stats t.metrics

let throughput_series t = Metrics.throughput_series t.metrics

let view_changes t =
  Array.fold_left (fun acc ctx -> acc + Metrics.counter ctx.cmetrics "view_changes") 0 t.committees

let reference_busy_fraction t =
  if not (has_reference t) then 0.0
  else begin
    let ctx = t.committees.(ref_index t) in
    let total = Array.fold_left (fun acc node -> acc +. Node.busy_fraction node) 0.0 ctx.nodes in
    total /. float_of_int (Array.length ctx.nodes)
  end

let stuck_locks t =
  let count = ref 0 in
  for s = 0 to t.cfg.shards - 1 do
    List.iter
      (fun k -> if String.length k > 2 && String.sub k 0 2 = "L_" then incr count)
      (State.keys t.committees.(s).state)
  done;
  !count

(* ------------------------------------------------------------------ *)
(* Fault hooks and observability (the cross-shard checker's surface)   *)
(* ------------------------------------------------------------------ *)

let set_leg_filter t f = t.leg_filter <- f

let set_probe t p =
  t.probe <- p;
  Network.set_probe t.network p;
  Array.iter (fun ctx -> Pbft.set_probe ctx.pbft p) t.committees

let crash_member t ~committee ~member = Node.crash t.committees.(committee).nodes.(member)

let recover_member t ~committee ~member =
  let ctx = t.committees.(committee) in
  if Node.is_crashed ctx.nodes.(member) then begin
    Node.recover ctx.nodes.(member);
    (* The revived replica immediately asks its peers for the slots it
       missed — the fix for the crashobs divergence the checker found. *)
    Pbft.notify_recovered ctx.pbft ~member
  end

let reset_member t ~committee ~member = Pbft.reset_member t.committees.(committee).pbft ~member

let corrupt_next_snapshot t ~shard = Hashtbl.replace t.corrupt_snapshot shard ()

let committee_checkpoints t =
  Array.to_list t.committees
  |> List.concat_map (fun ctx ->
         List.init (Array.length ctx.nodes) (fun m ->
             match Pbft.checkpoint_cert ctx.pbft ~member:m with
             | Some (seq, root, _) -> [ (ctx.index, m, seq, root) ]
             | None -> [])
         |> List.concat)

let observer_lag t =
  Array.to_list t.committees
  |> List.map (fun ctx ->
         let hi = ref 0 in
         for m = 0 to Array.length ctx.nodes - 1 do
           hi := Int.max !hi (Pbft.last_executed ctx.pbft ~member:m)
         done;
         let obs = Pbft.last_executed ctx.pbft ~member:(Pbft.observer ctx.pbft) in
         (ctx.index, !hi - obs))

(* ---- merge fast-lane surface (oracles + tests) ---- *)

(* Flush every shard's remaining pending deltas (the run may stop between
   block boundaries), then re-fold each lane's full history against its
   recorded bases and diff with materialised state.  Empty iff every
   replica's state is exactly the canonical fold of its delta log — the
   merge-convergence oracle. *)
let merge_audit t =
  List.concat
    (List.init t.cfg.shards (fun s ->
         let ctx = t.committees.(s) in
         fold_lane t ctx;
         List.map (fun m -> (s, m)) (Merge.audit ctx.mlane ctx.state)))

let merge_folds t =
  Array.fold_left (fun acc ctx -> acc + Merge.folds ctx.mlane) 0 t.committees

let merge_lane_log t ~shard = Merge.log_length t.committees.(shard).mlane

let merge_roots t =
  List.init t.cfg.shards (fun s -> (s, Sha256.to_hex (Merge.root t.committees.(s).mlane)))

let decision_trace t = List.rev t.decisions

let prepare_evidence t ~shard ~txid = Hashtbl.find_opt t.committees.(shard).prepared txid

let registry_size t = Coordination.length t.registry

let schedule_reshard t ~at ~strategy ~fetch_time =
  let plan_waves () =
    (* Half of each committee's members are reassigned (two-shard swap of
       Figure 12); what matters for throughput is how many are offline at
       once. *)
    let per_committee = Array.to_list (Array.map (fun ctx -> ctx.nodes) t.committees) in
    (* Transition the tail half of each committee: the observer (member 0,
       where state is materialized) stays, mirroring the paper's setup
       where measurement nodes persist. *)
    let movers_per_committee =
      List.map
        (fun nodes ->
          let n = Array.length nodes in
          List.init (n / 2) (fun i -> nodes.(n - 1 - i)))
        per_committee
    in
    match strategy with
    | `Swap_all ->
        (* The naive approach stops *every* node, reassigns, and restarts:
           the whole system is down for the fetch period. *)
        [ List.concat_map Array.to_list (Array.to_list (Array.map (fun ctx -> ctx.nodes) t.committees)) ]
    | `Batched b ->
        (* Wave w takes movers [w·b .. w·b+b-1] from every committee, so no
           committee ever has more than b members offline. *)
        let max_len = List.fold_left (fun acc l -> Stdlib.max acc (List.length l)) 0 movers_per_committee in
        let waves = (max_len + b - 1) / b in
        List.init waves (fun w ->
            List.concat_map
              (fun movers ->
                List.filteri (fun i _ -> i >= w * b && i < (w + 1) * b) movers)
              movers_per_committee)
  in
  Engine.schedule_at t.engine ~time:at (fun () ->
      let waves = plan_waves () in
      let rec run_wave w = function
        | [] ->
            Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"epoch" ~node:"epoch"
              "reshard_done"
        | wave :: rest ->
            Probe.incr t.probe "epoch.reshard_waves";
            if Probe.enabled t.probe then
              Probe.span t.probe ~time:(Engine.now t.engine) ~dur:fetch_time ~cat:"epoch"
                ~node:"epoch"
                ~args:[ ("wave", Ev.I w); ("movers", Ev.I (List.length wave)) ]
                "reshard_wave";
            List.iter Node.crash wave;
            Engine.schedule t.engine ~delay:fetch_time (fun () ->
                List.iter Node.recover wave;
                run_wave (w + 1) rest)
      in
      run_wave 0 waves)

let advance_epoch t ~at ~seed ~epoch ~strategy =
  let committees = Array.length t.committees in
  let nodes_total = Array.fold_left (fun acc ctx -> acc + Array.length ctx.nodes) 0 t.committees in
  let from_ = Assignment.derive ~seed ~epoch:(epoch - 1) ~nodes:nodes_total ~committees in
  let to_ = Assignment.derive ~seed ~epoch ~nodes:nodes_total ~committees in
  let node_of_global id =
    (* Global ids are dense across committees in creation order. *)
    let rec find c =
      if c >= Array.length t.committees then
        Sim_error.invalid "System.advance_epoch: node id %d outside all committees" id
      else
        let ctx = t.committees.(c) in
        if id >= ctx.base && id < ctx.base + Array.length ctx.nodes then ctx.nodes.(id - ctx.base)
        else find (c + 1)
    in
    find 0
  in
  (* A transitioning node is down for as long as fetching + verifying its
     destination shard's state takes (plus re-attestation of the new
     committee, amortized). *)
  let fetch_time step =
    let dst = Stdlib.min step.Assignment.to_committee (t.cfg.shards - 1) in
    let pkg = State_transfer.serve t.committees.(dst).snapshots in
    let transfer = State_transfer.transfer_time t.cfg.topology pkg in
    (* Verification recomputes the Merkle root: charged at Table-2 SHA
       throughput over the package. *)
    let verify =
      float_of_int (State_transfer.size_bytes pkg / 64)
      *. Cost_model.default.Cost_model.sha256 *. t.cfg.cpu_scale
    in
    if Probe.enabled t.probe then begin
      Probe.observe t.probe "ckpt.transfer_bytes" (float_of_int (State_transfer.size_bytes pkg));
      Probe.observe t.probe "ckpt.transfer_s" (transfer +. verify)
    end;
    Float.max 1.0 (transfer +. verify +. Cost_model.default.Cost_model.remote_attestation)
  in
  let batch =
    match strategy with
    | `Swap_all -> nodes_total (* one wave containing everyone who moves *)
    | `Batched_log -> Sizing.swap_batch_size ~n:t.cfg.committee_size
  in
  let waves = Assignment.transition_plan ~from_ ~to_ ~batch in
  Engine.schedule_at t.engine ~time:at (fun () ->
      Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"epoch" ~node:"epoch"
        ~args:[ ("epoch", Ev.I epoch); ("waves", Ev.I (List.length waves)) ]
        "epoch_transition_start";
      let rec run_wave w = function
        | [] ->
            Probe.instant t.probe ~time:(Engine.now t.engine) ~cat:"epoch" ~node:"epoch"
              ~args:[ ("epoch", Ev.I epoch) ]
              "epoch_transition_done"
        | wave :: rest ->
            let max_fetch = ref 1.0 in
            let moved = ref 0 in
            List.iter
              (fun step ->
                let nd = node_of_global step.Assignment.node in
                let cidx = Node.id nd / t.cfg.committee_size in
                let member = Node.id nd mod t.cfg.committee_size in
                let ctx = t.committees.(cidx) in
                (* The observer replica anchors measurement; it is treated
                   as pinned infrastructure and never transitions. *)
                if member <> 0 || strategy = `Swap_all then begin
                  Node.crash nd;
                  Stdlib.incr moved;
                  let ft = fetch_time step in
                  if ft > !max_fetch then max_fetch := ft;
                  if member <> 0 then begin
                    (* A literal committee swap: the slot's previous
                       occupant departs with its consensus state; after the
                       fetch window a newcomer rejoins holding only the
                       snapshot it transferred and verified, anchored at the
                       committee's latest certified checkpoint, and replays
                       the tail from its peers. *)
                    Pbft.reset_member ctx.pbft ~member;
                    Engine.schedule t.engine ~delay:ft (fun () ->
                        Node.recover nd;
                        (match
                           Pbft.checkpoint_cert ctx.pbft ~member:(Pbft.observer ctx.pbft)
                         with
                        | Some (seq, root, voters) ->
                            Pbft.install_checkpoint ctx.pbft ~member ~seq ~digest:root ~voters
                        | None -> ());
                        Pbft.notify_recovered ctx.pbft ~member)
                  end
                  else
                    (* Swap-all restarts even the pinned observer node; it
                       keeps its state and catches up by replay. *)
                    Engine.schedule t.engine ~delay:ft (fun () ->
                        Node.recover nd;
                        Pbft.notify_recovered ctx.pbft ~member)
                end)
              wave;
            Probe.incr t.probe "epoch.waves";
            Probe.add t.probe "epoch.movers" !moved;
            if Probe.enabled t.probe then
              Probe.span t.probe ~time:(Engine.now t.engine) ~dur:!max_fetch ~cat:"epoch"
                ~node:"epoch"
                ~args:[ ("epoch", Ev.I epoch); ("wave", Ev.I w); ("movers", Ev.I !moved) ]
                "epoch_wave";
            Engine.schedule t.engine ~delay:!max_fetch (fun () -> run_wave (w + 1) rest)
      in
      run_wave 0 waves)
