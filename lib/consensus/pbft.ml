open Repro_crypto
open Repro_sim
open Repro_sgx
open Types
module Probe = Repro_obs.Probe
module Ev = Repro_obs.Event
module Det = Repro_util.Det
module Int_tbl = Det.Int_tbl

type msg =
  | Request of { req : request; relayed : bool }
  | Forward of request
  | Pre_prepare of { view : int; seq : int; batch : request list; digest : int }
  | Prepare of { view : int; seq : int; digest : int; sender : int }
  | Commit of { view : int; seq : int; digest : int; sender : int }
  | Checkpoint of { seq : int; digest : int; sender : int }
  | Fetch of { since : int; sender : int }
  | Fetch_resp of {
      sender : int;
      view : int;
      ckpt : (int * int * int list) option;
      blocks : (int * int * int * request list) list;
    }
  | View_change of {
      target : int;
      sender : int;
      last_stable : int;
      prepared : (int * int * int * request list) list;
    }
  | New_view of {
      view : int;
      sender : int;
      reproposals : (int * int * request list) list;
    }
  | Relay_vote of {
      phase : phase;
      view : int;
      seq : int;
      digest : int;
      sender : int;
      vote : Keys.signature;
    }
  | Quorum_cert of {
      phase : phase;
      view : int;
      seq : int;
      digest : int;
      proof : Aggregator.quorum_proof;
    }

type replica = {
  index : int;
  enclave : Enclave.t option;
  a2m : A2m.t option;
  mutable view : int;
  mutable active : bool;
  mutable vc_target : int;
  mutable vc_deadline : float;
  mutable last_exec : int;
  mutable last_exec_time : float;
  mutable last_stable : int;
  mutable next_seq : int;
  pending : request Queue.t;
  mutable oldest_pending_since : float;
  queued : unit Int_tbl.t; (* req ids in pending or proposed by me *)
  known : request Int_tbl.t; (* unexecuted requests this replica knows *)
  executed : unit Int_tbl.t;
  preprep : (int, int * int * request list) Hashtbl.t; (* seq -> view, digest, batch *)
  prepares : Quorum.t;
  commits : Quorum.t;
  prepared : (int, int) Hashtbl.t; (* seq -> digest *)
  committed : (int, int * int * request list) Hashtbl.t; (* seq -> view, digest, batch *)
  checkpoints : Quorum.t;
  mutable exec_root : int;
      (* chained digest of every batch executed so far: equal across honest
         replicas at equal last_exec, so it doubles as the checkpoint root *)
  roots : (int, int) Hashtbl.t; (* checkpoint seq -> my exec_root there *)
  ckpt_certs : (int, int * int list) Hashtbl.t;
      (* checkpoint seq -> (certified root, quorum of signers) *)
  history : (int, int * int * request list) Hashtbl.t;
      (* executed seq -> (view, digest, batch), a watermark_window-deep ring
         kept past stabilization so recovering peers can replay, not skip *)
  mutable fetching : bool; (* one outstanding catch-up request at a time *)
  mutable gap_timer_armed : bool; (* a commit-above-a-hole check is pending *)
  vc_votes : Quorum.t; (* keyed: view=target, seq=0, digest=0 *)
  vc_prepared : (int, (int, int * int * request list) Hashtbl.t) Hashtbl.t;
      (* target -> seq -> (view, digest, batch), keeping highest view *)
  relay_pool : (int * int * int * int, Keys.signature list ref) Hashtbl.t;
  relay_done : (int * int * int * int, unit) Hashtbl.t;
  mutable earliest_known : float;
  mutable batch_timer_armed : bool;
  mutable drip_next : float; (* byz slow-drip leader: earliest next emission *)
}

type leader_attack =
  | Leader_stall
      (** win the leader slot (emit a credible New_view), then withhold every
          pre-prepare: honest replicas must depose the primary by timeout *)
  | Leader_serve_only of int list
      (** as leader, serve pre-prepares and commit votes only to the listed
          peers; everyone else starves and must rely on relay or catch-up *)
  | Leader_drip of float
      (** as leader, emit at most one batch every given interval — pick it
          just under the watchdog period to probe the detection boundary *)

type byz_strategy = {
  vote_noise : bool;  (** spam garbage prepare votes on every pre-prepare *)
  naive_equivocation : bool;
      (** per-half conflicting digests on overheard pre-prepares (fabricated
          batches, so honest replicas can never commit them) *)
  split_brain : bool;
      (** as view-0 leader, propose two real conflicting batches and drive
          each committee half to commit its own — the Figure 8/16 attack *)
  silent_toward : int list;  (** peers this replica never talks to *)
  stale_view_replay : bool;
      (** stash overheard prepares and replay them after a new view *)
  leader_attack : leader_attack option;
      (** byzantine replicas campaign for (and win) leader slots, then
          attack them — the Fig. 16 right-panel adversary *)
}

type committee = {
  engine : Engine.t;
  keystore : Keys.keystore;
  costs : Cost_model.t;
  cfg : Config.t;
  faults : Faults.t;
  metrics : Metrics.t;
  send_cb : src:int -> dst:int -> channel:Inbox.channel -> bytes:int -> msg -> unit;
  charge_cb : member:int -> float -> unit;
  execute_cb : member:int -> seq:int -> request list -> unit;
  mutable replicas : replica array;
  mutable observer : int;
  rng : Repro_util.Rng.t;
  mutable alive : int -> bool;
      (* embedding hook: timers of nodes that are offline (crashed or
         transitioning between shards) must not fire *)
  mutable byz : byz_strategy;
  equiv_plans : (int * int, int * request list * int * request list) Hashtbl.t;
      (* (view, seq) -> digest_a, batch_a, digest_b, batch_b: the colluding
         replicas' shared script for a split-brain sequence number *)
  mutable stale_log : msg list;
  mutable commit_hook :
    member:int -> view:int -> seq:int -> digest:int -> batch:request list -> unit;
  mutable snapshot_fetch : member:int -> seq:int -> digest:int -> k:(bool -> unit) -> unit;
      (* embedding hook modelling Section 5.3 state transfer: fetch and
         verify a snapshot certified at [seq]; [k true] on verified install *)
  mutable probe : Probe.t;
}

let default_byz_strategy =
  {
    vote_noise = true;
    naive_equivocation = true;
    split_brain = false;
    silent_toward = [];
    stale_view_replay = false;
    leader_attack = None;
  }

let request_channel = Inbox.Request

let consensus_channel = Inbox.Consensus

let phase_index = function Prepare_phase -> 1 | Commit_phase -> 2

(* A2M log ids: one log per (phase, view), so a replica cannot attest two
   different digests for the same slot within a view, while new views can
   legitimately re-propose a sequence number. *)
let a2m_log ~phase_idx ~view = (view * 4) + phase_idx

let vote_tag ~phase ~view ~seq ~digest =
  Det.fnv_init |> Det.fnv_string "rvote:" |> Det.fnv_int (phase_index phase)
  |> Det.fnv_string ":" |> Det.fnv_int view |> Det.fnv_string ":" |> Det.fnv_int seq
  |> Det.fnv_string ":" |> Det.fnv_int digest |> Det.fnv_finish

let bytes_of_msg (cfg : Config.t) = function
  | Request { req; _ } | Forward req -> cfg.request_overhead_bytes + req.size
  | Pre_prepare { batch; _ } -> cfg.consensus_msg_bytes + batch_bytes batch
  | View_change { prepared; _ } ->
      List.fold_left
        (fun acc (_, _, _, batch) -> acc + batch_bytes batch)
        cfg.consensus_msg_bytes prepared
  | New_view { reproposals; _ } ->
      List.fold_left
        (fun acc (_, _, batch) -> acc + batch_bytes batch)
        cfg.consensus_msg_bytes reproposals
  | Fetch_resp { ckpt; blocks; _ } ->
      let cert_bytes = match ckpt with None -> 0 | Some (_, _, voters) -> 64 * List.length voters in
      List.fold_left
        (fun acc (_, _, _, batch) -> acc + batch_bytes batch)
        (cfg.consensus_msg_bytes + cert_bytes)
        blocks
  | Prepare _ | Commit _ | Checkpoint _ | Fetch _ | Relay_vote _ | Quorum_cert _ ->
      cfg.consensus_msg_bytes

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let now c = Engine.now c.engine

let n_of c = c.cfg.Config.n

let f_of c = Config.f_of c.cfg

let quorum c = Config.quorum_size c.cfg

let leader_of_view_int c v = ((v mod n_of c) + n_of c) mod n_of c

let is_leader c r = r.active && leader_of_view_int c r.view = r.index

let is_byz c r = Faults.is_byzantine c.faults r.index

let observer c = c.observer

let at_observer c r f = if r.index = c.observer then f ()

let rname r = "r" ^ string_of_int r.index

(* Trace emitters are guarded on [Probe.enabled] at every call site so an
   uninstrumented run neither builds the args list nor takes the call. *)
let probe_instant c r ~cat ?args name =
  Probe.instant c.probe ~time:(Engine.now c.engine) ~cat ~node:(rname r) ?args name

let charge_consensus c r cost =
  c.charge_cb ~member:r.index cost;
  at_observer c r (fun () -> Metrics.add_to c.metrics "consensus_cost" cost)

let charge_exec c r cost =
  c.charge_cb ~member:r.index cost;
  at_observer c r (fun () -> Metrics.add_to c.metrics "execution_cost" cost)

let send c r ~dst ~channel m =
  (* Tiny per-copy serialization cost so O(N) broadcast fan-out is not
     free at the sender. *)
  charge_consensus c r c.cfg.Config.msg_parse_cost;
  c.send_cb ~src:r.index ~dst ~channel ~bytes:(bytes_of_msg c.cfg m) m

let broadcast c r ~channel m =
  for dst = 0 to n_of c - 1 do
    if dst <> r.index then send c r ~dst ~channel m
  done

(* Charge the cost of authenticating an outgoing protocol statement: an
   A2M append (which embeds the TEE signature) for attested variants, a
   plain ECDSA signature otherwise.  Returns false if the attested log
   refused the append (equivocation or recovery). *)
let authenticate c r ~phase_idx ~view ~slot ~digest =
  match r.a2m with
  | Some a2m -> (
      match A2m.append a2m ~log:(a2m_log ~phase_idx ~view) ~slot ~digest_tag:digest with
      | Some _ -> true
      | None ->
          (* The attested log refused the append: an equivocation (or a
             post-recovery replay) was blocked right here. *)
          if Probe.enabled c.probe then begin
            Probe.incr c.probe "pbft.equivocation_blocked";
            probe_instant c r ~cat:"pbft"
              ~args:[ ("view", Ev.I view); ("slot", Ev.I slot); ("phase", Ev.I phase_idx) ]
              "a2m_refused"
          end;
          false)
  | None ->
      charge_consensus c r c.costs.Cost_model.ecdsa_sign;
      true

let verify_in c r = charge_consensus c r (c.cfg.Config.msg_parse_cost +. c.costs.Cost_model.ecdsa_verify)

let parse_in c r cost = charge_consensus c r cost

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let make_replica c ~enclave_base_id index =
  let enclave =
    if c.cfg.Config.variant.Config.attested || c.cfg.Config.variant.Config.relay then
      Some
        (Enclave.create ~keystore:c.keystore ~id:(enclave_base_id + index)
           ~measurement:("pbft-" ^ c.cfg.Config.variant.Config.name) ~rng:(Engine.rng c.engine)
           ~costs:c.costs
           ~charge:(fun cost -> c.charge_cb ~member:index cost)
           ~now:(fun () -> Engine.now c.engine))
    else None
  in
  let a2m =
    if c.cfg.Config.variant.Config.attested then
      Some (A2m.create (Option.get enclave) ~watermark_window:c.cfg.Config.watermark_window)
    else None
  in
  {
    index;
    enclave;
    a2m;
    view = 0;
    active = true;
    vc_target = 0;
    vc_deadline = infinity;
    last_exec = 0;
    last_exec_time = 0.0;
    last_stable = 0;
    next_seq = 1;
    pending = Queue.create ();
    oldest_pending_since = infinity;
    queued = Int_tbl.create 256;
    known = Int_tbl.create 256;
    executed = Int_tbl.create 1024;
    preprep = Hashtbl.create 128;
    prepares = Quorum.create ~n:c.cfg.Config.n;
    commits = Quorum.create ~n:c.cfg.Config.n;
    prepared = Hashtbl.create 128;
    committed = Hashtbl.create 128;
    checkpoints = Quorum.create ~n:c.cfg.Config.n;
    exec_root = 0;
    roots = Hashtbl.create 32;
    ckpt_certs = Hashtbl.create 32;
    history = Hashtbl.create 256;
    fetching = false;
    gap_timer_armed = false;
    vc_votes = Quorum.create ~n:c.cfg.Config.n;
    vc_prepared = Hashtbl.create 8;
    relay_pool = Hashtbl.create 64;
    relay_done = Hashtbl.create 64;
    earliest_known = infinity;
    batch_timer_armed = false;
    drip_next = 0.0;
  }

let create ~engine ~keystore ~costs ~config ~faults ~metrics ~enclave_base_id ~send ~charge
    ~execute =
  if Faults.size faults <> config.Config.n then
    Sim_error.invalid "Pbft.create: fault roster size must equal n";
  let obs =
    let rec first i =
      if i >= config.Config.n then 0
      else
        match Faults.behavior faults i with
        | Faults.Honest -> i
        | Faults.Crashed | Faults.Byzantine -> first (i + 1)
    in
    first 0
  in
  let c =
    {
      engine;
      keystore;
      costs;
      cfg = config;
      faults;
      metrics;
      send_cb = send;
      charge_cb = charge;
      execute_cb = execute;
      replicas = [||];
      observer = obs;
      rng = Repro_util.Rng.split_named (Engine.rng engine) "pbft";
      alive = (fun _ -> true);
      byz = default_byz_strategy;
      equiv_plans = Hashtbl.create 16;
      stale_log = [];
      commit_hook = (fun ~member:_ ~view:_ ~seq:_ ~digest:_ ~batch:_ -> ());
      snapshot_fetch = (fun ~member:_ ~seq:_ ~digest:_ ~k -> k true);
      probe = Probe.none;
    }
  in
  c.replicas <- Array.init config.Config.n (make_replica c ~enclave_base_id);
  c

(* ------------------------------------------------------------------ *)
(* Request intake and leader batching                                  *)
(* ------------------------------------------------------------------ *)

let add_known c r req =
  if (not (Int_tbl.mem r.executed req.req_id)) && not (Int_tbl.mem r.known req.req_id) then begin
    if Int_tbl.length r.known = 0 then r.earliest_known <- now c;
    Int_tbl.replace r.known req.req_id req
  end

let add_pending c r req =
  if (not (Int_tbl.mem r.executed req.req_id)) && not (Int_tbl.mem r.queued req.req_id) then begin
    if Queue.is_empty r.pending then r.oldest_pending_since <- now c;
    Queue.add req r.pending;
    Int_tbl.replace r.queued req.req_id ()
  end

let relay_pool_key ~phase ~view ~seq ~digest = (phase_index phase, view, seq, digest)

let rec try_propose c r =
  if is_leader c r && not (is_byz c r) then begin
    let cfg = c.cfg in
    let outstanding = r.next_seq - 1 - r.last_exec in
    let window_open =
      outstanding < cfg.Config.pipeline_window
      && r.next_seq < r.last_stable + cfg.Config.watermark_window
    in
    let batch_ready =
      Queue.length r.pending >= cfg.Config.batch_max
      || ((not (Queue.is_empty r.pending))
         && now c -. r.oldest_pending_since >= cfg.Config.batch_delay)
    in
    if window_open && batch_ready then begin
      let batch = ref [] in
      let count = Int.min cfg.Config.batch_max (Queue.length r.pending) in
      for _ = 1 to count do
        batch := Queue.take r.pending :: !batch
      done;
      let batch = List.rev !batch in
      r.oldest_pending_since <- now c;
      let digest = digest_of_batch batch in
      let seq = r.next_seq in
      (* The leader validates client signatures before proposing. *)
      charge_consensus c r
        (float_of_int (List.length batch) *. c.cfg.Config.client_sig_verify);
      if authenticate c r ~phase_idx:0 ~view:r.view ~slot:seq ~digest then begin
        r.next_seq <- seq + 1;
        Hashtbl.replace r.preprep seq (r.view, digest, batch);
        List.iter (add_known c r) batch;
        if Probe.enabled c.probe then begin
          Probe.incr c.probe "pbft.pre_prepares";
          probe_instant c r ~cat:"pbft"
            ~args:[ ("seq", Ev.I seq); ("view", Ev.I r.view); ("batch", Ev.I (List.length batch)) ]
            "pre_prepare"
        end;
        broadcast c r ~channel:consensus_channel (Pre_prepare { view = r.view; seq; batch; digest });
        (* The pre-prepare stands for the leader's prepare vote. *)
        ignore (Quorum.vote r.prepares ~view:r.view ~seq ~digest ~member:r.index);
        if cfg.Config.variant.Config.relay then leader_self_vote c r ~phase:Prepare_phase ~seq ~digest
      end;
      try_propose c r
    end
    else if window_open && not (Queue.is_empty r.pending) then
      (* Waiting for the batch to fill or age; a timer re-checks.  When the
         window is closed instead, execution progress re-triggers us. *)
      arm_batch_timer c r
  end

and arm_batch_timer c r =
  if not r.batch_timer_armed then begin
    r.batch_timer_armed <- true;
    let fire_in =
      Float.max 1e-4 (r.oldest_pending_since +. c.cfg.Config.batch_delay -. now c)
    in
    Engine.schedule c.engine ~delay:fire_in (fun () ->
        r.batch_timer_armed <- false;
        if c.alive r.index then try_propose c r)
  end

(* AHLR: the leader contributes its own signed vote to the pool and
   aggregates once the pool holds a quorum. *)
and leader_self_vote c r ~phase ~seq ~digest =
  let enclave = Option.get r.enclave in
  charge_consensus c r c.costs.Cost_model.ecdsa_sign;
  let vote = Enclave.sign_free enclave ~msg_tag:(vote_tag ~phase ~view:r.view ~seq ~digest) in
  relay_collect c r ~phase ~view:r.view ~seq ~digest ~vote

and relay_collect c r ~phase ~view ~seq ~digest ~vote =
  let key = relay_pool_key ~phase ~view ~seq ~digest in
  if not (Hashtbl.mem r.relay_done key) then begin
    let pool =
      match Hashtbl.find_opt r.relay_pool key with
      | Some p -> p
      | None ->
          let p = ref [] in
          Hashtbl.replace r.relay_pool key p;
          p
    in
    (* Dedup by signer. *)
    if not (List.exists (fun (v : Keys.signature) -> v.Keys.signer = vote.Keys.signer) !pool)
    then pool := vote :: !pool;
    if List.length !pool >= quorum c then begin
      let enclave = Option.get r.enclave in
      (* Occasional heavy-tailed aggregation (EPC paging on real SGX): the
         larger the quorum, the longer the stall — this is what makes the
         AHLR leader miss relay deadlines at scale (Section 7.1). *)
      if Repro_util.Rng.float c.rng 1.0 < c.cfg.Config.relay_tail_prob then
        charge_consensus c r
          (Cost_model.ahlr_aggregate c.costs ~f:(f_of c)
          *. (c.cfg.Config.relay_tail_factor -. 1.0));
      match
        Aggregator.aggregate enclave ~f:(f_of c) ~stmt_tag:(vote_tag ~phase ~view ~seq ~digest)
          ~votes:!pool
      with
      | None -> ()
      | Some proof ->
          Hashtbl.replace r.relay_done key ();
          Hashtbl.remove r.relay_pool key;
          broadcast c r ~channel:consensus_channel (Quorum_cert { phase; view; seq; digest; proof });
          apply_quorum_cert c r ~phase ~view ~seq ~digest
    end
  end

(* A quorum certificate (or a full vote quorum) has been established for
   (phase, view, seq, digest) at this replica. *)
and apply_quorum_cert c r ~phase ~view ~seq ~digest =
  match phase with
  | Prepare_phase -> mark_prepared c r ~view ~seq ~digest
  | Commit_phase -> mark_committed c r ~seq ~digest

and mark_prepared c r ~view ~seq ~digest =
  if (not (Hashtbl.mem r.prepared seq)) && view = r.view then begin
    match Hashtbl.find_opt r.preprep seq with
    | Some (v, d, _) when v = view && d = digest ->
        Hashtbl.replace r.prepared seq digest;
        if Probe.enabled c.probe && r.index = c.observer then begin
          Probe.incr c.probe "pbft.prepared";
          probe_instant c r ~cat:"pbft"
            ~args:[ ("seq", Ev.I seq); ("view", Ev.I view) ]
            "prepared"
        end;
        if c.cfg.Config.variant.Config.relay then begin
          if is_leader c r then leader_self_vote c r ~phase:Commit_phase ~seq ~digest
          else begin
            let enclave = Option.get r.enclave in
            charge_consensus c r c.costs.Cost_model.ecdsa_sign;
            let vote =
              Enclave.sign_free enclave ~msg_tag:(vote_tag ~phase:Commit_phase ~view ~seq ~digest)
            in
            send c r ~dst:(leader_of_view_int c r.view) ~channel:consensus_channel
              (Relay_vote { phase = Commit_phase; view; seq; digest; sender = r.index; vote })
          end
        end
        else if authenticate c r ~phase_idx:2 ~view ~slot:seq ~digest then begin
          broadcast c r ~channel:consensus_channel (Commit { view; seq; digest; sender = r.index });
          let n_votes = Quorum.vote r.commits ~view ~seq ~digest ~member:r.index in
          if n_votes >= quorum c then mark_committed c r ~seq ~digest
        end
    | Some _ | None -> ()
  end

and mark_committed c r ~seq ~digest =
  if not (Hashtbl.mem r.committed seq) then begin
    match Hashtbl.find_opt r.preprep seq with
    | Some (v, d, batch) when d = digest ->
        Hashtbl.replace r.committed seq (v, digest, batch);
        if Probe.enabled c.probe && r.index = c.observer then begin
          Probe.incr c.probe "pbft.committed";
          probe_instant c r ~cat:"pbft" ~args:[ ("seq", Ev.I seq) ] "committed"
        end;
        try_execute c r;
        (* Committed above a hole: peers decided slots I never saw (lost
           while crashed or to inbox drops).  Ordinary pipelining usually
           fills the hole within a timeout; if not, fetch the missing
           slots instead of stalling execution forever. *)
        if seq > r.last_exec && not r.gap_timer_armed then begin
          r.gap_timer_armed <- true;
          ignore
            (Engine.timer c.engine ~delay:c.cfg.Config.progress_timeout (fun () ->
                 r.gap_timer_armed <- false;
                 if
                   c.alive r.index
                   && (not (Faults.is_crashed c.faults r.index))
                   && (not r.fetching) && gapped c r
                 then request_catch_up c r))
        end
    | Some _ | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Execution, checkpoints, watermarks                                  *)
(* ------------------------------------------------------------------ *)

and try_execute c r =
  match Hashtbl.find_opt r.committed (r.last_exec + 1) with
  | None -> ()
  | Some (view, digest, batch) ->
      let seq = r.last_exec + 1 in
      let fresh = List.filter (fun q -> not (Int_tbl.mem r.executed q.req_id)) batch in
      charge_exec c r (float_of_int (List.length fresh) *. c.costs.Cost_model.tx_execute);
      List.iter
        (fun q ->
          Int_tbl.replace r.executed q.req_id ();
          Int_tbl.remove r.known q.req_id;
          Int_tbl.remove r.queued q.req_id)
        batch;
      c.commit_hook ~member:r.index ~view ~seq ~digest ~batch;
      c.execute_cb ~member:r.index ~seq fresh;
      at_observer c r (fun () ->
          Metrics.incr c.metrics "blocks";
          Metrics.commit c.metrics ~count:(List.length fresh);
          List.iter (fun q -> Metrics.commit_latency c.metrics ~submitted:q.submitted) fresh);
      if Probe.enabled c.probe && r.index = c.observer then begin
        Probe.incr c.probe "pbft.blocks";
        Probe.add c.probe "pbft.txs_executed" (List.length fresh);
        (* The gap since the previous execution at the observer: the
           per-block consensus interval, rendered as a span in Perfetto. *)
        Probe.span c.probe ~time:r.last_exec_time
          ~dur:(now c -. r.last_exec_time)
          ~cat:"pbft" ~node:(rname r)
          ~args:[ ("seq", Ev.I seq); ("txs", Ev.I (List.length fresh)) ]
          "block_interval";
        Probe.observe c.probe "pbft.block_interval_s" (now c -. r.last_exec_time)
      end;
      r.last_exec <- seq;
      r.last_exec_time <- now c;
      r.earliest_known <- now c;
      (* Fold the executed batch into the replica-local state root: honest
         replicas execute identical batches in identical order, so equal
         [last_exec] implies equal [exec_root] — certifying it certifies the
         state (DESIGN §16).  Keep the slot in the replay ring. *)
      r.exec_root <- chain_exec_root ~root:r.exec_root ~seq ~digest;
      Hashtbl.replace r.history seq (view, digest, batch);
      Hashtbl.remove r.history (seq - c.cfg.Config.watermark_window);
      if seq mod c.cfg.Config.checkpoint_interval = 0 then begin
        Hashtbl.replace r.roots seq r.exec_root;
        (match Hashtbl.find_opt r.ckpt_certs seq with
        | Some (d, _) when d <> r.exec_root ->
            (* My replayed history disagrees with the committee's certified
               root: surfaced to the checkpoint-agreement oracle. *)
            if Probe.enabled c.probe then Probe.incr c.probe "ckpt.root_mismatch"
        | _ -> ());
        charge_consensus c r c.costs.Cost_model.ecdsa_sign;
        if Probe.enabled c.probe then begin
          Probe.incr c.probe "ckpt.proposed";
          probe_instant c r ~cat:"ckpt"
            ~args:[ ("seq", Ev.I seq); ("root", Ev.I r.exec_root) ]
            "checkpoint"
        end;
        broadcast c r ~channel:consensus_channel
          (Checkpoint { seq; digest = r.exec_root; sender = r.index });
        note_checkpoint_vote c r ~seq ~digest:r.exec_root ~member:r.index
      end;
      if is_leader c r then try_propose c r;
      try_execute c r

(* A checkpoint vote (mine or a peer's).  Once a quorum of matching roots
   is collected the certificate is recorded; replicas that executed through
   [seq] stabilize on it, replicas that are behind start catch-up — the
   certificate is the proof there is something to catch up to.  The old
   code jumped [last_exec] forward here without executing, permanently
   diverging any state materialized at this replica. *)
and note_checkpoint_vote c r ~seq ~digest ~member =
  let n_votes = Quorum.vote r.checkpoints ~view:0 ~seq ~digest ~member in
  if n_votes >= quorum c && not (Hashtbl.mem r.ckpt_certs seq) then begin
    Hashtbl.replace r.ckpt_certs seq (digest, Quorum.voters r.checkpoints ~view:0 ~seq ~digest);
    if Probe.enabled c.probe then begin
      Probe.incr c.probe "ckpt.certs";
      probe_instant c r ~cat:"ckpt"
        ~args:[ ("seq", Ev.I seq); ("root", Ev.I digest) ]
        "ckpt_cert"
    end;
    if r.last_exec >= seq then stabilize c r ~seq else request_catch_up c r
  end

and highest_cert r =
  Repro_util.Det.fold ~compare:Int.compare
    (fun seq (digest, _) acc ->
      match acc with Some (s, _) when s >= seq -> acc | _ -> Some (seq, digest))
    r.ckpt_certs None

and behind c r =
  ignore c;
  match highest_cert r with Some (s, _) -> s > r.last_exec | None -> false

(* Provably missing slots: a certificate above my execution point, or a
   committed slot I cannot reach because the one after [last_exec] never
   arrived. *)
and gapped c r =
  behind c r
  || Repro_util.Det.fold ~compare:Int.compare
       (fun s _ acc -> acc || s > r.last_exec)
       r.committed false

(* Ask f+1 peers for the slots (or a certified snapshot) I missed; at least
   one of them is correct.  One request outstanding at a time, re-armed on
   the progress timeout while a certificate still sits above [last_exec]. *)
and request_catch_up c r =
  if (not r.fetching) && not (is_byz c r) then begin
    r.fetching <- true;
    if Probe.enabled c.probe then begin
      Probe.incr c.probe "ckpt.fetch.requests";
      probe_instant c r ~cat:"ckpt" ~args:[ ("since", Ev.I r.last_exec) ] "fetch"
    end;
    charge_consensus c r c.costs.Cost_model.ecdsa_sign;
    let sent = ref 0 in
    for dst = 0 to n_of c - 1 do
      if dst <> r.index && !sent < f_of c + 1 then begin
        incr sent;
        send c r ~dst ~channel:consensus_channel (Fetch { since = r.last_exec; sender = r.index })
      end
    done;
    ignore
      (Engine.timer c.engine ~delay:c.cfg.Config.progress_timeout (fun () ->
           if r.fetching then begin
             r.fetching <- false;
             if c.alive r.index && (not (Faults.is_crashed c.faults r.index)) && gapped c r
             then request_catch_up c r
           end))
  end

and stabilize c r ~seq =
  if seq > r.last_stable && r.last_exec >= seq then begin
    r.last_stable <- seq;
    if Probe.enabled c.probe then Probe.incr c.probe "ckpt.stabilized";
    Quorum.forget_below r.prepares ~seq;
    Quorum.forget_below r.commits ~seq;
    (* The certified watermark keys all garbage collection: only slots
       below a *certified* checkpoint are forgotten, so uncertified votes
       are never discarded. *)
    Quorum.forget_below r.checkpoints ~seq;
    let drop_below table = Hashtbl.filter_map_inplace (fun s v -> if s <= seq then None else Some v) table in
    drop_below r.preprep;
    Hashtbl.filter_map_inplace (fun s v -> if s <= seq then None else Some v) r.prepared;
    drop_below r.committed;
    Hashtbl.filter_map_inplace (fun s v -> if s < seq then None else Some v) r.roots;
    Hashtbl.filter_map_inplace (fun s v -> if s < seq then None else Some v) r.ckpt_certs;
    (* [history] is deliberately not pruned here: it stays a full
       watermark_window ring so a recovering observer can replay slots
       below the stable point instead of skipping them. *)
    match r.a2m with
    | Some a2m ->
        A2m.truncate_below a2m ~slot:seq;
        ignore (A2m.seal_state a2m)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* View changes                                                        *)
(* ------------------------------------------------------------------ *)

and start_view_change c r ~reason ~target =
  let current_goal = if r.active then r.view else r.vc_target in
  if target > current_goal then begin
    r.active <- false;
    r.vc_target <- target;
    (* Exponential retry backoff, capped: uncapped, a sustained stall across
       a run of faulty leaders inflates the deadline past any horizon and
       the committee never recovers (the Fig. 16 right-panel bug). *)
    let raw_backoff = Int.max 0 (target - r.view - 1) in
    let backoff = Int.min c.cfg.Config.vc_backoff_cap raw_backoff in
    if raw_backoff > backoff && Probe.enabled c.probe then
      Probe.incr c.probe "pbft.vc.backoff_capped";
    r.vc_deadline <- now c +. (c.cfg.Config.progress_timeout *. Float.pow 2.0 (float_of_int backoff));
    at_observer c r (fun () -> Metrics.incr c.metrics "view_change_started");
    if Probe.enabled c.probe then begin
      Probe.incr c.probe ("pbft.vc.reason." ^ reason);
      probe_instant c r ~cat:"pbft"
        ~args:[ ("target", Ev.I target); ("reason", Ev.S reason) ]
        "view_change_start"
    end;
    charge_consensus c r c.costs.Cost_model.ecdsa_sign;
    let prepared =
      Repro_util.Det.fold ~compare:Int.compare
        (fun seq digest acc ->
          match Hashtbl.find_opt r.preprep seq with
          | Some (view, d, batch) when d = digest -> (seq, view, digest, batch) :: acc
          | Some _ | None -> acc)
        r.prepared []
    in
    let m =
      View_change { target; sender = r.index; last_stable = r.last_stable; prepared }
    in
    broadcast c r ~channel:consensus_channel m;
    record_view_change_vote c r ~target ~sender:r.index ~prepared
  end

and record_view_change_vote c r ~target ~sender ~prepared =
  let merged =
    match Hashtbl.find_opt r.vc_prepared target with
    | Some table -> table
    | None ->
        let table = Hashtbl.create 16 in
        Hashtbl.replace r.vc_prepared target table;
        table
  in
  List.iter
    (fun (seq, view, digest, batch) ->
      match Hashtbl.find_opt merged seq with
      | Some (v, _, _) when v >= view -> ()
      | Some _ | None -> Hashtbl.replace merged seq (view, digest, batch))
    prepared;
  let votes = Quorum.vote r.vc_votes ~view:target ~seq:0 ~digest:0 ~member:sender in
  (* Join a view change when f+1 peers demand it. *)
  let goal = if r.active then r.view else r.vc_target in
  if votes >= f_of c + 1 && target > goal then start_view_change c r ~reason:"join-f+1" ~target;
  if
    votes >= quorum c
    && leader_of_view_int c target = r.index
    && (r.view < target || not r.active)
    && ((not (is_byz c r)) || Option.is_some c.byz.leader_attack)
    (* A byzantine replica running a leader attack emits a credible
       New_view — it wants to *win* the slot so it can attack it. *)
  then begin
    (* Become the new leader: re-propose surviving prepared certificates. *)
    let reproposals =
      Repro_util.Det.bindings ~compare:Int.compare merged
      |> List.filter_map (fun (seq, (_, digest, batch)) ->
             if seq > r.last_stable then Some (seq, digest, batch) else None)
    in
    charge_consensus c r c.costs.Cost_model.ecdsa_sign;
    broadcast c r ~channel:consensus_channel (New_view { view = target; sender = r.index; reproposals });
    adopt_new_view c r ~view:target ~reproposals
  end

and adopt_new_view c r ~view ~reproposals =
  if view > r.view || ((not r.active) && view >= r.vc_target) || (not r.active && view = r.view)
  then begin
    r.view <- Int.max view r.view;
    r.active <- true;
    r.vc_deadline <- infinity;
    at_observer c r (fun () -> Metrics.incr c.metrics "view_changes");
    if Probe.enabled c.probe then begin
      Probe.incr c.probe "pbft.vc.adopted";
      probe_instant c r ~cat:"pbft" ~args:[ ("view", Ev.I view) ] "new_view"
    end;
    (* Drop stale view-change bookkeeping. *)
    let stale =
      List.filter (fun t -> t <= view) (Repro_util.Det.keys ~compare:Int.compare r.vc_prepared)
    in
    List.iter (Hashtbl.remove r.vc_prepared) stale;
    (* Discard superseded-view pre-prepares that never reached a prepared
       certificate: a certificate would have travelled with the view-change
       votes and be re-proposed below, so what remains is a dead proposal —
       and holding it would make this replica refuse the new leader's
       re-proposal or no-op fill at that slot forever (the pre-prepare
       guard admits one digest per slot). *)
    Hashtbl.filter_map_inplace
      (fun seq ((pv, _, _) as entry) ->
        if pv < view && seq > r.last_exec && not (Hashtbl.mem r.committed seq) then None
        else Some entry)
      r.preprep;
    Hashtbl.filter_map_inplace
      (fun seq digest -> if Hashtbl.mem r.preprep seq then Some digest else None)
      r.prepared;
    (* Accept the new leader's re-proposals as view-v pre-prepares. *)
    List.iter
      (fun (seq, digest, batch) ->
        if seq > r.last_stable && seq > r.last_exec then begin
          Hashtbl.replace r.preprep seq (view, digest, batch);
          Hashtbl.remove r.prepared seq;
          respond_to_preprepare c r ~view ~seq ~digest
        end)
      reproposals;
    if leader_of_view_int c view = r.index then begin
      let max_repro = List.fold_left (fun acc (s, _, _) -> Int.max acc s) 0 reproposals in
      r.next_seq <- 1 + List.fold_left Int.max 0 [ r.last_stable; r.last_exec; max_repro; r.next_seq - 1 ];
      (* Requeue everything I know about that is not in flight. *)
      Int_tbl.reset r.queued;
      Queue.iter (fun q -> Int_tbl.replace r.queued q.req_id ()) r.pending;
      List.iter (fun (_, _, batch) -> List.iter (fun q -> Int_tbl.replace r.queued q.req_id ()) batch) reproposals;
      Int_tbl.iter_sorted (fun _ q -> add_pending c r q) r.known;
      (* Fill every slot below [next_seq] that neither committed nor got a
         re-proposal with a no-op batch (Castro–Liskov null requests): a
         proposal that died unprepared in the old view leaves a hole that
         no future proposal revisits, and execution — hence the whole
         committee — would stall on it into the next view change. *)
      let noop_digest = digest_of_batch [] in
      for seq = r.last_exec + 1 to r.next_seq - 1 do
        if (not (Hashtbl.mem r.preprep seq)) && not (Hashtbl.mem r.committed seq) then begin
          Hashtbl.replace r.preprep seq (view, noop_digest, []);
          if Probe.enabled c.probe then Probe.incr c.probe "pbft.vc.noop_fill";
          charge_consensus c r c.costs.Cost_model.ecdsa_sign;
          broadcast c r ~channel:consensus_channel
            (Pre_prepare { view; seq; batch = []; digest = noop_digest });
          ignore (Quorum.vote r.prepares ~view ~seq ~digest:noop_digest ~member:r.index);
          if c.cfg.Config.variant.Config.relay then
            leader_self_vote c r ~phase:Prepare_phase ~seq ~digest:noop_digest
        end
      done;
      try_propose c r
    end
    else begin
      (* Hand the new leader the requests we still wait on. *)
      let leader = leader_of_view_int c view in
      let budget = ref 128 in
      Int_tbl.iter_sorted
        (fun _ q ->
          if !budget > 0 then begin
            decr budget;
            send c r ~dst:leader ~channel:request_channel (Forward q)
          end)
        r.known
    end;
    r.earliest_known <- now c
  end

(* Replica-side response to an accepted pre-prepare: vote and move the
   prepare phase forward under the variant's communication pattern. *)
and respond_to_preprepare c r ~view ~seq ~digest =
  if c.cfg.Config.variant.Config.relay then begin
    if not (is_leader c r) then begin
      let enclave = Option.get r.enclave in
      charge_consensus c r c.costs.Cost_model.ecdsa_sign;
      let vote = Enclave.sign_free enclave ~msg_tag:(vote_tag ~phase:Prepare_phase ~view ~seq ~digest) in
      send c r ~dst:(leader_of_view_int c view) ~channel:consensus_channel
        (Relay_vote { phase = Prepare_phase; view; seq; digest; sender = r.index; vote });
      (* Relay watchdog: while this sequence is outstanding, any commit
         stall longer than the relay timeout means the leader is sitting on
         a quorum certificate — suspect it (the AHLR pathology of
         Section 7.1).  Ordinary pipelining keeps commits flowing, so the
         watchdog only fires on genuine leader stalls. *)
      let deadline = c.cfg.Config.relay_timeout in
      let rec watch () =
        if c.alive r.index && r.active && r.view = view && r.last_exec < seq then begin
          let stall = now c -. r.last_exec_time in
          if stall > deadline then start_view_change c r ~reason:"relay-stall" ~target:(r.view + 1)
          else ignore (Engine.timer c.engine ~delay:(deadline -. stall +. 1e-3) watch)
        end
      in
      ignore (Engine.timer c.engine ~delay:deadline watch)
    end
  end
  else if authenticate c r ~phase_idx:1 ~view ~slot:seq ~digest then begin
    broadcast c r ~channel:consensus_channel (Prepare { view; seq; digest; sender = r.index });
    let n_votes = Quorum.vote r.prepares ~view ~seq ~digest ~member:r.index in
    if n_votes >= quorum c then mark_prepared c r ~view ~seq ~digest
  end

(* ------------------------------------------------------------------ *)
(* Byzantine behaviours (the Figure 8/16 attack)                       *)
(* ------------------------------------------------------------------ *)

(* A Byzantine replica follows the committee's {!byz_strategy}.  The
   default mounts the paper's conflicting-message attack: on every
   pre-prepare it spams peers with garbage votes carrying wrong sequence
   numbers (burning honest verification CPU), and without A2M it also
   equivocates, telling half the committee a different digest — but those
   digests name fabricated batches, so they cost CPU without ever
   committing.  The scripted [split_brain] strategy is the real
   Figure 8/16 attack: the byzantine view-0 leader proposes two genuinely
   conflicting batches of real requests and drives each half of the
   committee to commit its own. *)
and byz_silent c dst = List.exists (fun id -> Int.equal id dst) c.byz.silent_toward

and byz_send c r ~dst m = if not (byz_silent c dst) then send c r ~dst ~channel:consensus_channel m

(* Side A of the split is the low-indexed half of the committee; with
   byzantine ids 0..f-1, the first honest replica (the observer) always
   lands on side A, which is also the side whose A2M append goes first and
   therefore survives attestation. *)
and byz_split_side_a c dst = 2 * dst < n_of c

and byz_try_split_propose c r =
  if leader_of_view_int c r.view = r.index then
    while Queue.length r.pending >= 2 do
      let a = Queue.take r.pending in
      let b = Queue.take r.pending in
      let seq = r.next_seq in
      r.next_seq <- seq + 1;
      let batch_a = [ a; b ] and batch_b = [ b; a ] in
      let digest_a = digest_of_batch batch_a and digest_b = digest_of_batch batch_b in
      Hashtbl.replace c.equiv_plans (r.view, seq) (digest_a, batch_a, digest_b, batch_b);
      (* Under A2M the first append per (log, slot) wins: side A's digest
         is attested, side B's is refused, and only one side's messages go
         out — exactly why the attack dies against AHL. *)
      let pp_a = authenticate c r ~phase_idx:0 ~view:r.view ~slot:seq ~digest:digest_a in
      let pp_b = authenticate c r ~phase_idx:0 ~view:r.view ~slot:seq ~digest:digest_b in
      let cm_a = authenticate c r ~phase_idx:2 ~view:r.view ~slot:seq ~digest:digest_a in
      let cm_b = authenticate c r ~phase_idx:2 ~view:r.view ~slot:seq ~digest:digest_b in
      for dst = 0 to n_of c - 1 do
        if dst <> r.index then begin
          let pp_ok, cm_ok, digest, batch =
            if byz_split_side_a c dst then (pp_a, cm_a, digest_a, batch_a)
            else (pp_b, cm_b, digest_b, batch_b)
          in
          if pp_ok then byz_send c r ~dst (Pre_prepare { view = r.view; seq; batch; digest });
          if cm_ok then byz_send c r ~dst (Commit { view = r.view; seq; digest; sender = r.index })
        end
      done
    done

(* A non-leader accomplice looks the plan up and votes both sides —
   each vote still gated by its own attested log. *)
and byz_collude_on_preprepare c r ~view ~seq =
  match Hashtbl.find_opt c.equiv_plans (view, seq) with
  | None -> ()
  | Some (digest_a, _, digest_b, _) ->
      let p_a = authenticate c r ~phase_idx:1 ~view ~slot:seq ~digest:digest_a in
      let p_b = authenticate c r ~phase_idx:1 ~view ~slot:seq ~digest:digest_b in
      let c_a = authenticate c r ~phase_idx:2 ~view ~slot:seq ~digest:digest_a in
      let c_b = authenticate c r ~phase_idx:2 ~view ~slot:seq ~digest:digest_b in
      for dst = 0 to n_of c - 1 do
        if dst <> r.index then begin
          let p_ok, c_ok, digest =
            if byz_split_side_a c dst then (p_a, c_a, digest_a) else (p_b, c_b, digest_b)
          in
          if p_ok then byz_send c r ~dst (Prepare { view; seq; digest; sender = r.index });
          if c_ok then byz_send c r ~dst (Commit { view; seq; digest; sender = r.index })
        end
      done

and byz_naive_equivocate c r ~view ~seq ~digest =
  if not c.cfg.Config.variant.Config.attested then
    (* Equivocation: conflicting digests to the two halves. *)
    for dst = 0 to n_of c - 1 do
      if dst <> r.index then
        let d = if dst < n_of c / 2 then digest else digest + 1 in
        send c r ~dst ~channel:consensus_channel (Prepare { view; seq; digest = d; sender = r.index })
    done
  else
    match r.a2m with
    | Some a2m ->
        (* Try to equivocate through the trusted log; the second append
           is refused, so only the honest vote goes out. *)
        let log = a2m_log ~phase_idx:1 ~view in
        (match A2m.append a2m ~log ~slot:seq ~digest_tag:digest with
        | Some _ ->
            broadcast c r ~channel:consensus_channel (Prepare { view; seq; digest; sender = r.index })
        | None -> ());
        (match A2m.append a2m ~log ~slot:seq ~digest_tag:(digest + 1) with
        | Some _ -> Sim_error.invalid "Pbft: A2M accepted a conflicting append for slot %d" seq
        | None -> ())
    | None -> ()

(* ---- Leader attacks (the Fig. 16 right panel) -------------------- *)

(* A byzantine replica running a leader attack tracks views like an honest
   one (it records view-change votes and adopts new views), campaigns for
   the leader slot, and — once it holds it — attacks it: total silence
   (stall), service restricted to a chosen subset, or batches dripped just
   under the watchdog period. *)
and byz_holds_slot c r = r.active && leader_of_view_int c r.view = r.index

(* Emit one honest-looking batch from the byzantine leader, restricted to
   [only] when given (selective serving).  The pre-prepare carries real
   requests and a correct digest, so served replicas make normal progress;
   a matching commit vote follows so the served subset can complete its
   commit quorum without the starved peers. *)
and byz_leader_emit c r ~only =
  if not (Queue.is_empty r.pending) then begin
    let batch = ref [] in
    let count = Int.min c.cfg.Config.batch_max (Queue.length r.pending) in
    for _ = 1 to count do
      batch := Queue.take r.pending :: !batch
    done;
    let batch = List.rev !batch in
    let digest = digest_of_batch batch in
    let seq = r.next_seq in
    r.next_seq <- seq + 1;
    let served dst = match only with None -> true | Some ids -> List.exists (Int.equal dst) ids in
    let pp_ok = authenticate c r ~phase_idx:0 ~view:r.view ~slot:seq ~digest in
    let cm_ok = authenticate c r ~phase_idx:2 ~view:r.view ~slot:seq ~digest in
    for dst = 0 to n_of c - 1 do
      if dst <> r.index && served dst then begin
        if pp_ok then byz_send c r ~dst (Pre_prepare { view = r.view; seq; batch; digest });
        if cm_ok then byz_send c r ~dst (Commit { view = r.view; seq; digest; sender = r.index })
      end
    done
  end

and byz_leader_drip c r ~delay =
  let t = now c in
  if Queue.is_empty r.pending then ()
  else if t >= r.drip_next then begin
    r.drip_next <- t +. delay;
    byz_leader_emit c r ~only:None
  end
  else if not r.batch_timer_armed then begin
    r.batch_timer_armed <- true;
    Engine.schedule c.engine
      ~delay:(Float.max 1e-4 (r.drip_next -. t))
      (fun () ->
        r.batch_timer_armed <- false;
        if c.alive r.index && byz_holds_slot c r then byz_leader_try_propose c r)
  end

and byz_leader_try_propose c r =
  if byz_holds_slot c r then
    match c.byz.leader_attack with
    | None | Some Leader_stall -> ()
    | Some (Leader_serve_only ids) -> byz_leader_emit c r ~only:(Some ids)
    | Some (Leader_drip delay) -> byz_leader_drip c r ~delay

and byz_handle c r m =
  (match m with
  | Prepare _ when c.byz.stale_view_replay && List.length c.stale_log < 16 ->
      c.stale_log <- m :: c.stale_log
  | _ -> ());
  let leader_attack = Option.is_some c.byz.leader_attack in
  match m with
  | Pre_prepare { view; seq; digest; _ } ->
      verify_in c r;
      if c.byz.split_brain then byz_collude_on_preprepare c r ~view ~seq;
      if c.byz.vote_noise then begin
        let garbage = Prepare { view; seq = seq + 100_000; digest = digest + 7; sender = r.index } in
        broadcast c r ~channel:consensus_channel garbage
      end;
      if c.byz.naive_equivocation then byz_naive_equivocate c r ~view ~seq ~digest
  | Request { req; _ } | Forward req ->
      parse_in c r c.cfg.Config.request_parse_cost;
      if c.byz.split_brain then begin
        add_pending c r req;
        byz_try_split_propose c r
      end
      else if leader_attack then begin
        add_pending c r req;
        byz_leader_try_propose c r
      end
  | View_change { target; sender; prepared; _ } when leader_attack ->
      (* Track (and vote in) view changes so the quorum that elects this
         replica is observed — winning the slot is the attack's entry. *)
      verify_in c r;
      record_view_change_vote c r ~target ~sender ~prepared;
      byz_leader_try_propose c r
  | New_view { view; sender; reproposals } ->
      parse_in c r c.cfg.Config.msg_parse_cost;
      if leader_attack && sender = leader_of_view_int c view then
        adopt_new_view c r ~view ~reproposals;
      if c.byz.stale_view_replay then
        List.iter (fun stale -> broadcast c r ~channel:consensus_channel stale) c.stale_log
  | _ -> parse_in c r c.cfg.Config.msg_parse_cost

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)
(* ------------------------------------------------------------------ *)

let handle_request c r req ~relayed =
  parse_in c r c.cfg.Config.request_parse_cost;
  if not (Int_tbl.mem r.executed req.req_id) then begin
    add_known c r req;
    let variant = c.cfg.Config.variant in
    if variant.Config.forward_requests then begin
      if is_leader c r then begin
        add_pending c r req;
        try_propose c r
      end
      else if not relayed then
        send c r ~dst:(leader_of_view_int c r.view) ~channel:request_channel (Forward req)
    end
    else begin
      (* Hyperledger behaviour: gossip the raw request to everyone. *)
      if not relayed then broadcast c r ~channel:request_channel (Request { req; relayed = true });
      if is_leader c r then begin
        add_pending c r req;
        try_propose c r
      end
    end
  end

let handle_pre_prepare c r ~view ~seq ~batch ~digest ~charge_batch =
  verify_in c r;
  (* Validating a pre-prepare means checking every transaction's client
     signature (amortized batch verification) plus the batch digest. *)
  if charge_batch then
    charge_consensus c r
      (float_of_int (List.length batch)
      *. (c.cfg.Config.client_sig_verify +. c.costs.Cost_model.sha256));
  if
    r.active && view = r.view
    && seq > r.last_stable
    && seq < r.last_stable + c.cfg.Config.watermark_window
    && (not (Hashtbl.mem r.preprep seq))
    && digest = digest_of_batch batch
  then begin
    Hashtbl.replace r.preprep seq (view, digest, batch);
    List.iter (add_known c r) batch;
    (* The pre-prepare carries the leader's prepare vote. *)
    let leader = leader_of_view_int c view in
    let after_leader_vote = Quorum.vote r.prepares ~view ~seq ~digest ~member:leader in
    respond_to_preprepare c r ~view ~seq ~digest;
    if (not c.cfg.Config.variant.Config.relay) && after_leader_vote + 1 >= quorum c then
      (* Quorum may already be complete counting our own vote. *)
      if Quorum.count r.prepares ~view ~seq ~digest >= quorum c then
        mark_prepared c r ~view ~seq ~digest
  end

let handle_prepare c r ~view ~seq ~digest ~sender =
  verify_in c r;
  if r.active && view = r.view then begin
    let n_votes = Quorum.vote r.prepares ~view ~seq ~digest ~member:sender in
    if n_votes >= quorum c && Hashtbl.mem r.preprep seq then mark_prepared c r ~view ~seq ~digest
  end

let handle_commit c r ~view ~seq ~digest ~sender =
  verify_in c r;
  if r.active && view = r.view then begin
    let n_votes = Quorum.vote r.commits ~view ~seq ~digest ~member:sender in
    if n_votes >= quorum c && Hashtbl.mem r.prepared seq then mark_committed c r ~seq ~digest
  end

let handle_checkpoint c r ~seq ~digest ~sender =
  verify_in c r;
  if seq > r.last_stable then note_checkpoint_vote c r ~seq ~digest ~member:sender
  else if Probe.enabled c.probe then
    (* Straggler vote below my watermark: that checkpoint is already
       certified and garbage-collected here — nothing to do. *)
    Probe.incr c.probe "ckpt.stale_msg"

(* Serve a catch-up request: contiguous slots after [since] out of the
   replay ring (which survives stabilization) plus my latest checkpoint
   certificate; when the requested slots are already beyond the ring, the
   certificate is the anchor and the blocks restart above it (the fetcher
   installs a verified snapshot for the gap). *)
let handle_fetch c r ~since ~sender =
  verify_in c r;
  if sender <> r.index && sender >= 0 && sender < n_of c then begin
    let block_at s =
      match Hashtbl.find_opt r.history s with
      | Some b -> Some b
      | None -> Hashtbl.find_opt r.committed s
    in
    let collect start =
      let rec go s acc n =
        if n >= 64 || s > r.last_exec then List.rev acc
        else
          match block_at s with
          | Some (view, digest, batch) -> go (s + 1) ((s, view, digest, batch) :: acc) (n + 1)
          | None -> List.rev acc
      in
      go start [] 0
    in
    let ckpt =
      match highest_cert r with
      | Some (s, _) when s > since -> (
          match Hashtbl.find_opt r.ckpt_certs s with
          | Some (digest, voters) -> Some (s, digest, voters)
          | None -> None)
      | _ -> None
    in
    let blocks =
      match collect (since + 1) with
      | _ :: _ as direct -> direct
      | [] -> ( match ckpt with Some (s, _, _) -> collect (s + 1) | None -> [])
    in
    if (not (List.is_empty blocks)) || Option.is_some ckpt then begin
      charge_consensus c r c.costs.Cost_model.ecdsa_sign;
      if Probe.enabled c.probe then begin
        Probe.incr c.probe "ckpt.fetch.served";
        Probe.add c.probe "ckpt.fetch.blocks_served" (List.length blocks)
      end;
      send c r ~dst:sender ~channel:consensus_channel
        (Fetch_resp { sender = r.index; view = r.view; ckpt; blocks })
    end
  end

(* Install a certified checkpoint without replaying up to it: the embedding
   has already transferred and verified a snapshot for everything below
   [seq] (or knows this replica materializes no state).  Anything this
   replica still tracked below the checkpoint is superseded. *)
let adopt_checkpoint c r ~seq ~digest =
  if r.last_exec < seq then begin
    r.last_exec <- seq;
    r.last_exec_time <- now c;
    r.exec_root <- digest;
    Hashtbl.replace r.roots seq digest;
    Queue.clear r.pending;
    r.oldest_pending_since <- infinity;
    Int_tbl.reset r.queued;
    Int_tbl.reset r.known;
    r.earliest_known <- infinity;
    r.next_seq <- Int.max r.next_seq (seq + 1);
    if not (Hashtbl.mem r.ckpt_certs seq) then
      Hashtbl.replace r.ckpt_certs seq (digest, Quorum.voters r.checkpoints ~view:0 ~seq ~digest);
    stabilize c r ~seq
  end

let handle_fetch_resp c r ~view ~ckpt ~blocks =
  verify_in c r;
  (* The responder's current view is a liveness hint: a replica that
     slept through a view change has no other way to learn it — the
     committee runs steadily in the new view, so there are no
     view-change votes left to join, and every pre-prepare it hears is
     tagged with a view it refuses.  Adopting the newer view re-opens
     its ears; a lying responder can only strand this one recovering
     replica, which the f-fault budget already covers. *)
  let goal = if r.active then r.view else r.vc_target in
  if view > goal then begin
    r.view <- view;
    r.active <- true;
    r.vc_deadline <- infinity;
    if Probe.enabled c.probe then begin
      Probe.incr c.probe "ckpt.view_adopted";
      probe_instant c r ~cat:"ckpt" ~args:[ ("view", Ev.I view) ] "view_from_fetch"
    end
  end;
  (* Learn (and verify) the certificate carried by the response. *)
  (match ckpt with
  | Some (seq, digest, voters) when seq > r.last_stable && not (Hashtbl.mem r.ckpt_certs seq) ->
      let signers =
        List.sort_uniq Int.compare (List.filter (fun m -> m >= 0 && m < n_of c) voters)
      in
      if List.length signers >= quorum c then begin
        charge_consensus c r
          (float_of_int (List.length signers) *. c.costs.Cost_model.ecdsa_verify);
        Hashtbl.replace r.ckpt_certs seq (digest, signers)
      end
  | _ -> ());
  let sorted = List.sort (fun (a, _, _, _) (b, _, _, _) -> Int.compare a b) blocks in
  let insert (seq, view, digest, batch) =
    if seq > r.last_exec && (not (Hashtbl.mem r.committed seq)) && digest = digest_of_batch batch
    then Hashtbl.replace r.committed seq (view, digest, batch)
  in
  let finish_step before =
    r.fetching <- false;
    if Probe.enabled c.probe && r.last_exec > before then begin
      Probe.incr c.probe "ckpt.fetch.applied";
      Probe.add c.probe "ckpt.fetch.blocks_replayed" (r.last_exec - before);
      Probe.observe c.probe "ckpt.catchup_slots" (float_of_int (r.last_exec - before))
    end;
    (* Still below a certificate (the 64-slot response cap): keep pulling. *)
    if r.last_exec > before && gapped c r then request_catch_up c r
  in
  let before = r.last_exec in
  if List.exists (fun (s, _, _, _) -> s = r.last_exec + 1) sorted then begin
    (* The response covers my next slot: replay through the normal
       execution path (state, metrics and checkpoint votes all advance). *)
    List.iter insert sorted;
    try_execute c r;
    finish_step before
  end
  else
    match highest_cert r with
    | Some (cseq, cdigest) when cseq > r.last_exec ->
        (* The missed slots are gone even from the serving peers' rings:
           transfer a snapshot certified at [cseq], then replay the tail. *)
        if Probe.enabled c.probe then Probe.incr c.probe "ckpt.fetch.snapshots";
        c.snapshot_fetch ~member:r.index ~seq:cseq ~digest:cdigest
          ~k:(fun ok ->
            if c.alive r.index && not (Faults.is_crashed c.faults r.index) then
              if ok then begin
                adopt_checkpoint c r ~seq:cseq ~digest:cdigest;
                List.iter insert sorted;
                try_execute c r;
                finish_step before
              end
              else begin
                (* Tampered or stale snapshot: reject and retry the fetch
                   (a different peer serves next time). *)
                if Probe.enabled c.probe then Probe.incr c.probe "ckpt.fetch.snapshot_rejected";
                r.fetching <- false;
                request_catch_up c r
              end)
    | _ -> r.fetching <- false

let handle_relay_vote c r ~phase ~view ~seq ~digest ~vote =
  parse_in c r c.cfg.Config.msg_parse_cost;
  if r.active && view = r.view && is_leader c r then
    relay_collect c r ~phase ~view ~seq ~digest ~vote

let handle_quorum_cert c r ~phase ~view ~seq ~digest ~proof =
  verify_in c r;
  if
    r.active && view = r.view
    && proof.Aggregator.stmt_tag = vote_tag ~phase ~view ~seq ~digest
    && Aggregator.verify c.keystore ~f:(f_of c) proof
  then apply_quorum_cert c r ~phase ~view ~seq ~digest

let handle c ~member m =
  let r = c.replicas.(member) in
  if Faults.is_crashed c.faults member then ()
  else if is_byz c r then byz_handle c r m
  else
    match m with
    | Request { req; relayed } -> handle_request c r req ~relayed
    | Forward req ->
        parse_in c r c.cfg.Config.request_parse_cost;
        add_known c r req;
        if is_leader c r then begin
          add_pending c r req;
          try_propose c r
        end
    | Pre_prepare { view; seq; batch; digest } ->
        handle_pre_prepare c r ~view ~seq ~batch ~digest ~charge_batch:true
    | Prepare { view; seq; digest; sender } -> handle_prepare c r ~view ~seq ~digest ~sender
    | Commit { view; seq; digest; sender } -> handle_commit c r ~view ~seq ~digest ~sender
    | Checkpoint { seq; digest; sender } -> handle_checkpoint c r ~seq ~digest ~sender
    | Fetch { since; sender } -> handle_fetch c r ~since ~sender
    | Fetch_resp { sender = _; view; ckpt; blocks } -> handle_fetch_resp c r ~view ~ckpt ~blocks
    | View_change { target; sender; last_stable = _; prepared } ->
        verify_in c r;
        record_view_change_vote c r ~target ~sender ~prepared
    | New_view { view; sender; reproposals } ->
        verify_in c r;
        if sender = leader_of_view_int c view then adopt_new_view c r ~view ~reproposals
    | Relay_vote { phase; view; seq; digest; sender = _; vote } ->
        handle_relay_vote c r ~phase ~view ~seq ~digest ~vote
    | Quorum_cert { phase; view; seq; digest; proof } ->
        handle_quorum_cert c r ~phase ~view ~seq ~digest ~proof

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let watchdog c r () =
  if Faults.is_crashed c.faults r.index || not (c.alive r.index) then ()
  else if is_byz c r then begin
    match c.byz.leader_attack with
    | Some _ when byz_holds_slot c r ->
        (* Holding the slot: never vote against myself; keep the serve /
           drip emission paced off the watchdog tick. *)
        byz_leader_try_propose c r
    | Some (Leader_drip _) ->
        (* Stealth attack: destabilization votes would out the adversary
           before the drip probes the detection boundary. *)
        ()
    | Some _ | None ->
        (* Byzantine destabilization: keep calling for view changes; alone
           they are f votes — one honest timeout tips the committee over. *)
        let target = (if r.active then r.view else r.vc_target) + 1 in
        broadcast c r ~channel:consensus_channel
          (View_change { target; sender = r.index; last_stable = r.last_stable; prepared = [] })
  end
  else if r.active then begin
    let timeout = c.cfg.Config.progress_timeout in
    let t = now c in
    if
      Int_tbl.length r.known > 0
      && t -. r.last_exec_time > timeout
      && t -. r.earliest_known > timeout
    then begin
      (* PBFT's request retransmission: before (and alongside) suspecting
         the leader, make sure every peer knows the stalled requests so
         their timers arm too — without it, a request known to one replica
         whose forward was lost can never assemble a view-change quorum. *)
      let budget = ref 64 in
      Int_tbl.iter_sorted
        (fun _ req ->
          if !budget > 0 then begin
            decr budget;
            broadcast c r ~channel:request_channel (Request { req; relayed = true })
          end)
        r.known;
      start_view_change c r ~reason:"progress-timeout" ~target:(r.view + 1)
    end
  end
  else if now c > r.vc_deadline then
    start_view_change c r ~reason:"vc-restart" ~target:(r.vc_target + 1)

let start c =
  Array.iter
    (fun r ->
      let period = c.cfg.Config.progress_timeout /. 2.0 in
      let rec loop () =
        watchdog c r ();
        Engine.schedule c.engine ~delay:period loop
      in
      (* Stagger watchdogs so the committee does not act in lockstep. *)
      Engine.schedule c.engine
        ~delay:(period *. (0.5 +. (float_of_int r.index /. float_of_int (n_of c))))
        loop)
    c.replicas

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let submit_via _c ~member:_ req = Request { req; relayed = false }

let leader_of_view c v = leader_of_view_int c v

let current_view c ~member = c.replicas.(member).view

let last_executed c ~member = c.replicas.(member).last_exec

let view_changes c = Metrics.counter c.metrics "view_changes"

let known_backlog c ~member = Int_tbl.length c.replicas.(member).known

let last_stable c ~member = c.replicas.(member).last_stable

let exec_root c ~member = c.replicas.(member).exec_root

let checkpoint_cert c ~member =
  let r = c.replicas.(member) in
  match highest_cert r with
  | Some (seq, digest) -> (
      match Hashtbl.find_opt r.ckpt_certs seq with
      | Some (_, voters) -> Some (seq, digest, voters)
      | None -> None)
  | None -> None

let notify_recovered c ~member =
  let r = c.replicas.(member) in
  r.fetching <- false;
  r.last_exec_time <- now c;
  r.earliest_known <- (if Int_tbl.length r.known > 0 then now c else infinity);
  if not (is_byz c r) then request_catch_up c r

let reset_member c ~member =
  let r = c.replicas.(member) in
  r.active <- true;
  r.vc_target <- 0;
  r.vc_deadline <- infinity;
  r.last_exec <- 0;
  r.last_exec_time <- now c;
  r.last_stable <- 0;
  r.next_seq <- 1;
  r.exec_root <- 0;
  r.fetching <- false;
  r.gap_timer_armed <- false;
  Queue.clear r.pending;
  r.oldest_pending_since <- infinity;
  r.earliest_known <- infinity;
  Int_tbl.reset r.queued;
  Int_tbl.reset r.executed;
  Int_tbl.reset r.known;
  Hashtbl.reset r.preprep;
  Hashtbl.reset r.prepared;
  Hashtbl.reset r.committed;
  Hashtbl.reset r.roots;
  Hashtbl.reset r.ckpt_certs;
  Hashtbl.reset r.history;
  Hashtbl.reset r.vc_prepared;
  Hashtbl.reset r.relay_pool;
  Hashtbl.reset r.relay_done;
  Quorum.forget_below r.prepares ~seq:max_int;
  Quorum.forget_below r.commits ~seq:max_int;
  Quorum.forget_below r.checkpoints ~seq:max_int;
  Quorum.forget_below r.vc_votes ~seq:max_int;
  match r.a2m with
  | Some a2m -> A2m.truncate_below a2m ~slot:max_int
  | None -> ()

let install_checkpoint c ~member ~seq ~digest ~voters =
  let r = c.replicas.(member) in
  let signers = List.sort_uniq Int.compare (List.filter (fun m -> m >= 0 && m < n_of c) voters) in
  if List.length signers >= quorum c && seq > r.last_stable then begin
    Hashtbl.replace r.ckpt_certs seq (digest, signers);
    if r.last_exec < seq then adopt_checkpoint c r ~seq ~digest else stabilize c r ~seq
  end

let set_snapshot_hook c f = c.snapshot_fetch <- f

let set_alive c f = c.alive <- f

let set_byz_strategy c s = c.byz <- s

let set_observer c o = c.observer <- o

let set_commit_hook c f = c.commit_hook <- f

let set_probe c p = c.probe <- p
