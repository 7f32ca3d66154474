(** The PBFT family: HL, AHL, AHL+, AHLR (Section 4.1).

    One replica implementation parameterized by {!Config.variant}:

    - {b HL} — vanilla PBFT: pre-prepare / prepare / commit with 2f+1
      quorums out of N = 3f+1, pipelined within a window, checkpoints and
      watermarks, and the view-change / new-view protocol.  Client requests
      received by a replica are re-broadcast to everyone, and requests share
      one bounded network queue with consensus traffic.
    - {b AHL} — every protocol message carries an attested append-only
      memory proof; equivocation is impossible, so quorums shrink to f+1
      out of N = 2f+1.
    - {b AHL+} — AHL plus optimization 1 (separate request/consensus
      queues) and optimization 2 (requests are forwarded to the leader
      instead of broadcast).
    - {b AHLR} — AHL+ plus optimization 3: replicas send signed votes to
      the leader only; the leader's enclave aggregates f+1 of them into one
      quorum certificate (O(N) messages, but a serial hotspot and a
      view-change hazard when the certificate misses the relay deadline).

    The module is transport-agnostic: the embedding supplies [send]/[self]
    callbacks, per-member CPU charging, and an [execute] upcall.  Committee
    members are addressed by their index 0..n-1. *)

open Types

type msg =
  | Request of { req : request; relayed : bool }
  | Forward of request
  | Pre_prepare of { view : int; seq : int; batch : request list; digest : int }
  | Prepare of { view : int; seq : int; digest : int; sender : int }
  | Commit of { view : int; seq : int; digest : int; sender : int }
  | Checkpoint of { seq : int; digest : int; sender : int }
      (** [digest] is the sender's execution-chain root at [seq] (see
          {!exec_root}) — a quorum of matching roots certifies the state *)
  | Fetch of { since : int; sender : int }
      (** catch-up request: send me what was decided after [since] *)
  | Fetch_resp of {
      sender : int;
      view : int;
          (** the responder's current view — the recovering replica's only
              way to learn a view change it slept through *)
      ckpt : (int * int * int list) option;
          (** latest certificate: (seq, root, quorum of signers) *)
      blocks : (int * int * int * request list) list;
          (** contiguous (seq, view, digest, batch) slots to replay *)
    }
  | View_change of {
      target : int;
      sender : int;
      last_stable : int;
      prepared : (int * int * int * request list) list;
          (** (seq, view, digest, batch) certificates *)
    }
  | New_view of {
      view : int;
      sender : int;
      reproposals : (int * int * request list) list;  (** (seq, digest, batch) *)
    }
  | Relay_vote of {
      phase : phase;
      view : int;
      seq : int;
      digest : int;
      sender : int;
      vote : Repro_crypto.Keys.signature;
    }
  | Quorum_cert of {
      phase : phase;
      view : int;
      seq : int;
      digest : int;
      proof : Repro_sgx.Aggregator.quorum_proof;
    }

type committee

type leader_attack =
  | Leader_stall
      (** win the leader slot (campaign in view changes, emit a credible
          New_view), then withhold every pre-prepare — the classic faulty
          primary that must be deposed by timeout, not outvoted *)
  | Leader_serve_only of int list
      (** as leader, serve pre-prepares and commit votes only to the listed
          peers; the rest starve and must rely on relay or catch-up *)
  | Leader_drip of float
      (** as leader, emit at most one batch every given interval — pick it
          just under the watchdog period to probe the detection boundary
          (throughput collapses but no timeout ever fires) *)

type byz_strategy = {
  vote_noise : bool;  (** spam garbage prepare votes on every pre-prepare *)
  naive_equivocation : bool;
      (** per-half conflicting digests on overheard pre-prepares (fabricated
          batches — burns honest CPU but can never commit) *)
  split_brain : bool;
      (** as view-0 leader, propose two real conflicting batches and drive
          each committee half to commit its own (the Figure 8/16 attack);
          non-leader byzantine replicas collude by voting both sides *)
  silent_toward : int list;  (** peers the byzantine replicas never message *)
  stale_view_replay : bool;
      (** stash overheard prepares and replay them after a new view *)
  leader_attack : leader_attack option;
      (** byzantine replicas track views, campaign for leader slots, win
          them with credible New_views, and then attack them — the Fig. 16
          right-panel adversary.  [None]: byzantine replicas never lead. *)
}

val default_byz_strategy : byz_strategy
(** [vote_noise] and [naive_equivocation] on, everything else off — the
    behaviour used by the throughput experiments. *)

val set_byz_strategy : committee -> byz_strategy -> unit
(** Script the committee's byzantine members (shared by all of them). *)

val set_commit_hook :
  committee -> (member:int -> view:int -> seq:int -> digest:int -> batch:request list -> unit) -> unit
(** Observe every block execution at every replica: the hook fires with the
    full decided batch (including requests already executed through an
    earlier block) just before the [execute] upcall.  This is the committed
    trace the safety oracles consume. *)

val create :
  engine:Repro_sim.Engine.t ->
  keystore:Repro_crypto.Keys.keystore ->
  costs:Repro_crypto.Cost_model.t ->
  config:Config.t ->
  faults:Repro_sim.Faults.t ->
  metrics:Repro_sim.Metrics.t ->
  enclave_base_id:int ->
  send:(src:int -> dst:int -> channel:Repro_sim.Inbox.channel -> bytes:int -> msg -> unit) ->
  charge:(member:int -> float -> unit) ->
  execute:(member:int -> seq:int -> request list -> unit) ->
  committee
(** [enclave_base_id]: the attested variants register one enclave per
    member with keystore principal ids [base .. base+n-1] (pass a range
    disjoint from other committees).  [faults] is indexed by member.
    [execute] is called on every replica with the not-yet-executed requests
    of each decided batch, in sequence order. *)

val set_observer : committee -> int -> unit
(** Override the metrics observer (default: lowest-indexed honest member).
    Must be in [0..n-1]; pass a member that stays honest and alive, or
    committee metrics go dark.  Call before {!start}. *)

val set_alive : committee -> (int -> bool) -> unit
(** Install the embedding's liveness predicate: members for which it
    returns [false] (crashed / transitioning nodes) fire no timers.
    Defaults to always-alive. *)

val set_probe : committee -> Repro_obs.Probe.t -> unit
(** Install an observability probe (default {!Repro_obs.Probe.none}):
    phase transitions, block intervals and per-reason view-change counters
    are recorded at the observer replica; equivocation refusals and
    view-change starts at every replica.  The disabled probe costs one
    branch per site. *)

val start : committee -> unit
(** Arm leader batching and watchdog timers (they run as local engine
    timers, not network messages — a flooded inbox cannot suppress a
    timeout).  Call once, after the transport is wired. *)

val handle : committee -> member:int -> msg -> unit
(** Entry point the embedding's node handler calls for every delivered
    message (including self-ticks). *)

val submit_via : committee -> member:int -> request -> msg
(** The wire message a client should send to [member] for this variant
    (plain request; the replica relays or forwards according to the
    variant). *)

val request_channel : Repro_sim.Inbox.channel

val consensus_channel : Repro_sim.Inbox.channel

val bytes_of_msg : Config.t -> msg -> int
(** Wire size estimate used by embeddings when sending. *)

val vote_tag : phase:phase -> view:int -> seq:int -> digest:int -> int
(** The statement a relay vote signs and a quorum certificate aggregates:
    [stable_hash (sprintf "rvote:%d:%d:%d:%d" p view seq digest)] with [p]
    1 for prepare and 2 for commit, hashed without building the string. *)

val leader_of_view : committee -> int -> int

val current_view : committee -> member:int -> int

val last_executed : committee -> member:int -> int

val view_changes : committee -> int
(** Successful new-view adoptions observed by the designated observer. *)

val observer : committee -> int
(** The lowest-indexed honest member; metrics (commits, latencies,
    cost gauges) are recorded at this replica only, so committee-wide
    throughput is not multiple-counted. *)

val known_backlog : committee -> member:int -> int
(** Requests known to a member but not yet executed (for tests). *)

val last_stable : committee -> member:int -> int
(** The member's latest stable checkpoint (garbage-collection horizon). *)

val exec_root : committee -> member:int -> int
(** The member's execution-chain root: a running digest folded over every
    executed (seq, batch digest).  Honest replicas at equal {!last_executed}
    hold equal roots, so this is the value checkpoints certify. *)

val checkpoint_cert : committee -> member:int -> (int * int * int list) option
(** The highest checkpoint certificate the member holds, as
    [(seq, root, voters)] — the quorum of members whose matching
    [Checkpoint] votes were collected.  [None] before the first
    certificate forms (or right after {!reset_member}). *)

val notify_recovered : committee -> member:int -> unit
(** Tell a member the embedding just revived (un-crashed) it: it resets its
    progress clock and asks f+1 peers for the slots it missed, replaying
    them through the normal execution path.  Call after the member's inbox
    is accepting deliveries again. *)

val reset_member : committee -> member:int -> unit
(** Wipe a member's consensus state (logs, votes, checkpoints, attested
    log) as if a brand-new node took over its slot — the literal
    committee-swap primitive used by epoch transitions.  The newcomer
    rejoins via {!install_checkpoint} or {!notify_recovered}. *)

val install_checkpoint : committee -> member:int -> seq:int -> digest:int -> voters:int list -> unit
(** Hand a member a checkpoint certificate whose snapshot the embedding
    already transferred and verified (Section 5.3): the member adopts
    [seq] as executed and stable without replaying below it.  Ignored
    unless [voters] contains a quorum of distinct member indices. *)

val set_snapshot_hook :
  committee -> (member:int -> seq:int -> digest:int -> k:(bool -> unit) -> unit) -> unit
(** Install the embedding's snapshot transfer: called when catch-up needs a
    snapshot certified at [seq] because the missed slots were pruned even
    from the serving peers' replay rings.  The hook must eventually call
    [k true] once a snapshot matching the certificate is transferred and
    verified, or [k false] to reject (verification failure triggers a
    retry).  Default: immediately [k true] (state-free embeddings). *)
