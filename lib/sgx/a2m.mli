(** Attested append-only memory (Chun et al., SOSP 2007) — the trusted log
    that removes equivocation from PBFT.

    The enclave keeps one log per consensus message type.  Before a replica
    may send a message, it appends the message digest to the corresponding
    log at the message's sequence slot and attaches the signed append proof;
    the enclave refuses to attest two different digests for the same
    (log, slot), so a Byzantine host cannot tell different peers different
    stories.  This is what lets AHL run with N = 2f + 1 (Section 4.1).

    The module also implements the Appendix-A recovery procedure: after a
    host-forced restart with (possibly stale) sealed state, the enclave
    refuses all appends until it has estimated an upper bound HM on the
    highest slot it could have attested before the crash, and has been
    shown a stable checkpoint at or beyond HM. *)

type t

type proof = {
  signer : int;
  log : int;
  slot : int;
  digest_tag : int;
  signature : Repro_crypto.Keys.signature;
}

type snapshot
(** Sealable image of the log heads. *)

val create : Enclave.t -> watermark_window:int -> t
(** [watermark_window] is L, the preset distance between low and high
    watermarks used to bound HM during recovery. *)

val append : t -> log:int -> slot:int -> digest_tag:int -> proof option
(** Attest [digest_tag] at [(log, slot)].  Charges the AHL-append cost.
    Returns [None] — refusing to attest — if a *different* digest is
    already attested there (equivocation attempt) or if the enclave is
    recovering.  Re-appending the same digest returns a fresh proof. *)

val lookup : t -> log:int -> slot:int -> int option

val proof_tag : signer:int -> log:int -> slot:int -> digest_tag:int -> int
(** The statement an append proof signs:
    [stable_hash (sprintf "a2m:%d:%d:%d:%d" signer log slot digest_tag)],
    hashed without building the string. *)

val verify : Repro_crypto.Keys.keystore -> proof -> bool
(** Pure proof check (callers charge verification cost to their own CPU). *)

val truncate_below : t -> slot:int -> unit
(** Garbage-collect entries below a stable checkpoint. *)

val seal_state : t -> snapshot Sealing.sealed
(** Seal the current log heads for crash recovery. *)

val restart : t -> resume_with:snapshot Sealing.sealed option -> unit
(** Host restarts the enclave and supplies sealed state of its choosing —
    possibly stale (rollback attack) or absent.  The enclave loads what it
    can and enters recovery mode. *)

val is_recovering : t -> bool

val highest_attested : t -> int
(** Highest slot attested in any log (H in Appendix A). *)

(** {2 Appendix-A recovery} *)

val record_peer_checkpoint : t -> peer:int -> ckp:int -> unit
(** Feed one peer's answer to the "what is your last stable checkpoint"
    query.  Duplicate peers keep their latest answer; the enclave's own id
    is ignored. *)

val estimate_hm : t -> f:int -> int option
(** With at least [f + 1] distinct peer responses, returns
    HM = L + ckpM where ckpM is the (f+1)-th smallest response — an upper
    bound on any slot the pre-crash enclave could have attested (see the
    quorum-intersection argument in Appendix A).  [None] if not enough
    responses yet. *)

val finish_recovery : t -> f:int -> stable_checkpoint:int -> bool
(** Present a stable checkpoint; recovery completes (and appends resume)
    only if it is at or beyond HM. *)
