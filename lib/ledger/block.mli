(** Blocks and the hash-chained ledger.

    Each committee maintains one chain over its shard.  Headers commit to
    the transaction batch (Merkle root over serialized transactions) and
    to the post-state root, and chain by SHA-256 parent pointers. *)

type header = {
  height : int;
  parent : Repro_crypto.Sha256.digest;
  tx_root : Repro_crypto.Sha256.digest;
  state_root : Repro_crypto.Sha256.digest;
  timestamp : float;
}

type t = { header : header; txs : string list (* serialized transactions *) }

val hash : t -> Repro_crypto.Sha256.digest
(** SHA-256 over the serialized header, recomputed on every call. *)

val genesis : Repro_crypto.Sha256.digest -> t
(** [genesis state_root] at height 0 with a zero parent. *)

val next :
  parent:t -> txs:string list -> state_root:Repro_crypto.Sha256.digest -> timestamp:float -> t

val verify_link : parent:t -> child:t -> bool
(** Height increments and the child's parent pointer matches. *)

val tx_proof : t -> int -> Repro_crypto.Merkle.proof
(** Inclusion proof for transaction [i] against [header.tx_root]. *)

val verify_tx : t -> tx:string -> Repro_crypto.Merkle.proof -> bool

(** Append-only chain with integrity checking. *)
module Chain : sig
  type chain

  val create : state_root:Repro_crypto.Sha256.digest -> chain

  val of_blocks : t list -> chain option
  (** Adopt blocks received from a peer, newest first ([None] if empty).
      Nothing is checked: run {!validate} before trusting them. *)

  val append :
    chain -> txs:string list -> state_root:Repro_crypto.Sha256.digest -> timestamp:float -> unit
  (** Records the next block without hashing anything.  The first read
      ({!tip}, {!at}, {!validate}) seals every pending block in order —
      its tx root, then its header hash, which the next block links to —
      so the blocks are exactly those {!next} would build. *)

  val tip : chain -> t
  (** Seals pending blocks first. *)

  val height : chain -> int
  (** Counts pending blocks; hashes nothing. *)

  val at : chain -> int -> t option
  (** Seals pending blocks first. *)

  val validate : chain -> bool
  (** Seals pending blocks, then rechecks every link and every tx root;
      the integrity test for rollback/tampering scenarios. *)
end
