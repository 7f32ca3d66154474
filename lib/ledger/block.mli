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

  val append : chain -> txs:string list -> state_root:Repro_crypto.Sha256.digest -> timestamp:float -> t
  (** Links to the tip by its header hash, computed once when the tip was
      appended, and hashes the new block's header once. *)

  val tip : chain -> t

  val height : chain -> int

  val at : chain -> int -> t option

  val validate : chain -> bool
  (** Recheck every link and every tx root; the integrity test for
      rollback/tampering scenarios. *)
end
