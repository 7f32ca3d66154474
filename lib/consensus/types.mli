(** Shared vocabulary of the consensus protocols. *)

type request = {
  req_id : int;       (** globally unique *)
  client : int;       (** submitting client id *)
  submitted : float;  (** virtual submission time, for latency accounting *)
  size : int;         (** serialized bytes *)
  op_tag : int;       (** opaque handle the application layer resolves to an
                          operation (chaincode call, coordination step...) *)
}

val request :
  req_id:int -> client:int -> submitted:float -> ?size:int -> ?op_tag:int -> unit -> request

type phase = Prepare_phase | Commit_phase

val digest_of_batch : request list -> int
(** Structural batch digest used as the value agreed upon.  (Real SHA-256
    hashing of batches is exercised by the ledger layer; consensus charges
    hash cost to the simulated clock instead — see DESIGN.md.)  Equal to
    [stable_hash] of ["batch:"] followed by the comma-separated request
    ids, hashed without building that string. *)

val chain_exec_root : root:int -> seq:int -> digest:int -> int
(** One step of a replica's executed-state chain: folds the batch digest
    executed at [seq] into the running [root], as
    [stable_hash (sprintf "ckpt:%d:%d:%d" root seq digest)]. *)

val batch_bytes : request list -> int
