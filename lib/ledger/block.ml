open Repro_crypto

type header = {
  height : int;
  parent : Sha256.digest;
  tx_root : Sha256.digest;
  state_root : Sha256.digest;
  timestamp : float;
}

type t = { header : header; txs : string list }

let zero = Sha256.digest_string "genesis-parent"

let header_bytes h =
  Printf.sprintf "%d|%s|%s|%s|%.6f" h.height
    (Sha256.to_hex h.parent) (Sha256.to_hex h.tx_root) (Sha256.to_hex h.state_root) h.timestamp

let hash t = Sha256.digest_string (header_bytes t.header)

let genesis state_root =
  {
    header =
      { height = 0; parent = zero; tx_root = Merkle.root []; state_root; timestamp = 0.0 };
    txs = [];
  }

(* The block after a parent whose header hash is already known. *)
let child ~parent_height ~parent_hash ~txs ~state_root ~timestamp =
  {
    header =
      {
        height = parent_height + 1;
        parent = parent_hash;
        tx_root = Merkle.root txs;
        state_root;
        timestamp;
      };
    txs;
  }

let next ~parent ~txs ~state_root ~timestamp =
  child ~parent_height:parent.header.height ~parent_hash:(hash parent) ~txs ~state_root ~timestamp

let verify_link ~parent ~child =
  child.header.height = parent.header.height + 1
  && Sha256.equal child.header.parent (hash parent)
  && Sha256.equal child.header.tx_root (Merkle.root child.txs)

let tx_proof t i = Merkle.prove t.txs i

let verify_tx t ~tx proof = Merkle.verify ~root:t.header.tx_root ~leaf:tx proof

module Chain = struct
  (* [append] only records what the block will hold; nothing in a
     simulation reads the chain back, so the tx root and header hash are
     computed on the first read instead.  [seal] turns the pending
     appends into blocks oldest first — each one's tx root, then its
     header hash, which the next one links to — exactly the blocks eager
     appends would have built.  [tip_hash] is the newest sealed block's
     header hash. *)
  type pending = { txs : string list; state_root : Sha256.digest; timestamp : float }

  type chain = {
    mutable blocks : t list; (* sealed, newest first *)
    mutable tip_hash : Sha256.digest;
    mutable pending : pending list; (* appended, not yet sealed; newest first *)
    mutable height : int; (* of the newest block, sealed or pending *)
  }

  let create ~state_root =
    let g = genesis state_root in
    { blocks = [ g ]; tip_hash = hash g; pending = []; height = 0 }

  let of_blocks = function
    | [] -> None
    | newest :: _ as blocks ->
        Some { blocks; tip_hash = hash newest; pending = []; height = newest.header.height }

  let seal_one c { txs; state_root; timestamp } =
    let parent_height = (List.hd c.blocks).header.height in
    let block = child ~parent_height ~parent_hash:c.tip_hash ~txs ~state_root ~timestamp in
    c.blocks <- block :: c.blocks;
    c.tip_hash <- hash block

  let seal c =
    match c.pending with
    | [] -> ()
    | pending ->
        List.iter (seal_one c) (List.rev pending);
        c.pending <- []

  let append c ~txs ~state_root ~timestamp =
    c.pending <- { txs; state_root; timestamp } :: c.pending;
    c.height <- c.height + 1

  let tip c =
    seal c;
    List.hd c.blocks

  let height c = c.height

  let at c h =
    seal c;
    List.find_opt (fun b -> b.header.height = h) c.blocks

  (* Recomputes every parent's hash from its header: the cached tip hash
     plays no part, so a forged block anywhere in the chain is caught. *)
  let validate c =
    seal c;
    let rec walk = function
      | [] | [ _ ] -> true
      | child :: (parent :: _ as rest) -> verify_link ~parent ~child && walk rest
    in
    walk c.blocks
end
