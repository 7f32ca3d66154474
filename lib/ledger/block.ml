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
  (* [tip_hash] is the tip's header hash, computed once when the tip is
     appended, so the next append links to it without re-hashing. *)
  type chain = { mutable blocks : t list; (* newest first *) mutable tip_hash : Sha256.digest }

  let create ~state_root =
    let g = genesis state_root in
    { blocks = [ g ]; tip_hash = hash g }

  let of_blocks = function
    | [] -> None
    | newest :: _ as blocks -> Some { blocks; tip_hash = hash newest }

  let tip c = List.hd c.blocks

  let append c ~txs ~state_root ~timestamp =
    let block =
      child ~parent_height:(tip c).header.height ~parent_hash:c.tip_hash ~txs ~state_root
        ~timestamp
    in
    c.blocks <- block :: c.blocks;
    c.tip_hash <- hash block;
    block

  let height c = (tip c).header.height

  let at c h = List.find_opt (fun b -> b.header.height = h) c.blocks

  (* Recomputes every parent's hash from its header: the cached tip hash
     plays no part, so a forged block anywhere in the chain is caught. *)
  let validate c =
    let rec walk = function
      | [] | [ _ ] -> true
      | child :: (parent :: _ as rest) -> verify_link ~parent ~child && walk rest
    in
    walk c.blocks
end
