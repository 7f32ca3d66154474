(** Versioned key-value blockchain state (Hyperledger-style world state).

    Keys and values are strings; every write bumps the key's version so
    tests can assert serializability.  A Merkle root over the sorted
    key-value pairs anchors the state for block headers and for epoch-
    transition state transfer (Section 5.3). *)

type t

type value = { data : string; version : int }

val create : unit -> t

val get : t -> string -> value option

val get_data : t -> string -> string option

val put : t -> string -> string -> unit

val delete : t -> string -> unit

val mem : t -> string -> bool

val writes : t -> int
(** How many {!put}s and {!delete}s this state has taken: equal counts
    on the same state mean nothing changed in between. *)

val keys : t -> string list
(** Sorted. *)

val root : t -> Repro_crypto.Sha256.digest
(** Merkle root over sorted (key, value) leaves.  Memoised: computed once
    per state version, and cleared by every {!put} and {!delete}. *)

val snapshot : t -> (string * value) list
(** Sorted association list; the state-transfer payload.  Memoised and
    cleared like {!root}. *)

val restore : (string * value) list -> t
(** A fresh state with empty memos: its {!root} is recomputed from the
    restored entries, never carried over from whoever packed them. *)

val equal : t -> t -> bool
(** Same keys, data, and versions. *)
