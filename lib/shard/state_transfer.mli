(** Shard state transfer for epoch transitions (Section 5.3).

    A node joining a committee fetches the shard's state from current
    members and must verify it before serving: the package carries the
    serialized snapshot and the state root its block headers commit to;
    the joiner recomputes the root and compares.  A Byzantine member
    serving a doctored snapshot is caught immediately. *)

type package

val pack : Repro_ledger.State.t -> package
(** What a serving member sends: snapshot + claimed root. *)

type server
(** Serves packages of one state. *)

val server : Repro_ledger.State.t -> server

val serve : server -> package
(** The package {!pack} would build now.  While the state takes no
    write, every call returns the same package, so its content root is
    computed by the first {!verify} and reused by every later one.
    Packages made by {!tamper} are never kept. *)

val claimed_root : package -> Repro_crypto.Sha256.digest

val size_bytes : package -> int
(** Serialized size estimate, for transfer-time modeling. *)

val tamper : package -> key:string -> value:string -> package
(** Byzantine server: alter one entry — or inject a foreign one — without
    updating the root, so the package no longer hashes to what it claims. *)

val verify : package -> expected_root:Repro_crypto.Sha256.digest -> (unit, string) result
(** The joiner's check: the package's own integrity (root matches content)
    and agreement with the root learned from the committee's chain.  The
    content root is computed from the entries on the first check of a
    package and remembered for later checks of the same package. *)

val verify_and_restore :
  package -> expected_root:Repro_crypto.Sha256.digest -> (Repro_ledger.State.t, string) result
(** {!verify}, then a fresh state holding the package's entries. *)

val transfer_time : Repro_sim.Topology.t -> package -> float
(** Seconds to pull the package over one link of the topology. *)
