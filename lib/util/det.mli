(** Deterministic views over hash tables.

    [Hashtbl] iteration order is an artifact of hashing and resize history,
    so any consensus or simulation state assembled by [Hashtbl.iter]/[fold]
    is a silent nondeterminism hazard.  Library code must use these sorted
    wrappers instead; ahl_lint rule R1 bans the raw iterators under [lib/]. *)

val bindings : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key under [compare]. *)

val keys : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list
(** All keys, sorted under [compare]. *)

val iter : compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter ~compare f tbl] applies [f] to every binding in sorted key order. *)

val fold :
  compare:('k -> 'k -> int) -> ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** [fold ~compare f tbl init] folds over bindings in sorted key order. *)

val int_pair : int * int -> int * int -> int
(** Lexicographic comparator for [int * int] keys. *)

val int_triple : int * int * int -> int * int * int -> int
(** Lexicographic comparator for [int * int * int] keys. *)

val stable_hash : string -> int
(** FNV-1a over the bytes of an explicit rendering, folded to a
    non-negative [int].  The deterministic replacement for polymorphic
    [Hashtbl.hash] in tag derivation (ahl_lint rule R8): the result is a
    pure function of the string across runs, layouts, and OCaml
    versions. *)

(** {2 Streaming FNV-1a}

    [stable_hash] split into steps, so a tag can hash its rendering piece
    by piece without building the string:
    [fnv_init |> fnv_string "a:" |> fnv_int n |> fnv_finish] equals
    [stable_hash (Printf.sprintf "a:%d" n)].  Nothing here allocates. *)

type fnv

val fnv_init : fnv

val fnv_string : string -> fnv -> fnv
(** Feed the bytes of a string. *)

val fnv_int : int -> fnv -> fnv
(** Feed the decimal digits of an int exactly as [%d] prints them. *)

val fnv_finish : fnv -> int
(** The non-negative result, as {!stable_hash} returns it. *)

(** Hash tables keyed on [int] with [Int.equal] and a hash that never calls
    the polymorphic [Hashtbl.hash].  Only sorted iteration is exposed, so
    a visit order never depends on bucket layout. *)
module Int_tbl : sig
  type 'v t

  val create : int -> 'v t

  val length : 'v t -> int

  val mem : 'v t -> int -> bool

  val find_opt : 'v t -> int -> 'v option

  val replace : 'v t -> int -> 'v -> unit

  val remove : 'v t -> int -> unit

  val reset : 'v t -> unit

  val iter_sorted : (int -> 'v -> unit) -> 'v t -> unit
  (** Every binding, in increasing key order. *)
end
