(* Deterministic views over hash tables.

   [Hashtbl.iter]/[Hashtbl.fold] visit buckets in an order that depends on
   the hash function, table sizing history, and resize schedule — none of
   which the simulation seed controls.  Every iteration in library code must
   go through this module (enforced by ahl_lint rule R1) so that the visit
   order is a pure function of the key set. *)

let bindings ~compare tbl =
  (* The one sanctioned raw fold: the sort below erases whatever order the
     buckets produced.  ahl_lint: allow R1 *)
  let raw = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) raw

let keys ~compare tbl = List.map fst (bindings ~compare tbl)

let iter ~compare f tbl = List.iter (fun (k, v) -> f k v) (bindings ~compare tbl)

let fold ~compare f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (bindings ~compare tbl)

let int_pair (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let int_triple (a1, b1, c1) (a2, b2, c2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c
  else
    let c = Int.compare b1 b2 in
    if c <> 0 then c else Int.compare c1 c2

(* FNV-1a over the bytes of an explicit rendering: unlike the polymorphic
   [Hashtbl.hash] it replaces (ahl_lint rule R8), the result depends only
   on the bytes, never on value layout or the OCaml version.

   The state is a native int, so hashing allocates nothing.  That is the
   64-bit FNV-1a of the reference definition, bit for bit in the 62 bits
   we keep: xor by a byte and multiplication modulo a power of two both
   leave the low bits of the result depending only on the low bits of the
   operands, so computing modulo 2^63 (OCaml's [int]) instead of 2^64
   changes nothing below bit 62.  The basis is the 64-bit offset basis
   reduced the same way. *)
type fnv = int

let fnv_prime = 0x100000001b3

(* 0xcbf29ce484222325 with its top two bits cleared. *)
let fnv_init = 0x0bf29ce484222325

let fnv_byte h b = (h lxor b) * fnv_prime

let fnv_string s h =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code s.[i])
  done;
  !h

(* The digits of [n <= 0] as [%d] prints [-n], most significant first.
   Working on the non-positive side covers [min_int], whose negation
   overflows. *)
let rec fnv_digits h n =
  if n > -10 then fnv_byte h (48 - n) else fnv_byte (fnv_digits h (n / 10)) (48 - (n mod 10))

let fnv_int n h = if n < 0 then fnv_digits (fnv_byte h 45) n else fnv_digits h (-n)

(* Fold to a non-negative OCaml int so it slots in anywhere a
   [Hashtbl.hash] result did. *)
let fnv_finish h = h land 0x3fffffffffffffff

let stable_hash s = fnv_finish (fnv_string s fnv_init)

module Int_tbl = struct
  (* Keys are request ids and the like: a multiply-xorshift spreads
     strided ids over the buckets without a call into the runtime's
     polymorphic hash. *)
  include Hashtbl.Make (struct
    type t = int

    let equal = Int.equal

    let hash k =
      let h = k * 0x2545f4914f6cdd1d in
      (h lxor (h lsr 29)) land max_int
  end)

  let iter_sorted f t =
    (* Bucket order never escapes: sorted before the first [f]. *)
    let raw = fold (fun k v acc -> (k, v) :: acc) t [] in
    List.iter (fun (k, v) -> f k v) (List.sort (fun (a, _) (b, _) -> Int.compare a b) raw)
end
