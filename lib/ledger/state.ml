open Repro_crypto

type value = { data : string; version : int }

(* [snap] and [root_memo] cache the sorted snapshot and its Merkle root.
   Every write goes through [put]/[delete], which clear both and bump
   [writes], so a cached value always describes the current table and
   an unchanged [writes] means an unchanged table. *)
type t = {
  table : (string, value) Hashtbl.t;
  mutable snap : (string * value) list option;
  mutable root_memo : Sha256.digest option;
  mutable writes : int;
}

let create () = { table = Hashtbl.create 256; snap = None; root_memo = None; writes = 0 }

let invalidate t =
  t.snap <- None;
  t.root_memo <- None;
  t.writes <- t.writes + 1

let writes t = t.writes

let get t key = Hashtbl.find_opt t.table key

let get_data t key = Option.map (fun v -> v.data) (get t key)

let put t key data =
  let version = match get t key with Some v -> v.version + 1 | None -> 0 in
  Hashtbl.replace t.table key { data; version };
  invalidate t

let delete t key =
  Hashtbl.remove t.table key;
  invalidate t

let mem t key = Hashtbl.mem t.table key

let keys t = Repro_util.Det.keys ~compare:String.compare t.table

let snapshot t =
  match t.snap with
  | Some s -> s
  | None ->
      let s = Repro_util.Det.bindings ~compare:String.compare t.table in
      t.snap <- Some s;
      s

let leaf (k, v) = String.concat "" [ k; "="; v.data; "@"; string_of_int v.version ]

let root t =
  match t.root_memo with
  | Some r -> r
  | None ->
      let r = Merkle.root (List.map leaf (snapshot t)) in
      t.root_memo <- Some r;
      r

let restore entries =
  let t = create () in
  List.iter (fun (k, v) -> Hashtbl.replace t.table k v) entries;
  t

let equal a b =
  Hashtbl.length a.table = Hashtbl.length b.table
  && List.for_all2
       (fun (ka, va) (kb, vb) -> ka = kb && va.data = vb.data && va.version = vb.version)
       (snapshot a) (snapshot b)
