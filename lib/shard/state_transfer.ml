open Repro_crypto
open Repro_ledger

(* [content_root] is the root of exactly [entries], built with them and
   forced at most once: entries are immutable, so every verification of
   the same package would recompute the same value.  [tamper] changes the
   entries and so builds a new package with a fresh [content_root].
   [size] is derived from the entries the same way. *)
type package = {
  entries : (string * State.value) list;
  root : Sha256.digest;
  content_root : Sha256.digest Lazy.t;
  size : int Lazy.t;
}

let size_of entries =
  List.fold_left
    (fun acc (k, v) -> acc + String.length k + String.length v.State.data + 12)
    64 entries

let make entries ~root =
  {
    entries;
    root;
    content_root = lazy (State.root (State.restore entries));
    size = lazy (size_of entries);
  }

let pack state = make (State.snapshot state) ~root:(State.root state)

(* [writes] is the state's write count when [last] was packed.  A package
   is immutable and describes the state as it was then, so while the
   count has not moved it describes the state as it is now. *)
type server = { state : State.t; mutable last : (int * package) option }

let server state = { state; last = None }

let serve s =
  let writes = State.writes s.state in
  match s.last with
  | Some (w, p) when w = writes -> p
  | Some _ | None ->
      let p = pack s.state in
      s.last <- Some (writes, p);
      p

let claimed_root p = p.root

let size_bytes p = Lazy.force p.size

let tamper p ~key ~value =
  let entries =
    if List.exists (fun (k, _) -> k = key) p.entries then
      List.map
        (fun (k, v) -> if k = key then (k, { v with State.data = value }) else (k, v))
        p.entries
    else (key, { State.data = value; version = 0 }) :: p.entries
  in
  make entries ~root:p.root

let verify p ~expected_root =
  let actual = Lazy.force p.content_root in
  if not (Sha256.equal actual p.root) then Error "package root does not match its content"
  else if not (Sha256.equal actual expected_root) then
    Error "snapshot disagrees with the committee's state root"
  else Ok ()

let verify_and_restore p ~expected_root =
  Result.map (fun () -> State.restore p.entries) (verify p ~expected_root)

let transfer_time topology p = Repro_sim.Topology.transfer_time topology ~bytes:(size_bytes p)
