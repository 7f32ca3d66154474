type proof = { leaf_index : int; path : (Sha256.digest * [ `Left | `Right ]) list }

let empty_root = Sha256.digest_string "\x02merkle-empty"

let leaf_hash s = Sha256.digest_concat [ "\x00"; s ]

let node_hash l r = Sha256.digest_concat [ "\x01"; (l : Sha256.digest :> string); (r : Sha256.digest :> string) ]

(* Reduce one level: pair up siblings, promote an unpaired last node. *)
let level_up nodes =
  let rec pair acc = function
    | [] -> List.rev acc
    | [ last ] -> List.rev (last :: acc)
    | l :: r :: rest -> pair (node_hash l r :: acc) rest
  in
  pair [] nodes

(* Same tree as repeated [level_up], reduced in place in one array: node
   [i] of the next level overwrites slot [i], which the pairs [2i, 2i+1]
   have already been read from. *)
let root leaves =
  match leaves with
  | [] -> empty_root
  | _ ->
      let nodes = Array.of_list (List.map leaf_hash leaves) in
      let n = ref (Array.length nodes) in
      while !n > 1 do
        let half = !n / 2 in
        for i = 0 to half - 1 do
          nodes.(i) <- node_hash nodes.(2 * i) nodes.((2 * i) + 1)
        done;
        if !n land 1 = 1 then nodes.(half) <- nodes.(!n - 1);
        n := (!n + 1) / 2
      done;
      nodes.(0)

exception Leaf_out_of_range of { index : int; leaves : int }

let prove leaves i =
  let n = List.length leaves in
  if i < 0 || i >= n then raise (Leaf_out_of_range { index = i; leaves = n });
  let rec walk nodes idx acc =
    match nodes with
    | [ _ ] -> List.rev acc
    | _ ->
        let arr = Array.of_list nodes in
        let len = Array.length arr in
        let sibling =
          if idx mod 2 = 0 then if idx + 1 < len then Some (arr.(idx + 1), `Right) else None
          else Some (arr.(idx - 1), `Left)
        in
        let acc = match sibling with Some s -> s :: acc | None -> acc in
        walk (level_up nodes) (idx / 2) acc
  in
  { leaf_index = i; path = walk (List.map leaf_hash leaves) i [] }

let verify ~root:expected ~leaf proof =
  let digest =
    List.fold_left
      (fun acc (sibling, side) ->
        match side with
        | `Right -> node_hash acc sibling
        | `Left -> node_hash sibling acc)
      (leaf_hash leaf) proof.path
  in
  Sha256.equal digest expected
