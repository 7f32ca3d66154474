type request = {
  req_id : int;
  client : int;
  submitted : float;
  size : int;
  op_tag : int;
}

let request ~req_id ~client ~submitted ?(size = 200) ?(op_tag = 0) () =
  { req_id; client; submitted; size; op_tag }

type phase = Prepare_phase | Commit_phase

module Det = Repro_util.Det

let digest_of_batch batch =
  let rec ids h = function
    | [] -> h
    | [ r ] -> Det.fnv_int r.req_id h
    | r :: rest -> ids (h |> Det.fnv_int r.req_id |> Det.fnv_string ",") rest
  in
  Det.fnv_finish (ids (Det.fnv_string "batch:" Det.fnv_init) batch)

let chain_exec_root ~root ~seq ~digest =
  Det.fnv_init |> Det.fnv_string "ckpt:" |> Det.fnv_int root |> Det.fnv_string ":"
  |> Det.fnv_int seq |> Det.fnv_string ":" |> Det.fnv_int digest |> Det.fnv_finish

let batch_bytes batch = List.fold_left (fun acc r -> acc + r.size) 0 batch
