(* R1 fixture: sequence views of a table also visit buckets in hash
   order; every binding below must fire when linted under a lib/ path. *)

let pairs tbl = List.of_seq (Hashtbl.to_seq tbl)

let keys tbl = List.of_seq (Hashtbl.to_seq_keys tbl)

let values tbl = List.of_seq (Hashtbl.to_seq_values tbl)
