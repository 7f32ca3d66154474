(* R1 fixture: sorted views and building a table from a sequence are
   deterministic; must stay quiet under a lib/ path. *)

let pairs tbl = Repro_util.Det.bindings ~compare:Int.compare tbl

let keys tbl = Repro_util.Det.keys ~compare:Int.compare tbl

let of_list l = Hashtbl.of_seq (List.to_seq l)
