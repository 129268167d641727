type cfg = { threads : int; scale : float; input_seed : int64 }

let default_cfg = { threads = 4; scale = 1.0; input_seed = 42L }

type t = {
  name : string;
  suite : string;
  description : string;
  main : cfg -> unit -> unit;
}

let scaled cfg n = max 1 (int_of_float (float_of_int n *. cfg.scale))

let reporting ~name ~suite ~description run =
  let last = ref None in
  let main cfg () = last := Some (run ~seed:cfg.input_seed) in
  ({ name; suite; description; main }, fun () -> Option.get !last)
