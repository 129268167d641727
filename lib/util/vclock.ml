(* Every function is annotated at [t = int array]: left to inference the
   component compares would be polymorphic, i.e. one C call
   ([caml_lessequal] and friends) per clock word. *)
type t = int array

let create n : t =
  if n <= 0 then invalid_arg "Vclock.create: n <= 0";
  Array.make n 0

let size ~(c : t) = Array.length c

let copy (c : t) : t = Array.copy c

let get (c : t) i = c.(i)

let set (c : t) i v = c.(i) <- v

let tick (c : t) i =
  c.(i) <- c.(i) + 1;
  c.(i)

let join (dst : t) (src : t) =
  if Array.length dst <> Array.length src then
    invalid_arg "Vclock.join: size mismatch";
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let joined a b =
  let c = copy a in
  join c b;
  c

let leq (a : t) (b : t) =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vclock.leq: size mismatch";
  let i = ref 0 in
  while !i < n && a.(!i) <= b.(!i) do
    incr i
  done;
  !i = n

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

(* One pass: every component [<=] and at least one [<], which for clocks
   of equal size is [leq a b && not (equal a b)]. *)
let lt (a : t) (b : t) =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Vclock.leq: size mismatch";
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i < n
  && a.(!i) < b.(!i)
  &&
  (incr i;
   while !i < n && a.(!i) <= b.(!i) do
     incr i
   done;
   !i = n)

let min_into (dst : t) (src : t) =
  if Array.length dst <> Array.length src then
    invalid_arg "Vclock.min_into: size mismatch";
  for i = 0 to Array.length dst - 1 do
    if src.(i) < dst.(i) then dst.(i) <- src.(i)
  done

let to_list (c : t) = Array.to_list c

let of_list l : t =
  match l with
  | [] -> invalid_arg "Vclock.of_list: empty"
  | _ -> Array.of_list l

let pp ppf (c : t) =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (Array.to_list c)
