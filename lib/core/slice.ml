type t = {
  id : int;
  tid : int;
  mutable mods : Rfdet_mem.Diff.t;
  time : Rfdet_util.Vclock.t;
  epoch : int;
  bytes : int;
  mutable freed : bool;
  mutable checksum : int;
}

let free t =
  t.freed <- true;
  t.mods <- Rfdet_mem.Diff.empty

(* FNV-1a-style mixing confined to OCaml's 63-bit int range. *)
let mix h x = ((h lxor x) * 0x100000001b3) land max_int

let mix_string h s =
  let n = String.length s in
  let h = ref h in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = String.get_int64_le s !i in
    h := mix !h (Int64.to_int (Int64.logand w 0xFFFFFFFFL));
    h := mix !h (Int64.to_int (Int64.shift_right_logical w 32));
    i := !i + 8
  done;
  while !i < n do
    h := mix !h (Char.code s.[!i]);
    incr i
  done;
  !h

let compute_checksum ~tid ~mods ~time =
  let h = ref (mix 0x27d4eb2f tid) in
  for i = 0 to Rfdet_util.Vclock.size ~c:time - 1 do
    h := mix !h (Rfdet_util.Vclock.get time i)
  done;
  List.iter
    (fun (r : Rfdet_mem.Diff.run) ->
      h := mix !h r.addr;
      h := mix_string !h r.data)
    mods;
  !h

let checksum_valid t =
  t.freed || t.checksum = compute_checksum ~tid:t.tid ~mods:t.mods ~time:t.time

let rehash t =
  t.checksum <- compute_checksum ~tid:t.tid ~mods:t.mods ~time:t.time

let make ~id ~tid ~mods ~time =
  {
    id;
    tid;
    mods;
    time;
    epoch = Rfdet_util.Vclock.get time tid;
    bytes = Rfdet_mem.Diff.byte_count mods;
    freed = false;
    checksum = compute_checksum ~tid ~mods ~time;
  }

let overhead_bytes = 64

let footprint t = overhead_bytes + t.bytes

let pp ppf t =
  Format.fprintf ppf "slice#%d tid=%d time=%a bytes=%d%s" t.id t.tid
    Rfdet_util.Vclock.pp t.time t.bytes
    (if t.freed then " (freed)" else "")
