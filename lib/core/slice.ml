module Diff = Rfdet_mem.Diff

type t = {
  id : int;
  tid : int;
  mutable mods : Diff.t;
  time : Rfdet_util.Vclock.t;
  epoch : int;
  bytes : int;
  mutable freed : bool;
  mutable checksum : int;
  mutable verified : bool;
}

let set_mods t mods =
  t.mods <- mods;
  t.verified <- false

let free t =
  t.freed <- true;
  set_mods t Diff.empty

(* FNV-1a-style mixing confined to OCaml's 63-bit int range. *)
let mix h x = ((h lxor x) * 0x100000001b3) land max_int

(* [len] bytes of [s] from [off]: two 32-bit halves per 8-byte word,
   then the tail byte by byte. *)
let mix_bytes h s ~off ~len =
  let h = ref h in
  let i = ref 0 in
  while !i + 8 <= len do
    let w = String.get_int64_le s (off + !i) in
    h := mix !h (Int64.to_int (Int64.logand w 0xFFFFFFFFL));
    h := mix !h (Int64.to_int (Int64.shift_right_logical w 32));
    i := !i + 8
  done;
  while !i < len do
    h := mix !h (Char.code s.[off + !i]);
    incr i
  done;
  !h

let compute_checksum ~tid ~mods ~time =
  let h = ref (mix 0x27d4eb2f tid) in
  for i = 0 to Rfdet_util.Vclock.size ~c:time - 1 do
    h := mix !h (Rfdet_util.Vclock.get time i)
  done;
  let data = Diff.data mods in
  Diff.iter_runs mods ~f:(fun ~addr ~off ~len ->
      h := mix !h addr;
      h := mix_bytes !h data ~off ~len);
  !h

let checksum_valid t =
  t.freed || t.checksum = compute_checksum ~tid:t.tid ~mods:t.mods ~time:t.time

let verify t =
  t.verified
  ||
  let ok = checksum_valid t in
  t.verified <- ok;
  ok

let corrupt t =
  if not (Diff.is_empty t.mods) then begin
    let b = Bytes.of_string (Diff.data t.mods) in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    set_mods t (Diff.with_data t.mods (Bytes.unsafe_to_string b))
  end

let rederive t mods =
  compute_checksum ~tid:t.tid ~mods ~time:t.time = t.checksum
  && begin
       set_mods t mods;
       t.verified <- true;
       true
     end

let rehash t =
  t.checksum <- compute_checksum ~tid:t.tid ~mods:t.mods ~time:t.time

let make ~id ~tid ~mods ~time =
  {
    id;
    tid;
    mods;
    time;
    epoch = Rfdet_util.Vclock.get time tid;
    bytes = Diff.byte_count mods;
    freed = false;
    checksum = compute_checksum ~tid ~mods ~time;
    verified = false;
  }

let overhead_bytes = 64

let footprint t = overhead_bytes + t.bytes

let pp ppf t =
  Format.fprintf ppf "slice#%d tid=%d time=%a bytes=%d%s" t.id t.tid
    Rfdet_util.Vclock.pp t.time t.bytes
    (if t.freed then " (freed)" else "")
