module Trace = Rfdet_check.Trace

let magic = "RFDJ"

type header = Trace.header

type trailer = {
  signature : string;
  outputs_checksum : string;
  ops : int;
  sim_time : int;
  decisions : int;
  threads_made : int;
  profile_fnv : int64;
}

(* ---------- FNV-1a 64 ---------- *)

let fnv_prime = 0x100000001b3L

let fnv_offset = 0xcbf29ce484222325L

let fnv64_update h s lo hi =
  let h = ref h in
  for i = lo to hi - 1 do
    h :=
      Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let fnv64 s = fnv64_update fnv_offset s 0 (String.length s)

(* ---------- varints (unsigned LEB128) ---------- *)

let add_varint b n =
  if n < 0 then invalid_arg "Journal: negative varint";
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

(* ---------- recording ---------- *)

let batch_size = 4096

type writer = {
  oc : out_channel;
  scratch : Buffer.t;
  mutable seq : int;
  mutable pending : int list;  (* reversed *)
  mutable npending : int;
  mutable total : int;
  mutable dfnv : int64;  (* running FNV over all 'D' payloads *)
  mutable closed : bool;
}

let write_frame w ~tag ~payload =
  let b = w.scratch in
  Buffer.clear b;
  Buffer.add_char b tag;
  add_varint b w.seq;
  add_varint b (String.length payload);
  Buffer.add_string b payload;
  let body = Buffer.contents b in
  output_string w.oc body;
  let cb = Bytes.create 8 in
  Bytes.set_int64_le cb 0 (fnv64 body);
  output_bytes w.oc cb;
  w.seq <- w.seq + 1

let trailer_payload (t : trailer) =
  Trace.fields_to_string
    [
      ("signature", t.signature);
      ("outputs-checksum", t.outputs_checksum);
      ("ops", string_of_int t.ops);
      ("sim-time", string_of_int t.sim_time);
      ("decisions", string_of_int t.decisions);
      ("threads", string_of_int t.threads_made);
      ("profile-fnv", Printf.sprintf "%Lx" t.profile_fnv);
    ]

let create ~path header =
  let oc = open_out_bin path in
  output_string oc magic;
  let w =
    {
      oc;
      scratch = Buffer.create 256;
      seq = 0;
      pending = [];
      npending = 0;
      total = 0;
      dfnv = fnv_offset;
      closed = false;
    }
  in
  write_frame w ~tag:'H' ~payload:(Trace.header_to_string header);
  flush oc;
  w

let flush_batch w =
  if w.npending > 0 then begin
    let b = Buffer.create ((w.npending * 2) + 4) in
    add_varint b w.npending;
    List.iter (add_varint b) (List.rev w.pending);
    let payload = Buffer.contents b in
    w.total <- w.total + w.npending;
    w.pending <- [];
    w.npending <- 0;
    w.dfnv <- fnv64_update w.dfnv payload 0 (String.length payload);
    write_frame w ~tag:'D' ~payload;
    let sb = Buffer.create 12 in
    add_varint sb w.total;
    Buffer.add_int64_le sb w.dfnv;
    write_frame w ~tag:'S' ~payload:(Buffer.contents sb);
    (* one batch + its marker reach the disk together: the marker is the
       crash-consistent recovery point *)
    flush w.oc
  end

let add w tid =
  if w.closed then invalid_arg "Journal.add: writer is closed";
  w.pending <- tid :: w.pending;
  w.npending <- w.npending + 1;
  if w.npending >= batch_size then flush_batch w

let written w = w.total + w.npending

let finish w trailer =
  if w.closed then invalid_arg "Journal.finish: writer is closed";
  flush_batch w;
  write_frame w ~tag:'T' ~payload:(trailer_payload trailer);
  w.closed <- true;
  close_out w.oc

let abort w =
  if not w.closed then begin
    flush_batch w;
    w.closed <- true;
    close_out w.oc
  end

(* ---------- scanning ---------- *)

type scan =
  | Complete of { header : header; decisions : int array; trailer : trailer }
  | Torn of {
      header : header;
      decisions : int array;
      synced : int;
      offset : int;
      reason : string;
    }
  | Corrupt of { frame : int; offset : int; reason : string }

(* data ran out at this absolute offset — a candidate tear *)
exception Truncated_at of int * string

(* structural damage inside verified bytes — corruption *)
exception Bad of string

let trailer_of_payload payload =
  let kv = Trace.fields_of_string payload in
  let get conv key = Trace.field ~what:"trailer" kv key conv in
  let int = get int_of_string_opt in
  {
    signature = get Option.some "signature";
    outputs_checksum = get Option.some "outputs-checksum";
    ops = int "ops";
    sim_time = int "sim-time";
    decisions = int "decisions";
    threads_made = int "threads";
    profile_fnv = get (fun v -> Int64.of_string_opt ("0x" ^ v)) "profile-fnv";
  }

(* a growing int array for the decision stream (journals can carry
   millions of decisions; lists would be wasteful) *)
type dyn = { mutable a : int array; mutable len : int }

let dyn_create () = { a = Array.make 1024 0; len = 0 }

let dyn_push d v =
  if d.len = Array.length d.a then begin
    let a' = Array.make (2 * d.len) 0 in
    Array.blit d.a 0 a' 0 d.len;
    d.a <- a'
  end;
  d.a.(d.len) <- v;
  d.len <- d.len + 1

let dyn_contents d = Array.sub d.a 0 d.len

(* carries an already-built [Corrupt] out of the scan loop *)
exception Bad_frame of scan

let scan_string s =
  let n = String.length s in
  if n < 4 || String.sub s 0 4 <> magic then
    Corrupt { frame = 0; offset = 0; reason = "bad magic (not an rfdet journal)" }
  else begin
    let pos = ref 4 in
    let frame = ref 0 in
    let header = ref None in
    let trailer = ref None in
    let decisions = dyn_create () in
    let synced = ref 0 in
    let dfnv = ref fnv_offset in
    let read_byte what =
      if !pos >= n then raise (Truncated_at (!pos, "torn mid-" ^ what));
      let c = s.[!pos] in
      incr pos;
      c
    in
    let read_varint what =
      let rec go shift acc count =
        if count > 9 then raise (Bad ("overlong varint in " ^ what));
        let c = Char.code (read_byte what) in
        let acc = acc lor ((c land 0x7f) lsl shift) in
        if c land 0x80 = 0 then acc else go (shift + 7) acc (count + 1)
      in
      go 0 0 0
    in
    (* decode one payload-embedded varint without the truncation path:
       the payload is complete and checksummed, so running out of bytes
       here is corruption, not a tear *)
    let payload_varint ~payload p what =
      let rec go shift acc count pp =
        if count > 9 then raise (Bad ("overlong varint in " ^ what));
        if pp >= String.length payload then
          raise (Bad ("malformed " ^ what ^ " (truncated varint)"));
        let c = Char.code payload.[pp] in
        let acc = acc lor ((c land 0x7f) lsl shift) in
        if c land 0x80 = 0 then (acc, pp + 1)
        else go (shift + 7) acc (count + 1) (pp + 1)
      in
      go 0 0 0 p
    in
    try
      while !pos < n && !trailer = None do
        let start = !pos in
        let corrupt reason = Corrupt { frame = !frame; offset = start; reason } in
        let tag = read_byte "frame tag" in
        let seq = read_varint "frame sequence" in
        let len = read_varint "frame length" in
        if len > n - !pos then
          raise (Truncated_at (start, "torn mid-frame (payload runs past EOF)"));
        let payload = String.sub s !pos len in
        pos := !pos + len;
        if n - !pos < 8 then
          raise (Truncated_at (start, "torn mid-frame (checksum missing)"));
        let stored = String.get_int64_le s !pos in
        pos := !pos + 8;
        let computed = fnv64_update fnv_offset s start (!pos - 8) in
        if stored <> computed then
          raise
            (Bad_frame
               (corrupt
                  (Printf.sprintf "checksum mismatch (stored %Lx, computed %Lx)"
                     stored computed)));
        if seq <> !frame then
          raise
            (Bad_frame
              (corrupt
                 (Printf.sprintf
                    "frame sequence %d where %d was expected (duplicated or \
                     dropped frame)"
                    seq !frame)));
        (match (tag, !header) with
        | 'H', None -> (
          match Trace.header_of_string payload with
          | Ok h -> header := Some h
          | Error e -> raise (Bad e))
        | 'H', Some _ -> raise (Bad "duplicate header frame")
        | _, None -> raise (Bad "journal does not start with a header frame")
        | 'D', Some _ ->
          let count, p = payload_varint ~payload 0 "decision batch" in
          let p = ref p in
          for _ = 1 to count do
            let tid, p' = payload_varint ~payload !p "decision batch" in
            dyn_push decisions tid;
            p := p'
          done;
          if !p <> len then raise (Bad "malformed decision batch (extra bytes)");
          dfnv := fnv64_update !dfnv payload 0 len
        | 'S', Some _ ->
          let count, p = payload_varint ~payload 0 "sync marker" in
          if len - p <> 8 then raise (Bad "malformed sync marker");
          let h = String.get_int64_le payload p in
          if count <> decisions.len || h <> !dfnv then
            raise
              (Bad
                 (Printf.sprintf
                    "sync marker mismatch (marker says %d decisions, journal \
                     carries %d)"
                    count decisions.len));
          synced := count
        | 'T', Some _ -> (
          try trailer := Some (trailer_of_payload payload)
          with Failure e -> raise (Bad e))
        | tag, Some _ ->
          raise (Bad (Printf.sprintf "unknown frame tag %C" tag)));
        incr frame
      done;
      match (!trailer, !header) with
      | Some t, Some h ->
        if !pos <> n then
          Corrupt
            {
              frame = !frame;
              offset = !pos;
              reason = "trailing bytes after the trailer frame";
            }
        else Complete { header = h; decisions = dyn_contents decisions; trailer = t }
      | None, Some h ->
        Torn
          {
            header = h;
            decisions = dyn_contents decisions;
            synced = !synced;
            offset = n;
            reason = "missing trailer (recording never finished)";
          }
      | _, None ->
        Corrupt { frame = 0; offset = 4; reason = "empty journal (no header)" }
    with
    | Bad_frame c -> c
    | Bad reason -> Corrupt { frame = !frame; offset = !pos; reason }
    | Truncated_at (offset, reason) -> (
      match !header with
      | None -> Corrupt { frame = 0; offset; reason = "torn inside the header frame" }
      | Some h ->
        Torn
          {
            header = h;
            decisions = dyn_contents decisions;
            synced = !synced;
            offset;
            reason;
          })
  end

let scan_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok (scan_string s)
  | exception Sys_error e -> Error e

let frame_offsets s =
  let n = String.length s in
  if n < 4 || String.sub s 0 4 <> magic then []
  else begin
    let pos = ref 4 in
    let out = ref [] in
    (try
       while !pos < n do
         let start = !pos in
         let tag = s.[!pos] in
         incr pos;
         let varint () =
           let rec go shift acc count =
             if count > 9 || !pos >= n then raise Exit;
             let c = Char.code s.[!pos] in
             incr pos;
             let acc = acc lor ((c land 0x7f) lsl shift) in
             if c land 0x80 = 0 then acc else go (shift + 7) acc (count + 1)
           in
           go 0 0 0
         in
         let _seq = varint () in
         let len = varint () in
         if len > n - !pos || n - (!pos + len) < 8 then raise Exit;
         pos := !pos + len + 8;
         out := (start, tag, !pos - start) :: !out
       done
     with Exit -> ());
    List.rev !out
  end
