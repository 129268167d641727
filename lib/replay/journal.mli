(** Minimal binary decision journals — the wire format of `rfdet record`.

    Under DLRC the arbiter's order decisions are the sole source of
    nondeterminism, so a journal holding only the scheduler's free
    decisions (plus a seeded header) is a complete recipe for
    reconstructing the whole execution.  Everything else — memory
    contents, lock grant order, jitter, fault injections — re-derives
    from the header's seeds during replay.

    {1 Format}

    A journal is the 4-byte magic ["RFDJ"] followed by a sequence of
    frames:

    {v tag:1 | seq:varint | len:varint | payload:len | fnv64:8 v}

    [seq] is the frame index (0-based, contiguous — a duplicated or
    dropped frame breaks the sequence and is detected as corruption);
    varints are unsigned LEB128; [fnv64] is the FNV-1a 64-bit checksum
    of everything from [tag] through the end of [payload], stored
    little-endian.  Frame tags:

    - ['H'] (frame 0, exactly once): the run header as
      {!Rfdet_check.Trace.header_to_string} writes it — format version,
      workload, threads, scale, input/sched seeds, jitter, runtime,
      fault mode, optional fault plan as [key value] lines, the same
      lines a text schedule trace opens with.
    - ['D']: a decision batch — varint count, then count varint tids
      (the [d_chosen] of consecutive {!Rfdet_sim.Engine.decision}s).
      Ready sets are not stored: replay re-derives them and verifies
      the chosen tid, so storing them would add bytes, not safety.
    - ['S']: a sync marker, written after every ['D'] — varint total
      decisions so far plus the running FNV-1a 64 over all ['D']
      payloads so far.  The last valid marker is the crash-consistent
      recovery point of a torn journal.
    - ['T'] (last frame, exactly once): the trailer — signature,
      outputs checksum, op count, sim time, decision count, thread
      count, and the FNV-64 of the profile JSON, as [key value] lines.
      Replay compares all of them; equality is the byte-identity gate.

    {1 Failure taxonomy}

    [scan] distinguishes {e torn} journals (the write stopped mid-frame
    or before the trailer — the expected shape after a crash, and
    recoverable: every fully-checksummed decision before the tear is
    trustworthy) from {e corrupt} ones (a complete frame fails its
    checksum, frames are duplicated/dropped, or the header itself is
    unreadable — never silently recoverable).  Both are always loud;
    `rfdet replay` maps them to distinct exit codes (9 and 8). *)

val magic : string

type header = Rfdet_check.Trace.header

type trailer = {
  signature : string;
  outputs_checksum : string;
  ops : int;
  sim_time : int;
  decisions : int;
  threads_made : int;
  profile_fnv : int64;  (** FNV-64 of [Profile.to_json] *)
}

val fnv64 : string -> int64
(** FNV-1a 64-bit over a whole string (exposed for the trailer's
    profile checksum and for tests). *)

(** {1 Recording} *)

type writer

val create : path:string -> header -> writer
(** Open [path] (truncating) and write the magic and header frame.
    The header hits the disk before the workload runs: a journal torn
    at any later point still identifies its run. *)

val add : writer -> int -> unit
(** Append one decision (the chosen tid).  Decisions are batched; every
    flushed batch is followed by a sync marker. *)

val written : writer -> int
(** Decisions accepted so far (including any still-buffered batch). *)

val finish : writer -> trailer -> unit
(** Flush the final batch, write the trailer frame and close. *)

val abort : writer -> unit
(** Flush buffered decisions and close {e without} a trailer — the
    journal is left deliberately torn (recoverable), the honest shape
    for a recording cut short by a failing run. *)

(** {1 Scanning} *)

type scan =
  | Complete of { header : header; decisions : int array; trailer : trailer }
      (** every frame verified, trailer present *)
  | Torn of {
      header : header;
      decisions : int array;
          (** every checksum-verified decision before the tear *)
      synced : int;  (** decisions confirmed by the last sync marker *)
      offset : int;  (** byte offset where the journal tears *)
      reason : string;
    }
      (** the tail is missing (torn mid-frame, or no trailer): the
          verified prefix is trustworthy and replay can re-execute the
          remainder from the header's seeds ([--recover]) *)
  | Corrupt of { frame : int; offset : int; reason : string }
      (** a complete frame failed verification (checksum mismatch,
          sequence discontinuity, malformed payload, unreadable
          header): never recoverable, always fatal *)

val scan_string : string -> scan

val scan_file : string -> (scan, string) result
(** [Error] only for I/O failures (missing file, permissions). *)

val frame_offsets : string -> (int * char * int) list
(** Structural frame table [(offset, tag, total_bytes)] of a
    well-formed journal, best-effort (stops at the first undecodable
    frame) — the mutation grid for the chaos/fuzz harness. *)
