(** Synchronization primitives in FIFO queue order: the primitive core
    shared by the pthreads baseline and the fence runtimes (DThreads,
    CoreDet).

    Mutexes, condition variables, barriers, reader–writer locks,
    semaphores and work-stealing deques live here, identified by handles
    that are unique across kinds.  Waiters are served in the order they
    reached the object: first-come-first-served in simulated time under
    pthreads, serial-slot order under the fences.  (The Kendo runtimes
    serve waiters in stamp order instead, in [Rfdet_kendo.Sync].)  A
    timed lock behaves as a plain lock, and nothing is ever poisoned,
    so a heal only validates its handle.

    The caller owns time and the memory model.  It charges its own
    costs, performs memory ops, spawn, join and exit itself, and tells
    the core when the current operation takes effect ([at]) and how to
    wake another thread ([wake]). *)

type t

val create : name:string -> wake:(tid:int -> at:int -> unit) -> t
(** [name] prefixes error messages.  [wake ~tid ~at] makes a thread
    blocked in this core runnable at time [at], with result 0. *)

val handle : t -> tid:int -> at:int -> Rfdet_sim.Op.t -> Rfdet_sim.Engine.outcome
(** Perform one synchronization primitive for [tid] at time [at]:
    [Done v] when [tid] continues with result [v], [Block] when it
    waits for a [wake].  Threads this operation releases are woken
    before it returns.  Raises [Invalid_argument] on a protocol
    violation (unlocking an unheld mutex, an unknown handle, a push or
    pop by a deque's non-owner) and on every op that is not a
    primitive (memory ops, spawn, join, engine ops). *)
