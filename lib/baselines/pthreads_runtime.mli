(** The conventional, nondeterministic multithreading baseline.

    All threads share one memory space, stores are immediately visible
    everywhere, and synchronization is first-come-first-served in
    simulated-time order.  With scheduler jitter enabled (a nonzero
    [jitter_mean] in the engine config), different seeds produce
    different interleavings — so racy programs like [racey] produce
    different outputs per seed, which is exactly the behaviour the DMT
    runtimes are built to eliminate.

    This is the "pthreads" bar of Figure 7 and the normalization
    denominator of every performance experiment. *)

val name : string

val make : Rfdet_sim.Engine.t -> Rfdet_sim.Engine.policy
(** The policy of one engine run ([Runner.make_policy Pthreads]). *)
