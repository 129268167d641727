(* A lock-heavy "bank": concurrent transfers between accounts with
   per-account mutexes, an invariant check, and a deterministic audit.

   Demonstrates on a realistic lock-ordering workload that:
   - RFDet preserves the semantics of a race-free pthreads program
     (money is conserved under every runtime), and
   - the *audit log order* — which depends on lock-acquisition order and
     is legitimately nondeterministic under pthreads — is reproducible
     under RFDet, run after run.

     dune exec examples/bank_app.exe *)

module Engine = Rfdet_sim.Engine
module Api = Rfdet_sim.Api
module Det_rng = Rfdet_util.Det_rng

let accounts = 16

let initial_balance = 60

let transfers_per_teller = 150

let bank ~tellers () =
  let balances = Api.malloc (8 * accounts) in
  for i = 0 to accounts - 1 do
    Api.store (balances + (8 * i)) initial_balance
  done;
  let locks = Array.init accounts (fun _ -> Api.mutex_create ()) in
  (* audit log: count + entries, protected by its own lock *)
  let log_lock = Api.mutex_create () in
  let log_len = Api.malloc 8 in
  let teller k () =
    let rng = Det_rng.create (Int64.of_int (1000 + k)) in
    for _ = 1 to transfers_per_teller do
      let src = Det_rng.int rng accounts in
      let dst = (src + 1 + Det_rng.int rng (accounts - 1)) mod accounts in
      let amount = 1 + Det_rng.int rng 55 in
      (* classic deadlock-free ordering: lock the lower index first *)
      let a = min src dst and b = max src dst in
      Api.lock locks.(a);
      Api.lock locks.(b);
      let sb = Api.load (balances + (8 * src)) in
      if sb >= amount then begin
        Api.store (balances + (8 * src)) (sb - amount);
        Api.store (balances + (8 * dst))
          (Api.load (balances + (8 * dst)) + amount);
        Api.with_lock log_lock (fun () ->
            Api.store log_len (Api.load log_len + 1))
      end;
      Api.unlock locks.(b);
      Api.unlock locks.(a);
      Api.tick 120
    done
  in
  let tids = List.init tellers (fun k -> Api.spawn (teller k)) in
  List.iter Api.join tids;
  (* invariant: total money conserved *)
  let total = ref 0 in
  for i = 0 to accounts - 1 do
    total := !total + Api.load (balances + (8 * i))
  done;
  Api.output_int !total;
  Api.output_int (Api.load log_len);
  (* the full balance vector is the deterministic "audit" *)
  for i = 0 to accounts - 1 do
    Api.output_int (Api.load (balances + (8 * i)))
  done

let run policy seed =
  let config = { Engine.default_config with seed; jitter_mean = 15. } in
  Engine.run ~config policy ~main:(bank ~tellers:4)

let () =
  let check label policy =
    let results = List.init 6 (fun i -> run policy (Int64.of_int (i + 1))) in
    let totals =
      List.map
        (fun r ->
          match r.Engine.outputs with (_, t) :: _ -> Int64.to_int t | [] -> -1)
        results
    in
    let sigs =
      List.sort_uniq compare (List.map Engine.output_signature results)
    in
    Printf.printf
      "%-10s money conserved: %b   distinct audits over 6 noisy runs: %d%s\n"
      label
      (List.for_all (fun t -> t = accounts * initial_balance) totals)
      (List.length sigs)
      (if List.length sigs = 1 then "  <- reproducible" else "");
  in
  Printf.printf "4 tellers x %d transfers over %d accounts (total = %d):\n\n"
    transfers_per_teller accounts (accounts * initial_balance);
  check "pthreads" Rfdet_baselines.Pthreads_runtime.make;
  check "dthreads" Rfdet_baselines.Fence_runtime.(make Dthreads);
  check "rfdet-ci"
    (Rfdet_core.Rfdet_runtime.make ~opts:Rfdet_core.Options.ci);
  print_endline
    "\nEvery runtime conserves money (the program is race-free), but only\n\
     the deterministic runtimes reproduce the same audit trail under\n\
     scheduler noise — which is what makes a failure debuggable."
