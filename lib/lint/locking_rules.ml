module Minterm = Rb_dfg.Minterm
module Config = Rb_locking.Config
module Resilience = Rb_locking.Resilience
module D = Diagnostic

let rule_resilience = "LOCK-RESIL"
let rule_overlap = "LOCK-OVERLAP"
let rule_candidates = "LOCK-CAND"

let check_config ?min_lambda ?candidates config =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let locked = Config.locked_fus config in
  (* Eqn. 1 resilience bound *)
  (match min_lambda with
   | None -> ()
   | Some target ->
     List.iter
       (fun fu ->
         let kb, lambda = Config.resilience config fu in
         if lambda < target then begin
           let minterms = Minterm.Set.cardinal (Config.minterms_of config fu) in
           let budget =
             Resilience.max_minterms_for ~key_bits:kb ~input_bits:Minterm.bits
               ~min_lambda:target
           in
           emit
             (D.error ~rule:rule_resilience (D.Fu fu)
                (Printf.sprintf
                   "%d locked minterms under a %d-bit key predict only %.0f SAT \
                    iterations (target %.0f)"
                   minterms kb lambda target)
                ~hint:
                  (if budget = 0 then
                     "no minterm count meets the target at this key length; raise the \
                      key budget"
                   else
                     Printf.sprintf "lock at most %d minterms on this FU (Eqn. 1)" budget))
         end)
       locked);
  (* overlapping locked sets *)
  let rec pairs = function
    | [] -> ()
    | fu :: rest ->
      let set = Config.minterms_of config fu in
      List.iter
        (fun fu' ->
          let shared = Minterm.Set.inter set (Config.minterms_of config fu') in
          let n = Minterm.Set.cardinal shared in
          if n > 0 then
            emit
              (D.warning ~rule:rule_overlap (D.Fu fu')
                 (Printf.sprintf "shares %d locked minterm%s with FU %d" n
                    (if n = 1 then "" else "s")
                    fu)
                 ~hint:
                   "sharing is legal and can be optimal: a minterm frequent on both FUs' \
                    operations adds Eqn. 2 error on each"))
        rest;
      pairs rest
  in
  pairs locked;
  (* candidate-list membership *)
  (match candidates with
   | None -> ()
   | Some cands ->
     let cand_set = Minterm.Set.of_list (Array.to_list cands) in
     List.iter
       (fun fu ->
         Minterm.Set.iter
           (fun m ->
             if not (Minterm.Set.mem m cand_set) then
               emit
                 (D.error ~rule:rule_candidates (D.Fu fu)
                    (Format.asprintf "locked minterm %a is outside the candidate list C"
                       Minterm.pp m)
                    ~hint:
                      "co-design draws locked inputs from the top-occurrence candidate \
                       list; off-list minterms carry no measured error mass"))
           (Config.minterms_of config fu))
       locked);
  List.rev !diags
