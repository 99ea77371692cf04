(* Tests for the service layer: job codec, content-addressed store,
   executor determinism, the serve protocol, and golden-output guards
   holding the thin-client renderers to the pre-service CLI bytes. *)

module Json = Rb_util.Json
module Pool = Rb_util.Pool
module Job = Rb_service.Job
module Error = Rb_service.Error
module Store = Rb_service.Store
module Executor = Rb_service.Executor
module Outcome = Rb_service.Outcome
module Render = Rb_service.Render
module Serve = Rb_service.Serve

let job_testable =
  Alcotest.testable
    (fun fmt j -> Format.pp_print_string fmt (Json.to_string (Job.to_json j)))
    ( = )

let decode_ok v =
  match Job.of_json v with
  | Ok job -> job
  | Error e -> Alcotest.failf "unexpected decode error: %s" e.Error.message

let decode_error v =
  match Job.of_json v with
  | Ok job -> Alcotest.failf "expected an error, decoded %s" (Job.op job)
  | Error e -> e

let obj fields = Json.Obj fields

(* ------------------------------------------------------------- Job codec *)

let test_job_defaults () =
  let job = decode_ok (obj [ ("op", Json.String "bind"); ("benchmark", Json.String "dct") ]) in
  Alcotest.check job_testable "historical CLI defaults"
    (Job.Bind
       {
         benchmark = "dct";
         seed = 1789;
         binder = "codesign";
         kind = Rb_dfg.Dfg.Mul;
         locked_fus = 2;
         minterms_per_fu = 2;
       })
    job;
  let attack = decode_ok (obj [ ("op", Json.String "attack") ]) in
  Alcotest.check job_testable "attack defaults"
    (Job.Attack
       { scheme = Job.Pf; width = 4; strength = 2; seed = 1789; max_iterations = 20_000;
         portfolio = 1 })
    attack

let test_job_envelope_ignored () =
  (* The serve envelope rides alongside the job fields; decode must not
     trip over them. *)
  let job =
    decode_ok
      (obj
         [
           ("schema", Json.String "rb-job/1");
           ("id", Json.Int 7);
           ("op", Json.String "list");
         ])
  in
  Alcotest.check job_testable "envelope fields ignored" Job.List_benchmarks job

let test_job_validation () =
  let check_msg name v expected =
    let e = decode_error v in
    Alcotest.(check string) (name ^ " code") "invalid-request" (Error.code_label e.Error.code);
    Alcotest.(check string) (name ^ " message") expected e.Error.message
  in
  check_msg "missing op" (obj []) "missing required field \"op\"";
  check_msg "unknown op" (obj [ ("op", Json.String "frobnicate") ]) "unknown op \"frobnicate\"";
  check_msg "missing benchmark" (obj [ ("op", Json.String "show") ])
    "missing required field \"benchmark\"";
  check_msg "width bounds"
    (obj [ ("op", Json.String "attack"); ("width", Json.Int 99) ])
    "width must be in 2..8";
  check_msg "export-cnf width bounds"
    (obj [ ("op", Json.String "export-cnf"); ("width", Json.Int 11) ])
    "width must be in 2..10";
  check_msg "strength bounds"
    (obj [ ("op", Json.String "analyze"); ("strength", Json.Int 0) ])
    "strength must be in 1..256";
  check_msg "antisat not attackable"
    (obj [ ("op", Json.String "attack"); ("scheme", Json.String "antisat") ])
    "scheme must be rll, pf, or permnet";
  check_msg "field type"
    (obj [ ("op", Json.String "bind"); ("benchmark", Json.String "dct"); ("seed", Json.String "x") ])
    "field \"seed\" must be an integer";
  check_msg "non-string op" (obj [ ("op", Json.Int 1) ]) "field \"op\" must be a string";
  check_msg "integer field"
    (obj [ ("op", Json.String "attack"); ("width", Json.Float 4.5) ])
    "field \"width\" must be an integer";
  check_msg "boolean field"
    (obj [ ("op", Json.String "export-cnf"); ("miter", Json.String "yes") ])
    "field \"miter\" must be a boolean";
  check_msg "string field"
    (obj [ ("op", Json.String "bind"); ("benchmark", Json.String "dct"); ("binder", Json.Int 3) ])
    "field \"binder\" must be a string";
  check_msg "required string field"
    (obj [ ("op", Json.String "dot"); ("benchmark", Json.Bool true) ])
    "field \"benchmark\" must be a string";
  check_msg "optional string field"
    (obj [ ("op", Json.String "lint"); ("benchmark", Json.Int 1) ])
    "field \"benchmark\" must be a string";
  check_msg "number field"
    (obj [ ("op", Json.String "lint"); ("min_lambda", Json.String "high") ])
    "field \"min_lambda\" must be a number";
  check_msg "kind field"
    (obj [ ("op", Json.String "bind"); ("benchmark", Json.String "dct"); ("kind", Json.String "div") ])
    "field \"kind\" must be \"add\" or \"mul\"";
  check_msg "non-string scheme"
    (obj [ ("op", Json.String "attack"); ("scheme", Json.Int 2) ])
    "field \"scheme\" must be a string";
  check_msg "non-string analyze scheme"
    (obj [ ("op", Json.String "analyze"); ("scheme", Json.List []) ])
    "field \"scheme\" must be a string";
  check_msg "unknown scheme"
    (obj [ ("op", Json.String "export-cnf"); ("scheme", Json.String "xor") ])
    "unknown scheme \"xor\"";
  check_msg "unknown analyze scheme"
    (obj [ ("op", Json.String "analyze"); ("scheme", Json.String "every") ])
    "unknown scheme \"every\"";
  check_msg "unknown format"
    (obj [ ("op", Json.String "custom"); ("text", Json.String "x"); ("format", Json.String "verilog") ])
    "field \"format\" must be \"dfg-text\" or \"expr\" (got \"verilog\")";
  check_msg "missing text" (obj [ ("op", Json.String "custom"); ("format", Json.String "expr") ])
    "missing required field \"text\"";
  check_msg "not an object" (Json.List []) "missing required field \"op\""

let test_job_digest () =
  (* Defaulted and explicit spellings of the same job share a content
     address; changing any meaningful field moves it. *)
  let terse = decode_ok (obj [ ("op", Json.String "bind"); ("benchmark", Json.String "dct") ]) in
  let explicit =
    decode_ok
      (obj
         [
           ("minterms_per_fu", Json.Int 2);
           ("seed", Json.Int 1789);
           ("benchmark", Json.String "dct");
           ("op", Json.String "bind");
           ("kind", Json.String "mul");
           ("binder", Json.String "codesign");
           ("locked_fus", Json.Int 2);
         ])
  in
  Alcotest.(check string) "spelling-independent" (Job.digest terse) (Job.digest explicit);
  let reseeded =
    decode_ok
      (obj [ ("op", Json.String "bind"); ("benchmark", Json.String "dct"); ("seed", Json.Int 1790) ])
  in
  Alcotest.(check bool) "seed changes the address" true
    (Job.digest terse <> Job.digest reseeded)

(* QCheck generator over the closed variant; every produced job passes
   [Job.validate], so the round-trip property exercises [of_json]'s full
   decode-and-validate path. *)
let job_gen =
  let open QCheck2.Gen in
  let name = oneofl [ "dct"; "fir"; "fft"; "nope"; "x 1" ] in
  let seed = int_range 0 10_000 in
  let scheme = oneofl [ Job.Rll; Job.Pf; Job.Antisat; Job.Permnet ] in
  let netlist_scheme = oneofl [ Job.Rll; Job.Pf; Job.Permnet ] in
  let kind = oneofl [ Rb_dfg.Dfg.Add; Rb_dfg.Dfg.Mul ] in
  let fus = int_range 1 64 in
  let minterms = int_range 1 Rb_core.Codesign.n_candidates in
  oneof
    [
      return Job.List_benchmarks;
      map2 (fun benchmark seed -> Job.Show { benchmark; seed }) name seed;
      (let* benchmark = name and* seed = seed and* kind = kind in
       let* binder = oneofl (List.map Rb_core.Binders.name Rb_core.Binders.all)
       and* locked_fus = fus
       and* minterms_per_fu = minterms in
       return (Job.Bind { benchmark; seed; binder; kind; locked_fus; minterms_per_fu }));
      (let* benchmark = opt name
       and* seed = seed
       and* locked_fus = fus
       and* minterms_per_fu = minterms
       and* min_lambda = opt (oneofl [ 0.5; 1.; 2.25 ]) in
       return (Job.Lint { benchmark; seed; locked_fus; minterms_per_fu; min_lambda }));
      (let* scheme = opt scheme and* width = int_range 2 8 and* strength = int_range 1 256 and* seed = seed in
       return (Job.Analyze { scheme; width; strength; seed }));
      (let* scheme = netlist_scheme
       and* width = int_range 2 8
       and* strength = int_range 1 256
       and* seed = seed
       and* max_iterations = int_range 1 10_000_000
       and* portfolio = int_range 1 64 in
       return (Job.Attack { scheme; width; strength; seed; max_iterations; portfolio }));
      (let* text = string_size ~gen:printable (int_range 0 40)
       and* expr = bool
       and* kind = kind
       and* locked_fus = fus
       and* minterms_per_fu = minterms
       and* trace_length = int_range 1 1_000_000
       and* seed = seed in
       let source = if expr then Job.Expr_source text else Job.Dfg_source text in
       return (Job.Custom { source; kind; locked_fus; minterms_per_fu; trace_length; seed }));
      (let* scheme = netlist_scheme
       and* width = int_range 2 10
       and* strength = int_range 1 256
       and* miter = bool
       and* seed = seed in
       return (Job.Export_cnf { scheme; width; strength; miter; seed }));
      map (fun benchmark -> Job.Export_dfg { benchmark }) name;
      map (fun benchmark -> Job.Dot { benchmark }) name;
    ]

let qcheck_job_roundtrip =
  QCheck2.Test.make ~name:"Job.of_json inverts to_json" ~count:500 job_gen
    (fun job -> Job.of_json (Job.to_json job) = Ok job)

let qcheck_job_digest_stable =
  QCheck2.Test.make ~name:"Job.digest survives a decode round-trip" ~count:200 job_gen
    (fun job ->
      match Job.of_json (Job.to_json job) with
      | Ok job' -> Job.digest job = Job.digest job'
      | Error _ -> false)

(* ----------------------------------------------------------------- Store *)

let test_store_single_flight () =
  let store = Store.create () in
  let computed = Atomic.make 0 in
  let compute () =
    Atomic.incr computed;
    Outcome.Text "payload"
  in
  let first = Store.find_or_compute store ~key:"k" compute in
  let second = Store.find_or_compute store ~key:"k" compute in
  (match (first, second) with
  | Outcome.Text a, Outcome.Text b ->
      Alcotest.(check string) "same outcome" a b
  | _ -> Alcotest.fail "unexpected outcome shape");
  Alcotest.(check int) "computed once" 1 (Atomic.get computed);
  let { Store.hits; misses; _ } = Store.stats store in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "one ready entry" 1 (Store.size store)

let test_store_failure_not_cached () =
  let store = Store.create () in
  let attempts = Atomic.make 0 in
  let flaky () =
    Atomic.incr attempts;
    if Atomic.get attempts = 1 then failwith "transient";
    Outcome.Text "recovered"
  in
  (match Store.find_or_compute store ~key:"k" flaky with
  | exception Failure m -> Alcotest.(check string) "error propagates" "transient" m
  | _ -> Alcotest.fail "first attempt should raise");
  Alcotest.(check int) "failure leaves no entry" 0 (Store.size store);
  (match Store.find_or_compute store ~key:"k" flaky with
  | Outcome.Text s -> Alcotest.(check string) "retry recomputes" "recovered" s
  | _ -> Alcotest.fail "unexpected outcome shape");
  let { Store.hits; misses; _ } = Store.stats store in
  Alcotest.(check int) "every attempt is a miss" 2 misses;
  Alcotest.(check int) "no hits" 0 hits

let test_store_concurrent_single_flight () =
  let store = Store.create () in
  let computed = Atomic.make 0 in
  let compute () =
    Atomic.incr computed;
    Domain.cpu_relax ();
    Outcome.Text "shared"
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      let results =
        Pool.map_array pool
          ~f:(fun _ ->
            match Store.find_or_compute store ~key:"hot" compute with
            | Outcome.Text s -> s
            | _ -> "?")
          (Array.init 16 Fun.id)
      in
      Array.iter (fun s -> Alcotest.(check string) "all waiters agree" "shared" s) results);
  Alcotest.(check int) "exactly one compute" 1 (Atomic.get computed);
  let { Store.hits; misses; _ } = Store.stats store in
  Alcotest.(check int) "one miss regardless of racing workers" 1 misses;
  Alcotest.(check int) "everyone else hits" 15 hits

(* Three same-cost outcomes against a cap that holds two: the insert
   of the third must evict exactly the least-recently-used entry. *)
let test_store_lru_eviction () =
  let payload c = Outcome.Text (String.make 1000 c) in
  let cost = Store.cost_of (payload 'a') in
  let store = Store.create ~cap_bytes:(2 * cost) () in
  let computed = Atomic.make 0 in
  let get key c =
    match
      Store.find_or_compute store ~key (fun () ->
          Atomic.incr computed;
          payload c)
    with
    | Outcome.Text s -> s
    | _ -> Alcotest.fail "unexpected outcome shape"
  in
  ignore (get "a" 'a');
  ignore (get "b" 'b');
  ignore (get "a" 'a');
  (* touch: b is now LRU *)
  ignore (get "c" 'c');
  let { Store.evictions; bytes; _ } = Store.stats store in
  Alcotest.(check int) "third insert evicts one entry" 1 evictions;
  Alcotest.(check int) "two entries resident" 2 (Store.size store);
  Alcotest.(check bool) "resident bytes within cap" true (bytes <= 2 * cost);
  Alcotest.(check int) "three computes so far" 3 (Atomic.get computed);
  ignore (get "a" 'a');
  Alcotest.(check int) "a survived (recently used)" 3 (Atomic.get computed);
  ignore (get "b" 'b');
  Alcotest.(check int) "b was the victim, recomputed" 4 (Atomic.get computed)

(* Single-flight must hold under eviction churn: racing workers on a
   store whose cap holds only a fraction of the key space always get
   the outcome belonging to their key, never a stale or foreign
   one. *)
let qcheck_store_eviction_single_flight =
  let open QCheck2.Gen in
  let gen = list_size (int_range 20 120) (int_range 0 7) in
  QCheck2.Test.make ~name:"bounded store serves the right artifact under churn"
    ~count:25 gen (fun keys ->
      let payload i = String.make (50 * (i + 1)) (Char.chr (Char.code 'a' + i)) in
      let cost = Store.cost_of (Outcome.Text (payload 7)) in
      let store = Store.create ~cap_bytes:(2 * cost) () in
      let ok =
        Pool.with_pool ~jobs:4 (fun pool ->
            Pool.map_array pool
              ~f:(fun i ->
                match
                  Store.find_or_compute store ~key:(string_of_int i) (fun () ->
                      Outcome.Text (payload i))
                with
                | Outcome.Text s -> s = payload i
                | _ -> false)
              (Array.of_list keys))
      in
      Array.for_all Fun.id ok
      &&
      let { Store.bytes; _ } = Store.stats store in
      bytes <= 2 * cost)

(* -------------------------------------------------------------- Executor *)

let with_executor ?(jobs = 1) ?limit f =
  Pool.with_pool ~jobs (fun pool -> f (Executor.create ?limit ~pool ()))

let render_result = function
  | Ok outcome -> Render.to_text outcome
  | Error e -> "error: " ^ Error.code_label e.Error.code ^ ": " ^ e.Error.message

let dct_bind =
  Job.Bind
    {
      benchmark = "dct";
      seed = 1789;
      binder = "codesign";
      kind = Rb_dfg.Dfg.Mul;
      locked_fus = 2;
      minterms_per_fu = 2;
    }

let test_executor_cache_determinism () =
  with_executor (fun ex ->
      let job = dct_bind in
      let first = render_result (Executor.run ex job) in
      let before = Store.stats (Executor.store ex) in
      let second = render_result (Executor.run ex job) in
      let after = Store.stats (Executor.store ex) in
      Alcotest.(check string) "cache hit renders identically" first second;
      Alcotest.(check int) "second run misses nothing" before.Store.misses after.Store.misses;
      Alcotest.(check bool) "second run hits" true (after.Store.hits > before.Store.hits))

(* The store caches whole job outcomes and nothing else: a bind,
   which builds a benchmark context on the way, leaves exactly its
   own outcome behind, one miss and no hits. *)
let test_executor_one_entry_per_job () =
  with_executor (fun ex ->
      (match Executor.run ex dct_bind with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "bind fails: %s" e.Error.message);
      let store = Executor.store ex in
      Alcotest.(check int) "one store entry" 1 (Store.size store);
      let { Store.hits; misses; _ } = Store.stats store in
      Alcotest.(check int) "one miss" 1 misses;
      Alcotest.(check int) "no hits" 0 hits)

let test_antisat_analyze_digest_ignores_strength () =
  (* The Anti-SAT block reads no strength, so every strength of an
     antisat analysis is one job; schemes that read it stay apart. *)
  let analyze scheme strength =
    Job.Analyze { scheme = Some scheme; width = 8; strength; seed = 7 }
  in
  Alcotest.(check string) "antisat strengths 4 and 64 share a digest"
    (Job.digest (analyze Job.Antisat 4)) (Job.digest (analyze Job.Antisat 64));
  Alcotest.(check bool) "pf strengths 4 and 64 digest differently" true
    (Job.digest (analyze Job.Pf 4) <> Job.digest (analyze Job.Pf 64))

let test_attack_digest_ignores_portfolio () =
  (* An attack's result does not depend on how many solvers race for
     it, so every portfolio size shares the portfolio-1 address; the
     wire encoding still carries the field. *)
  let attack portfolio =
    Job.Attack
      { scheme = Job.Rll; width = 3; strength = 4; seed = 7; max_iterations = 1000; portfolio }
  in
  Alcotest.(check string) "portfolio 1 and 4 share a digest"
    (Job.digest (attack 1)) (Job.digest (attack 4));
  Alcotest.(check string) "portfolio-1 address unchanged"
    (Rb_util.Digest.string (Json.to_string (Job.to_json (attack 1))))
    (Job.digest (attack 1));
  Alcotest.check job_testable "round-trip keeps portfolio" (attack 4)
    (decode_ok (Job.to_json (attack 4)));
  with_executor ~jobs:2 (fun ex ->
      let first = render_result (Executor.run ex (attack 1)) in
      let before = Store.stats (Executor.store ex) in
      let second = render_result (Executor.run ex (attack 4)) in
      let after = Store.stats (Executor.store ex) in
      Alcotest.(check string) "same rendering" first second;
      Alcotest.(check int) "no new miss" before.Store.misses after.Store.misses;
      Alcotest.(check int) "one store hit" (before.Store.hits + 1) after.Store.hits)

let test_executor_errors () =
  with_executor (fun ex ->
      (match Executor.run ex (Job.Show { benchmark = "nope"; seed = 1789 }) with
      | Error e ->
          Alcotest.(check string) "code" "unknown-target" (Error.code_label e.Error.code);
          Alcotest.(check string) "message" "unknown benchmark \"nope\"" e.Error.message
      | Ok _ -> Alcotest.fail "expected unknown-target");
      match
        Executor.run ex
          (Job.Bind
             {
               benchmark = "nope";
               seed = 1789;
               binder = "bogus";
               kind = Rb_dfg.Dfg.Mul;
               locked_fus = 2;
               minterms_per_fu = 2;
             })
      with
      | Error e ->
          Alcotest.(check string) "binder resolves first" "unknown binder \"bogus\""
            e.Error.message
      | Ok _ -> Alcotest.fail "expected unknown-target")

(* A small mixed palette: cheap jobs only, with deliberate duplicates
   (cache hits) and failures mixed in. *)
let mixed_jobs () =
  let base =
    [
      Job.List_benchmarks;
      Job.Show { benchmark = "dct"; seed = 1789 };
      Job.Show { benchmark = "fir"; seed = 1790 };
      Job.Show { benchmark = "nope"; seed = 1789 };
      Job.Bind
        {
          benchmark = "dct";
          seed = 1789;
          binder = "codesign";
          kind = Rb_dfg.Dfg.Mul;
          locked_fus = 2;
          minterms_per_fu = 2;
        };
      Job.Bind
        {
          benchmark = "fir";
          seed = 1789;
          binder = "area";
          kind = Rb_dfg.Dfg.Add;
          locked_fus = 1;
          minterms_per_fu = 2;
        };
      Job.Lint
        { benchmark = Some "dct"; seed = 1789; locked_fus = 2; minterms_per_fu = 2; min_lambda = None };
      Job.Analyze { scheme = Some Job.Rll; width = 4; strength = 2; seed = 1789 };
      Job.Attack
        { scheme = Job.Rll; width = 3; strength = 2; seed = 1789;
          max_iterations = 20_000; portfolio = 1 };
      Job.Export_cnf { scheme = Job.Pf; width = 4; strength = 2; miter = false; seed = 1789 };
      Job.Export_dfg { benchmark = "dct" };
      Job.Dot { benchmark = "fir" };
      Job.Show { benchmark = "dct"; seed = 1790 };
    ]
  in
  (* 13 distinct jobs cycled to 52 — plenty of repeats for the cache. *)
  Array.init 52 (fun i -> List.nth base (i mod List.length base))

let test_executor_jobs_invariant () =
  let run jobs =
    with_executor ~jobs (fun ex ->
        let results = Executor.run_batch ex (mixed_jobs ()) in
        Array.to_list (Array.map (fun (r, _wall) -> render_result r) results))
  in
  let sequential = run 1 in
  let parallel = run 4 in
  Alcotest.(check (list string)) "rendered outputs invariant across jobs" sequential parallel

let test_executor_batch_cache_rate () =
  with_executor ~jobs:2 (fun ex ->
      ignore (Executor.run_batch ex (mixed_jobs ()));
      let { Store.hits; misses; _ } = Store.stats (Executor.store ex) in
      let rate = float_of_int hits /. float_of_int (hits + misses) in
      Alcotest.(check bool)
        (Printf.sprintf "hit rate %.2f above floor" rate)
        true (rate >= 0.30))

(* ----------------------------------------------------------------- Serve *)

let parse_response line =
  match Json.of_string line with
  | Ok (Json.Obj fields) -> fields
  | Ok _ -> Alcotest.failf "response is not an object: %s" line
  | Error e -> Alcotest.failf "response is not JSON (%s): %s" e line

let field name fields =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S" name

let error_member fields =
  match field "error" fields with
  | Json.Obj e ->
      let code = match field "code" e with Json.String s -> s | _ -> "?" in
      let message = match field "message" e with Json.String s -> s | _ -> "?" in
      (code, message)
  | _ -> Alcotest.fail "error member is not an object"

let test_serve_respond () =
  with_executor (fun ex ->
      let respond s = parse_response (Serve.respond ex s) in
      let ok = respond {|{"schema":"rb-job/1","id":42,"op":"list"}|} in
      Alcotest.(check string) "result schema" "rb-result/1"
        (match field "schema" ok with Json.String s -> s | _ -> "?");
      Alcotest.(check bool) "id echoed" true (field "id" ok = Json.Int 42);
      Alcotest.(check bool) "ok member present" true (List.mem_assoc "ok" ok);
      Alcotest.(check bool) "no error member" false (List.mem_assoc "error" ok);

      let bad_json = respond "{" in
      Alcotest.(check bool) "parse failure gets a null id" true (field "id" bad_json = Json.Null);
      let code, message = error_member bad_json in
      Alcotest.(check string) "parse failure code" "invalid-request" code;
      Alcotest.(check bool) "parse failure message" true
        (String.length message >= 12 && String.sub message 0 12 = "parse error:");

      let code, message = error_member (respond {|{"schema":"rb-job/2","id":1,"op":"list"}|}) in
      Alcotest.(check string) "schema mismatch code" "invalid-request" code;
      Alcotest.(check string) "schema mismatch message" {|unsupported schema "rb-job/2"|} message;

      let code, _ = error_member (respond {|{"id":1,"op":"list"}|}) in
      Alcotest.(check string) "missing schema" "invalid-request" code;

      let code, message =
        error_member (respond {|{"schema":"rb-job/1","id":2,"op":"show","benchmark":"nope"}|})
      in
      Alcotest.(check string) "execution error code" "unknown-target" code;
      Alcotest.(check string) "execution error message" {|unknown benchmark "nope"|} message;

      let code, message =
        error_member (respond {|{"schema":"rb-job/1","id":3,"op":"attack","width":99}|})
      in
      Alcotest.(check string) "validation error code" "invalid-request" code;
      Alcotest.(check string) "validation error message" "width must be in 2..8" message)

(* The cache address is the digest of the job's own encoding, which
   emits every field in one fixed order: two request lines that differ
   only in field order cost one store miss and one hit. *)
let test_serve_field_order_shares_address () =
  with_executor (fun ex ->
      let respond s = parse_response (Serve.respond ex s) in
      let first = respond {|{"schema":"rb-job/1","id":1,"op":"show","benchmark":"dct","seed":5}|} in
      let second = respond {|{"seed":5,"benchmark":"dct","op":"show","id":1,"schema":"rb-job/1"}|} in
      Alcotest.(check bool) "same ok payload" true
        (List.mem_assoc "ok" first && field "ok" first = field "ok" second);
      let { Store.hits; misses; _ } = Store.stats (Executor.store ex) in
      Alcotest.(check int) "one miss" 1 misses;
      Alcotest.(check int) "one hit" 1 hits)

(* An RLL lock needs one live adder gate per key bit. A strength above
   that bound is a well-formed request the design cannot satisfy: it
   answers infeasible, naming the bound, on every op that builds the
   lock; at the bound the lock builds. *)
let test_executor_rll_over_strength () =
  let bound = Rb_netlist.Lock.max_xor_key_bits (Rb_netlist.Circuits.adder ~width:2) in
  let message strength =
    Printf.sprintf "rll strength %d exceeds the %d live gates of the 2-bit adder" strength
      bound
  in
  let analyze strength = Job.Analyze { scheme = Some Job.Rll; width = 2; strength; seed = 1789 } in
  with_executor (fun ex ->
      let expect_infeasible name strength job =
        match Executor.run ex job with
        | Error e ->
          Alcotest.(check string) (name ^ " code") "infeasible" (Error.code_label e.Error.code);
          Alcotest.(check string) (name ^ " message") (message strength) e.Error.message
        | Ok _ -> Alcotest.failf "%s: over-strength rll accepted" name
      in
      expect_infeasible "analyze" 16 (analyze 16);
      expect_infeasible "attack" 16
        (Job.Attack
           { scheme = Job.Rll; width = 2; strength = 16; seed = 1789; max_iterations = 20_000;
             portfolio = 1 });
      expect_infeasible "export-cnf" 200
        (Job.Export_cnf { scheme = Job.Rll; width = 2; strength = 200; miter = false; seed = 1789 });
      (match Executor.run ex (analyze bound) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rll at the bound fails: %s" e.Error.message);
      let fields =
        parse_response
          (Serve.respond ex
             {|{"schema":"rb-job/1","id":1,"op":"analyze","scheme":"rll","width":2,"strength":16}|})
      in
      let code, msg = error_member fields in
      Alcotest.(check string) "serve code" "infeasible" code;
      Alcotest.(check string) "serve message" (message 16) msg)

(* A locking shape the design cannot hold is infeasible, through the
   executor and through serve alike: more locked FUs than the kind has
   allocated (ecb_enc4 has no multiplier), or more locked minterms per
   FU than the co-design candidate list offers (a one-sample custom
   trace has one minterm). Both pipelines share one check, so both
   answer the same messages. A budget above the longest candidate
   list (ten) is refused before any work, as an invalid request. *)
let test_infeasible_locking_shapes () =
  let adder_kernel = "input a, b\ny = a + b\noutput y" in
  let custom ?(trace_length = 256) kind minterms_per_fu =
    Job.Custom
      { source = Job.Expr_source adder_kernel; kind; locked_fus = 1; minterms_per_fu;
        trace_length; seed = 1789 }
  in
  let bind benchmark kind minterms_per_fu =
    Job.Bind
      { benchmark; seed = 1789; binder = "codesign"; kind; locked_fus = 1; minterms_per_fu }
  in
  let infeasible = "infeasible" and invalid = "invalid-request" in
  let over_bound = "minterms must be in 1..10" in
  let cases =
    [
      ( "bind without multipliers",
        bind "ecb_enc4" Rb_dfg.Dfg.Mul 1,
        infeasible,
        "only 0 mul FUs allocated" );
      ("bind over the candidate bound", bind "dct" Rb_dfg.Dfg.Mul 11, invalid, over_bound);
      ("custom without multipliers", custom Rb_dfg.Dfg.Mul 1, infeasible, "only 0 mul FUs allocated");
      ( "custom over the candidate list",
        custom ~trace_length:1 Rb_dfg.Dfg.Add 2,
        infeasible,
        "workload too uniform: not enough candidate minterms" );
      ("custom over the candidate bound", custom Rb_dfg.Dfg.Add 11, invalid, over_bound);
      ( "lint over the candidate bound",
        Job.Lint
          { benchmark = Some "dct"; seed = 1789; locked_fus = 2; minterms_per_fu = 11;
            min_lambda = None },
        invalid,
        over_bound );
    ]
  in
  with_executor (fun ex ->
      List.iter
        (fun (name, job, code, message) ->
          (match Executor.run ex job with
          | Error e ->
            Alcotest.(check string) (name ^ " code") code (Error.code_label e.Error.code);
            Alcotest.(check string) (name ^ " message") message e.Error.message
          | Ok _ -> Alcotest.failf "%s: shape accepted" name);
          let request =
            match Job.to_json job with
            | Json.Obj fields ->
              Json.to_string
                (Json.Obj (("schema", Json.String "rb-job/1") :: ("id", Json.Int 1) :: fields))
            | _ -> Alcotest.fail "job encoding is not an object"
          in
          let serve_code, msg = error_member (parse_response (Serve.respond ex request)) in
          Alcotest.(check string) (name ^ " serve code") code serve_code;
          Alcotest.(check string) (name ^ " serve message") message msg)
        cases;
      Alcotest.(check int) "nothing cached" 0 (Store.size (Executor.store ex)))

(* A pf lock protects exactly [strength] distinct minterms: a drawn
   duplicate is redrawn, so even a strength that collides in the
   2^(2 width) input space builds a lock with [strength] comparators,
   and only a strength above that space is infeasible. The suite
   lint's two-minterm gadget draws the same way: seed 47 draws one
   minterm twice. *)
let test_executor_pf_distinct_minterms () =
  let analyze width strength = Job.Analyze { scheme = Some Job.Pf; width; strength; seed = 1789 } in
  with_executor (fun ex ->
      let subjects job =
        match Executor.run ex job with
        | Ok (Outcome.Analyzed reports) ->
          List.map (fun (r : Rb_analysis.Report.t) -> r.subject) reports
        | Ok _ -> Alcotest.fail "analyze answered a non-analyze outcome"
        | Error e -> Alcotest.failf "pf analyze fails: %s" e.Error.message
      in
      Alcotest.(check (list string)) "64 of 256" [ "point-function h=64" ] (subjects (analyze 4 64));
      Alcotest.(check (list string)) "the whole space" [ "point-function h=16" ]
        (subjects (analyze 2 16));
      (match
         Executor.run ex
           (Job.Lint
              { benchmark = None; seed = 47; locked_fus = 2; minterms_per_fu = 2; min_lambda = None })
       with
      | Ok (Outcome.Linted reports) ->
        Alcotest.(check bool) "lint seed 47 gadget has h=2" true
          (List.mem "point-function h=2" (List.map Rb_lint.Report.subject reports))
      | Ok _ -> Alcotest.fail "lint answered a non-lint outcome"
      | Error e -> Alcotest.failf "lint fails: %s" e.Error.message);
      match Executor.run ex (analyze 2 17) with
      | Error e ->
        Alcotest.(check string) "code" "infeasible" (Error.code_label e.Error.code);
        Alcotest.(check string) "message"
          "pf strength 17 exceeds the 16 input minterms of the 2-bit adder" e.Error.message
      | Ok _ -> Alcotest.fail "pf above its input space accepted")

(* The every-scheme analyze leaves out a scheme it cannot build: at
   strength 64 on a 4-bit adder RLL is infeasible, yet pf, anti-SAT and
   permnet build, so the job answers exactly their three reports. *)
let test_analyze_all_skips_infeasible () =
  let job scheme = Job.Analyze { scheme; width = 4; strength = 64; seed = 1789 } in
  with_executor (fun ex ->
      let reports scheme =
        match Executor.run ex (job scheme) with
        | Ok (Outcome.Analyzed reports) -> reports
        | Ok _ -> Alcotest.fail "analyze answered a non-analyze outcome"
        | Error e -> Alcotest.failf "analyze fails: %s" e.Error.message
      in
      let json reports = Json.to_string (Render.result_to_json (Outcome.Analyzed reports)) in
      Alcotest.(check string) "pf, anti-SAT and permnet reports"
        (json (List.concat_map (fun s -> reports (Some s)) [ Job.Pf; Job.Antisat; Job.Permnet ]))
        (json (reports None));
      match Executor.run ex (job (Some Job.Rll)) with
      | Error e ->
        Alcotest.(check string) "rll alone stays infeasible" "infeasible"
          (Error.code_label e.Error.code)
      | Ok _ -> Alcotest.fail "rll at strength 64 accepted")

let test_serve_run_pipe () =
  let requests =
    [
      {|{"schema":"rb-job/1","id":0,"op":"list"}|};
      {|{"schema":"rb-job/1","id":1,"op":"show","benchmark":"dct"}|};
      "";
      {|{"schema":"rb-job/1","id":2,"op":"bind","benchmark":"dct"}|};
      {|{"schema":"rb-job/1","id":3,"op":"bind","benchmark":"dct"}|};
      "not json at all";
      {|{"schema":"rb-job/1","id":5,"op":"show","benchmark":"nope"}|};
      {|{"schema":"rb-job/1","id":6,"op":"analyze","scheme":"rll","strength":2}|};
      {|{"schema":"rb-job/1","id":7,"op":"export-dfg","benchmark":"dct"}|};
      {|{"schema":"rb-job/1","id":8,"op":"dot","benchmark":"fir"}|};
      {|{"schema":"rb-job/1","id":9,"op":"list"}|};
    ]
  in
  let read_fd, write_fd = Unix.pipe ~cloexec:true () in
  let payload = String.concat "\n" requests ^ "\n" in
  let wrote = Unix.write_substring write_fd payload 0 (String.length payload) in
  Alcotest.(check int) "request payload fits the pipe buffer" (String.length payload) wrote;
  Unix.close write_fd;
  let out_path = Filename.temp_file "rb_serve_test" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out_path)
    (fun () ->
      let oc = open_out out_path in
      let stop =
        with_executor ~jobs:2 (fun ex ->
            Serve.run ~executor:ex ~input:read_fd ~output:oc ())
      in
      close_out oc;
      Unix.close read_fd;
      Alcotest.(check bool) "stops at EOF" true (stop = Serve.Eof);
      let ic = open_in out_path in
      let lines = In_channel.input_lines ic in
      close_in ic;
      (* one response per non-blank request line, in request order *)
      Alcotest.(check int) "one response per request" 10 (List.length lines);
      let ids =
        List.map (fun line -> field "id" (parse_response line)) lines
      in
      Alcotest.(check bool) "ids echo in request order" true
        (ids
        = [
            Json.Int 0; Json.Int 1; Json.Int 2; Json.Int 3; Json.Null; Json.Int 5;
            Json.Int 6; Json.Int 7; Json.Int 8; Json.Int 9;
          ]);
      List.iter
        (fun line ->
          let fields = parse_response line in
          Alcotest.(check string) "every line is rb-result/1" "rb-result/1"
            (match field "schema" fields with Json.String s -> s | _ -> "?"))
        lines;
      (* the two identical binds must serialize identically (cache) *)
      let strip_id line =
        let fields = parse_response line in
        Json.to_string (Json.Obj (List.remove_assoc "id" fields))
      in
      Alcotest.(check string) "duplicate jobs answer identically"
        (strip_id (List.nth lines 2))
        (strip_id (List.nth lines 3)))

(* ------------------------------------------------- Serve: robustness *)

module Limits = Rb_util.Limits
module Metrics = Rb_util.Metrics

(* An already-expired deadline answers the structured limit error, and
   the truncated run leaves nothing behind in the cache. *)
let test_executor_deadline () =
  with_executor (fun ex ->
      let job = Job.Show { benchmark = "dct"; seed = 1789 } in
      (match Executor.run ~deadline_s:(Metrics.now_s () -. 1.0) ex job with
      | Error e ->
          Alcotest.(check string) "deadline error code" "limit"
            (Error.code_label e.Error.code);
          Alcotest.(check bool) "deadline error message" true
            (String.length e.Error.message >= 8
            && String.sub e.Error.message 0 8 = "deadline")
      | Ok _ -> Alcotest.fail "expired deadline should not produce an outcome");
      Alcotest.(check int) "expired run cached nothing" 0
        (Store.size (Executor.store ex));
      match Executor.run ex job with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "same job without deadline fails: %s" e.Error.message)

(* A deadline that passes, or a cancel raised, while an attack's
   solver runs stops it mid-run: the job answers the structured limit
   error of every volatile stop, the store keeps nothing, and the same
   job without a deadline then answers. A permnet-5 lock on a 5-bit
   adder takes some tenths of a second to break, well past the 50 ms
   stops. *)
let test_attack_stopped_mid_run () =
  let job =
    Job.Attack
      { scheme = Job.Permnet; width = 5; strength = 5; seed = 1789; max_iterations = 20_000;
        portfolio = 1 }
  in
  let expect_limit ?deadline_s ex name message =
    (match Executor.run ?deadline_s ex job with
    | Error e ->
      Alcotest.(check string) (name ^ " code") "limit" (Error.code_label e.Error.code);
      Alcotest.(check string) (name ^ " message") message e.Error.message
    | Ok _ -> Alcotest.failf "%s: attack finished before its stop" name);
    Alcotest.(check int) (name ^ ": nothing cached") 0 (Store.size (Executor.store ex))
  in
  let cancel = Limits.new_cancel () in
  with_executor ~limit:(Limits.make ~cancel ()) (fun ex ->
      let canceller =
        Thread.create (fun () -> Thread.delay 0.05; Limits.cancel cancel) ()
      in
      expect_limit ex "cancel" "cancelled during execution";
      Thread.join canceller);
  with_executor (fun ex ->
      expect_limit ex ~deadline_s:(Metrics.now_s () +. 0.05) "deadline"
        "deadline exceeded during execution";
      match Executor.run ex job with
      | Ok (Outcome.Attacked { Outcome.outcome = Outcome.Broken { key_correct; _ }; _ }) ->
        Alcotest.(check bool) "deadline-free attack recovers a correct key" true key_correct
      | Ok _ -> Alcotest.fail "deadline-free attack did not break the lock"
      | Error e -> Alcotest.failf "same attack without deadline fails: %s" e.Error.message)

(* A deadline that trips while an analysis runs must surface as a
   limit error and keep whatever the run produced out of the outcome
   cache. Deadlines a few microseconds away usually expire after the
   before-execution check but during the analysis itself, exercising
   the job-level during-execution check; a later deadline-free run of
   the identical job must then answer exactly what a fresh executor
   answers, not a replay of anything cached under a deadline. *)
let test_analyze_truncation_not_cached () =
  let job = Job.Analyze { scheme = None; width = 4; strength = 4; seed = 1789 } in
  let json ex =
    match Executor.run ex job with
    | Ok (Outcome.Analyzed reports as o) ->
      Alcotest.(check int) "one report per scheme" 4 (List.length reports);
      Json.to_string (Render.result_to_json o)
    | Ok _ -> Alcotest.fail "analyze answered a non-analyze outcome"
    | Error e -> Alcotest.failf "deadline-free analyze fails: %s" e.Error.message
  in
  let reference = with_executor json in
  with_executor (fun ex ->
      List.iter
        (fun eps ->
          match Executor.run ~deadline_s:(Metrics.now_s () +. eps) ex job with
          | Ok _ -> () (* finished inside the deadline: cacheable *)
          | Error e ->
            Alcotest.(check string) "truncated analyze answers limit" "limit"
              (Error.code_label e.Error.code))
        [ 1e-6; 1e-5; 1e-4; 1e-3 ];
      Alcotest.(check string) "deadline-free report equals a fresh executor's"
        reference (json ex))

let test_serve_deadline_envelope () =
  with_executor (fun ex ->
      let respond s = parse_response (Serve.respond ex s) in
      (* a generous deadline changes nothing *)
      let ok = respond {|{"schema":"rb-job/1","id":1,"op":"list","deadline_ms":60000}|} in
      Alcotest.(check bool) "generous deadline answers ok" true (List.mem_assoc "ok" ok);
      (* a malformed deadline is an invalid request, not a crash *)
      let code, message =
        error_member (respond {|{"schema":"rb-job/1","id":2,"op":"list","deadline_ms":-5}|})
      in
      Alcotest.(check string) "negative deadline code" "invalid-request" code;
      Alcotest.(check bool) "negative deadline message" true
        (String.length message > 0);
      let code, _ =
        error_member
          (respond {|{"schema":"rb-job/1","id":3,"op":"list","deadline_ms":"soon"}|})
      in
      Alcotest.(check string) "non-numeric deadline code" "invalid-request" code)

let test_admission_gate () =
  (match Serve.Admission.create 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cap 0 should be rejected");
  let adm = Serve.Admission.create 2 in
  Alcotest.(check bool) "first slot" true (Serve.Admission.try_acquire adm);
  Alcotest.(check bool) "second slot" true (Serve.Admission.try_acquire adm);
  Alcotest.(check bool) "third is shed" false (Serve.Admission.try_acquire adm);
  Alcotest.(check int) "two in flight" 2 (Serve.Admission.in_flight adm);
  Serve.Admission.release adm;
  Alcotest.(check bool) "released slot is reusable" true
    (Serve.Admission.try_acquire adm);
  Serve.Admission.release adm;
  Serve.Admission.release adm;
  Alcotest.(check int) "all released" 0 (Serve.Admission.in_flight adm)

(* Run a pipe session through [Serve.run] and hand back the response
   lines. *)
let serve_pipe ?drain ?batch_size ?max_line ?admission ~jobs requests =
  let read_fd, write_fd = Unix.pipe ~cloexec:true () in
  let payload = String.concat "" (List.map (fun r -> r ^ "\n") requests) in
  let wrote = Unix.write_substring write_fd payload 0 (String.length payload) in
  Alcotest.(check int) "request payload fits the pipe buffer" (String.length payload) wrote;
  Unix.close write_fd;
  let out_path = Filename.temp_file "rb_serve_test" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out_path)
    (fun () ->
      let oc = open_out out_path in
      let stop =
        with_executor ~jobs (fun ex ->
            Serve.run ~executor:ex ?drain ?batch_size ?max_line ?admission
              ~input:read_fd ~output:oc ())
      in
      close_out oc;
      Unix.close read_fd;
      let ic = open_in out_path in
      let lines = In_channel.input_lines ic in
      close_in ic;
      (stop, lines))

(* An oversized request line answers one invalid-request error and
   costs bounded memory; its neighbours are unaffected. *)
let test_serve_oversized_line () =
  let pad = String.make 200 'x' in
  let stop, lines =
    serve_pipe ~jobs:1 ~max_line:64
      [
        {|{"schema":"rb-job/1","id":0,"op":"list"}|};
        Printf.sprintf {|{"schema":"rb-job/1","id":1,"op":"list","pad":"%s"}|} pad;
        {|{"schema":"rb-job/1","id":2,"op":"list"}|};
      ]
  in
  Alcotest.(check bool) "stops at EOF" true (stop = Serve.Eof);
  Alcotest.(check int) "three responses" 3 (List.length lines);
  let fields = List.map parse_response lines in
  Alcotest.(check bool) "first request answered ok" true
    (List.mem_assoc "ok" (List.nth fields 0));
  let code, message = error_member (List.nth fields 1) in
  Alcotest.(check string) "oversized line code" "invalid-request" code;
  Alcotest.(check bool) "oversized line message names the cap" true
    (String.length message >= 20 && String.sub message 0 20 = "request line exceeds");
  Alcotest.(check bool) "oversized line id is null" true
    (field "id" (List.nth fields 1) = Json.Null);
  Alcotest.(check bool) "next request answered ok" true
    (List.mem_assoc "ok" (List.nth fields 2))

(* Admission cap 1 against a five-line burst gathered as one batch:
   the first line claims the slot, the other four are shed with the
   structured overloaded error — ids still echoed. *)
let test_serve_overload_shedding () =
  let requests =
    List.init 5 (fun i ->
        Printf.sprintf {|{"schema":"rb-job/1","id":%d,"op":"list"}|} i)
  in
  let admission = Serve.Admission.create 1 in
  let stop, lines = serve_pipe ~jobs:1 ~batch_size:8 ~admission requests in
  Alcotest.(check bool) "stops at EOF" true (stop = Serve.Eof);
  Alcotest.(check int) "every line answered" 5 (List.length lines);
  let fields = List.map parse_response lines in
  Alcotest.(check bool) "first line ran" true (List.mem_assoc "ok" (List.nth fields 0));
  List.iteri
    (fun i f ->
      if i > 0 then begin
        let code, _ = error_member f in
        Alcotest.(check string) "excess line shed" "overloaded" code;
        Alcotest.(check bool) "shed line echoes its id" true
          (field "id" f = Json.Int i)
      end)
    fields;
  Alcotest.(check int) "all slots released" 0 (Serve.Admission.in_flight admission)

(* A pre-raised drain flag: already-buffered lines are still answered,
   then the loop refuses to block for more input. *)
let test_serve_drain_pipe () =
  let drain = Atomic.make true in
  let stop, lines = serve_pipe ~jobs:1 ~drain [ {|{"schema":"rb-job/1","id":0,"op":"list"}|} ] in
  Alcotest.(check bool) "drain stop" true (stop = Serve.Drained || stop = Serve.Eof);
  Alcotest.(check bool) "no more than one response" true (List.length lines <= 1)

(* ------------------------------------------- Serve: socket concurrency *)

let socket_path () =
  let path = Filename.temp_file "rb_serve" ".sock" in
  Sys.remove path;
  path

let wait_for_socket path =
  let rec go n =
    if n = 0 then Alcotest.fail "socket never appeared"
    else if not (Sys.file_exists path) then begin
      Thread.delay 0.02;
      go (n - 1)
    end
  in
  go 250

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let recv_line fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
        if Bytes.get b 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
  in
  go ()

let with_socket_server ?max_inflight ~jobs f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = socket_path () in
  with_executor ~jobs (fun ex ->
      let cancel = Limits.new_cancel () in
      let drain = Atomic.make false in
      let stop = ref None in
      let server =
        Thread.create
          (fun () ->
            stop := Some (Serve.run_socket ~executor:ex ~cancel ~drain ?max_inflight ~path ()))
          ()
      in
      wait_for_socket path;
      Fun.protect
        ~finally:(fun () ->
          Atomic.set drain true;
          Thread.join server)
        (fun () -> f path);
      !stop)

(* Two clients interleave on one daemon; a third that hangs up
   mid-request costs nobody anything; slow client A (connected, idle)
   never blocks B. *)
let test_serve_socket_concurrent () =
  let stop =
    with_socket_server ~jobs:2 (fun path ->
        let a = connect path in
        let b = connect path in
        let c = connect path in
        (* C dies mid-request: an unterminated line, then hangup *)
        send c {|{"schema":"rb-job/1","id":99,"op":"list"}|};
        Unix.close c;
        (* B makes progress while A sits connected and silent *)
        send b ({|{"schema":"rb-job/1","id":7,"op":"show","benchmark":"dct"}|} ^ "\n");
        let rb = parse_response (recv_line b) in
        Alcotest.(check bool) "b answered" true (field "id" rb = Json.Int 7);
        Alcotest.(check bool) "b got an outcome" true (List.mem_assoc "ok" rb);
        (* A wakes up late and still works *)
        send a ({|{"schema":"rb-job/1","id":8,"op":"list"}|} ^ "\n");
        let ra = parse_response (recv_line a) in
        Alcotest.(check bool) "a answered after b" true (field "id" ra = Json.Int 8);
        (* B again: the connection outlives its siblings' sessions *)
        send b ({|{"schema":"rb-job/1","id":9,"op":"list"}|} ^ "\n");
        let rb2 = parse_response (recv_line b) in
        Alcotest.(check bool) "b answered again" true (field "id" rb2 = Json.Int 9);
        Unix.close a;
        Unix.close b)
  in
  Alcotest.(check bool) "SIGTERM-style drain stops the daemon" true
    (stop = Some Serve.Drained)

(* A handler whose client hangs up before its answer is written dies
   alone: its write fails (EPIPE) or lands in a dead socket's buffer,
   and either way the daemon answers the next connection and drains
   cleanly. With one worker the fresh request queues behind the
   abandoned bind, so it is answered only after that answer's write. *)
let test_serve_client_hangup_isolation () =
  let stop =
    with_socket_server ~jobs:1 (fun path ->
        let quitter = connect path in
        send quitter
          ({|{"schema":"rb-job/1","id":1,"op":"bind","benchmark":"dct"}|} ^ "\n");
        Unix.close quitter;
        let fd = connect path in
        send fd ({|{"schema":"rb-job/1","id":2,"op":"list"}|} ^ "\n");
        let r = parse_response (recv_line fd) in
        Unix.close fd;
        Alcotest.(check bool) "fresh connection answered" true (field "id" r = Json.Int 2);
        Alcotest.(check bool) "with an outcome" true (List.mem_assoc "ok" r))
  in
  Alcotest.(check bool) "daemon drains after the hang-up" true (stop = Some Serve.Drained)

(* ------------------------------------------- Serve: hostile wire input *)

(* The fuzzer probes the wire contract, not how the pipelines scale,
   so the fields that drive work are clamped before a job is encoded;
   mutations may still push them out of range. *)
let cheap (job : Job.t) =
  match job with
  | Job.Analyze a -> Job.Analyze { a with width = min a.width 4; strength = min a.strength 24 }
  | Job.Attack a ->
    Job.Attack
      { a with width = min a.width 4; strength = min a.strength 24;
               max_iterations = min a.max_iterations 16; portfolio = min a.portfolio 2 }
  | Job.Custom c -> Job.Custom { c with trace_length = min c.trace_length 1_000 }
  | Job.Export_cnf e ->
    Job.Export_cnf { e with width = min e.width 4; strength = min e.strength 24 }
  | job -> job

(* Values that are the wrong type or out of range for some field. *)
let hostile_values =
  [
    Json.Null; Json.Bool true; Json.Int (-1); Json.Int 0; Json.Int 257; Json.Int 100_000_000;
    Json.Int max_int; Json.Int min_int; Json.Float 0.5; Json.Float (-1e300); Json.String "";
    Json.String "\xc3"; Json.String "mul"; Json.List [ Json.Int 1 ]; Json.Obj [];
  ]

(* A valid rb-job/1 envelope of a [job_gen] job with zero to two of its
   fields (envelope fields included) dropped or replaced by a hostile
   value. A dropped field takes its default, which can be costly (an
   attack's 20,000 DIP iterations), so a 250 ms deadline rides along
   outside the mutated fields: a slow job answers the limit error. *)
let mutated_envelope_gen =
  let open QCheck2.Gen in
  let* job = map cheap job_gen in
  let fields =
    match Job.to_json job with
    | Json.Obj fields -> ("schema", Json.String "rb-job/1") :: ("id", Json.Int 7) :: fields
    | _ -> assert false
  in
  let mutation =
    let* i = int_bound (List.length fields - 1) in
    let* value = oneofl (None :: List.map Option.some hostile_values) in
    return (i, value)
  in
  let* mutations = list_size (int_range 0 2) mutation in
  let mutate fields (i, value) =
    List.concat
      (List.mapi
         (fun j (name, v) ->
           if j <> i then [ (name, v) ]
           else match value with None -> [] | Some v -> [ (name, v) ])
         fields)
  in
  let fields = List.fold_left mutate fields mutations in
  return (Json.to_string (Json.Obj (fields @ [ ("deadline_ms", Json.Int 250) ])))

(* A request carrying multi-byte UTF-8 (two to four bytes per
   character), cut at an arbitrary byte: the cut usually lands inside
   the JSON, sometimes inside a character. *)
let truncated_utf8_gen =
  let open QCheck2.Gen in
  let utf8_bytes = [ 'a'; '\xc3'; '\xa9'; '\xe2'; '\x82'; '\xac'; '\xf0'; '\x9f' ] in
  let* name = string_size ~gen:(oneofl utf8_bytes) (int_range 0 12) in
  let* op = oneofl [ "show"; "bind"; "export-dfg"; "dot" ] in
  let line =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.String "rb-job/1");
           ("id", Json.String "caf\xc3\xa9 \xe2\x82\xac");
           ("op", Json.String op);
           ("benchmark", Json.String ("dct\xc3\xa9" ^ name));
         ])
  in
  let* cut = int_bound (String.length line) in
  return (String.sub line 0 cut)

let arbitrary_bytes_gen = QCheck2.Gen.(string_size ~gen:char (int_range 0 200))

let fuzz_executor =
  lazy (Executor.create ~limit:(Limits.conflicts 20_000) ~pool:(Pool.create ~jobs:1 ()) ())

(* Every input line answers exactly one parseable rb-result/1 line
   holding exactly one of "ok" and "error", never the internal code,
   and no exception escapes [Serve.respond]. *)
let answers_cleanly line =
  match Serve.respond (Lazy.force fuzz_executor) line with
  | exception e -> QCheck2.Test.fail_reportf "%s escaped on %S" (Printexc.to_string e) line
  | answer -> (
    if String.contains answer '\n' then QCheck2.Test.fail_reportf "multi-line answer %S" answer;
    match Json.of_string answer with
    | Ok (Json.Obj fields) -> (
      if List.assoc_opt "schema" fields <> Some (Json.String "rb-result/1") then
        QCheck2.Test.fail_reportf "not rb-result/1: %s" answer;
      match (List.assoc_opt "ok" fields, List.assoc_opt "error" fields) with
      | Some _, None -> true
      | None, Some (Json.Obj e) ->
        if List.assoc_opt "code" e = Some (Json.String "internal") then
          QCheck2.Test.fail_reportf "internal answer to %S: %s" line answer;
        true
      | _ -> QCheck2.Test.fail_reportf "not exactly one of ok/error: %s" answer)
    | Ok _ | Error _ -> QCheck2.Test.fail_reportf "unparseable answer %S to %S" answer line)

let qcheck_wire_fuzz =
  QCheck2.Test.make ~name:"serve answers hostile wire input cleanly" ~count:400
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      frequency
        [ (6, mutated_envelope_gen); (2, truncated_utf8_gen); (2, arbitrary_bytes_gen) ])
    answers_cleanly

(* ---------------------------------------------------------------- Golden *)

let read_golden = Rb_testsupport.Testgen.read_golden

let golden_text name job () =
  with_executor (fun ex ->
      match Executor.run ex job with
      | Ok outcome ->
          Alcotest.(check string) name (read_golden name) (Render.to_text outcome)
      | Error e -> Alcotest.failf "job failed: %s" e.Error.message)

let golden_json ?limit name job () =
  with_executor ?limit (fun ex ->
      match Executor.run ex job with
      | Ok outcome ->
          Alcotest.(check string) name (read_golden name)
            (Json.to_string_pretty (Render.result_to_json outcome) ^ "\n")
      | Error e -> Alcotest.failf "job failed: %s" e.Error.message)

let bind_dct =
  Job.Bind
    {
      benchmark = "dct";
      seed = 1789;
      binder = "codesign";
      kind = Rb_dfg.Dfg.Mul;
      locked_fus = 2;
      minterms_per_fu = 2;
    }

let bind_fir_area =
  Job.Bind
    {
      benchmark = "fir";
      seed = 1789;
      binder = "area";
      kind = Rb_dfg.Dfg.Add;
      locked_fus = 1;
      minterms_per_fu = 2;
    }

(* The fixed-lock binders bind under the co-designed configuration;
   these two pin what they return for it. *)
let bind_fft_obf =
  Job.Bind
    {
      benchmark = "fft";
      seed = 1789;
      binder = "obf";
      kind = Rb_dfg.Dfg.Add;
      locked_fus = 2;
      minterms_per_fu = 2;
    }

let bind_jdmerge4_power =
  Job.Bind
    {
      benchmark = "jdmerge4";
      seed = 1789;
      binder = "power";
      kind = Rb_dfg.Dfg.Mul;
      locked_fus = 3;
      minterms_per_fu = 3;
    }

(* A user kernel: the fir benchmark submitted as DFG text, the file
   [bindlock export-dfg -b fir] prints and [bindlock custom -f] reads. *)
let custom_fir =
  Job.Custom
    {
      source =
        Job.Dfg_source
          (Rb_dfg.Dfg_text.to_string (Rb_workload.Benchmark.find "fir").Rb_workload.Benchmark.dfg);
      kind = Rb_dfg.Dfg.Add;
      locked_fus = 1;
      minterms_per_fu = 2;
      trace_length = 256;
      seed = 1789;
    }

let lint_dct =
  Job.Lint
    { benchmark = Some "dct"; seed = 1789; locked_fus = 2; minterms_per_fu = 2; min_lambda = None }

let lint_suite =
  Job.Lint { benchmark = None; seed = 1789; locked_fus = 2; minterms_per_fu = 2; min_lambda = None }

let analyze_pf = Job.Analyze { scheme = Some Job.Pf; width = 5; strength = 2; seed = 1789 }
let analyze_all = Job.Analyze { scheme = None; width = 4; strength = 4; seed = 1789 }

let export_cnf_pf =
  Job.Export_cnf { scheme = Job.Pf; width = 4; strength = 2; miter = true; seed = 1789 }

(* A single standalone copy: pins the bytes of [Dimacs.of_netlist], which
   the miter golden above does not reach. *)
let export_cnf_permnet =
  Job.Export_cnf { scheme = Job.Permnet; width = 4; strength = 2; miter = false; seed = 1789 }

(* The attack goldens freeze the deterministic-result contract into
   bytes: the portfolio-4 variant must render the same report as the
   portfolio-1 job the files were generated from (text wall-clock is
   the renderer's 0.00s default — outcomes carry no timing). *)
let attack_pf =
  Job.Attack
    { scheme = Job.Pf; width = 4; strength = 2; seed = 1789; max_iterations = 20_000;
      portfolio = 1 }

let attack_pf_racing =
  Job.Attack
    { scheme = Job.Pf; width = 4; strength = 2; seed = 1789; max_iterations = 20_000;
      portfolio = 4 }

let attack_rll =
  Job.Attack
    { scheme = Job.Rll; width = 4; strength = 4; seed = 1789; max_iterations = 20_000;
      portfolio = 1 }

(* A 6-layer permutation network, the lock class that dominates the
   perfbench attack workload, under that workload's 20k-conflict
   executor budget. This key falls in 6 DIPs within the budget; the
   recovered key and the DIP count follow the solver's search path,
   so a change to the search is likely to show here. *)
let attack_permnet =
  Job.Attack
    { scheme = Job.Permnet; width = 4; strength = 6; seed = 5; max_iterations = 20_000;
      portfolio = 1 }

let golden_tests =
  [
    Alcotest.test_case "list.txt" `Quick (golden_text "list.txt" Job.List_benchmarks);
    Alcotest.test_case "list.json" `Quick (golden_json "list.json" Job.List_benchmarks);
    Alcotest.test_case "show_dct.txt" `Quick
      (golden_text "show_dct.txt" (Job.Show { benchmark = "dct"; seed = 1789 }));
    Alcotest.test_case "bind_dct.txt" `Quick (golden_text "bind_dct.txt" bind_dct);
    Alcotest.test_case "bind_dct.json" `Quick (golden_json "bind_dct.json" bind_dct);
    Alcotest.test_case "bind_fir_area.json" `Quick (golden_json "bind_fir_area.json" bind_fir_area);
    Alcotest.test_case "bind_fft_obf.json" `Quick (golden_json "bind_fft_obf.json" bind_fft_obf);
    Alcotest.test_case "bind_jdmerge4_power.json" `Quick
      (golden_json "bind_jdmerge4_power.json" bind_jdmerge4_power);
    Alcotest.test_case "custom_fir.txt" `Quick (golden_text "custom_fir.txt" custom_fir);
    Alcotest.test_case "lint_dct.txt" `Quick (golden_text "lint_dct.txt" lint_dct);
    Alcotest.test_case "lint_dct.json" `Quick (golden_json "lint_dct.json" lint_dct);
    Alcotest.test_case "lint_suite.json" `Quick (golden_json "lint_suite.json" lint_suite);
    Alcotest.test_case "analyze_pf.txt" `Quick (golden_text "analyze_pf.txt" analyze_pf);
    Alcotest.test_case "analyze_pf.json" `Quick (golden_json "analyze_pf.json" analyze_pf);
    Alcotest.test_case "analyze_all.json" `Quick (golden_json "analyze_all.json" analyze_all);
    Alcotest.test_case "export_cnf_pf.txt" `Quick (golden_text "export_cnf_pf.txt" export_cnf_pf);
    Alcotest.test_case "export_cnf_permnet.txt" `Quick
      (golden_text "export_cnf_permnet.txt" export_cnf_permnet);
    Alcotest.test_case "attack_pf.txt" `Quick (golden_text "attack_pf.txt" attack_pf);
    Alcotest.test_case "attack_pf.json" `Quick (golden_json "attack_pf.json" attack_pf);
    Alcotest.test_case "attack_pf.json at portfolio 4" `Quick
      (golden_json "attack_pf.json" attack_pf_racing);
    Alcotest.test_case "attack_rll.json" `Quick (golden_json "attack_rll.json" attack_rll);
    Alcotest.test_case "attack_permnet.json" `Quick
      (golden_json ~limit:(Rb_util.Limits.conflicts 20_000) "attack_permnet.json"
         attack_permnet);
    Alcotest.test_case "export_dfg_dct.txt" `Quick
      (golden_text "export_dfg_dct.txt" (Job.Export_dfg { benchmark = "dct" }));
    Alcotest.test_case "dot_fir.txt" `Quick
      (golden_text "dot_fir.txt" (Job.Dot { benchmark = "fir" }));
  ]

let () =
  Alcotest.run "rb_service"
    [
      ( "job",
        [
          Alcotest.test_case "decode defaults" `Quick test_job_defaults;
          Alcotest.test_case "envelope fields ignored" `Quick test_job_envelope_ignored;
          Alcotest.test_case "validation errors" `Quick test_job_validation;
          Alcotest.test_case "content address" `Quick test_job_digest;
          Alcotest.test_case "attack digest ignores portfolio" `Quick
            test_attack_digest_ignores_portfolio;
          Alcotest.test_case "antisat analyze digest ignores strength" `Quick
            test_antisat_analyze_digest_ignores_strength;
        ] );
      ( "store",
        [
          Alcotest.test_case "single flight" `Quick test_store_single_flight;
          Alcotest.test_case "failure not cached" `Quick test_store_failure_not_cached;
          Alcotest.test_case "concurrent single flight" `Quick
            test_store_concurrent_single_flight;
          Alcotest.test_case "lru eviction" `Quick test_store_lru_eviction;
        ] );
      ( "executor",
        [
          Alcotest.test_case "cache determinism" `Quick test_executor_cache_determinism;
          Alcotest.test_case "a bind job leaves exactly one store entry" `Quick
            test_executor_one_entry_per_job;
          Alcotest.test_case "structured errors" `Quick test_executor_errors;
          Alcotest.test_case "rll over strength is infeasible" `Quick
            test_executor_rll_over_strength;
          Alcotest.test_case "infeasible locking shapes" `Quick test_infeasible_locking_shapes;
          Alcotest.test_case "pf locks exactly strength minterms" `Quick
            test_executor_pf_distinct_minterms;
          Alcotest.test_case "analyze all skips infeasible schemes" `Quick
            test_analyze_all_skips_infeasible;
          Alcotest.test_case "jobs invariance" `Quick test_executor_jobs_invariant;
          Alcotest.test_case "cache hit rate" `Quick test_executor_batch_cache_rate;
          Alcotest.test_case "deadline" `Quick test_executor_deadline;
          Alcotest.test_case "attack stopped mid-run" `Quick test_attack_stopped_mid_run;
          Alcotest.test_case "analyze truncation not cached" `Quick
            test_analyze_truncation_not_cached;
        ] );
      ( "serve",
        [
          Alcotest.test_case "respond" `Quick test_serve_respond;
          Alcotest.test_case "field order shares an address" `Quick
            test_serve_field_order_shares_address;
          Alcotest.test_case "pipe session" `Quick test_serve_run_pipe;
          Alcotest.test_case "deadline envelope" `Quick test_serve_deadline_envelope;
          Alcotest.test_case "admission gate" `Quick test_admission_gate;
          Alcotest.test_case "oversized line" `Quick test_serve_oversized_line;
          Alcotest.test_case "overload shedding" `Quick test_serve_overload_shedding;
          Alcotest.test_case "drain" `Quick test_serve_drain_pipe;
          Alcotest.test_case "concurrent socket clients" `Quick
            test_serve_socket_concurrent;
          Alcotest.test_case "connection fault isolation" `Quick
            test_serve_client_hangup_isolation;
        ] );
      ("golden", golden_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_job_roundtrip; qcheck_job_digest_stable;
            qcheck_store_eviction_single_flight; qcheck_wire_fuzz;
          ] );
    ]
