module Rng = Rb_util.Rng
module Combi = Rb_util.Combi
module Stats = Rb_util.Stats
module Table = Rb_util.Table
module Pool = Rb_util.Pool
module Json = Rb_util.Json
module Metrics = Rb_util.Metrics
module Bench_diff = Rb_util.Bench_diff
module Limits = Rb_util.Limits
module Faults = Rb_util.Faults
module Veci = Rb_util.Veci

let check_float = Alcotest.(check (float 1e-9))

(* ----------------------------------------------------------------- Veci *)

let test_veci_push_get_pop () =
  let v = Veci.create () in
  Alcotest.(check int) "empty" 0 (Veci.length v);
  for i = 0 to 99 do
    Veci.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Veci.length v);
  Alcotest.(check int) "get" 49 (Veci.get v 7);
  Veci.set v 7 (-1);
  Alcotest.(check int) "set" (-1) (Veci.get v 7);
  Alcotest.(check int) "pop returns last" (99 * 99) (Veci.pop v);
  Alcotest.(check int) "pop shrinks" 99 (Veci.length v)

let test_veci_growth_past_capacity () =
  (* Push far beyond the default capacity; every element must survive
     the reallocation chain. *)
  let v = Veci.create ~cap:1 () in
  for i = 0 to 9_999 do
    Veci.push v i
  done;
  let ok = ref true in
  for i = 0 to 9_999 do
    if Veci.get v i <> i then ok := false
  done;
  Alcotest.(check bool) "contents preserved across growth" true !ok

let test_veci_truncate_clear () =
  let v = Veci.of_list [ 1; 2; 3; 4; 5 ] in
  Veci.truncate v 2;
  Alcotest.(check (list int)) "truncated" [ 1; 2 ] (Veci.to_list v);
  Veci.push v 9;
  Alcotest.(check (list int)) "push after truncate" [ 1; 2; 9 ] (Veci.to_list v);
  Veci.clear v;
  Alcotest.(check int) "cleared" 0 (Veci.length v)

let test_veci_swap_remove () =
  let v = Veci.of_list [ 10; 20; 30; 40 ] in
  Veci.swap_remove v 1;
  (* last element fills the hole; order is not preserved *)
  Alcotest.(check (list int)) "hole filled by last" [ 10; 40; 30 ] (Veci.to_list v);
  Veci.swap_remove v 2;
  Alcotest.(check (list int)) "removing last is a plain pop" [ 10; 40 ]
    (Veci.to_list v)

let test_veci_conversions_iter_exists () =
  let v = Veci.of_list [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (array int)) "to_array" [| 3; 1; 4; 1; 5 |] (Veci.to_array v);
  let sum = ref 0 in
  Veci.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter visits all" 14 !sum;
  Alcotest.(check bool) "exists hit" true (Veci.exists (fun x -> x = 4) v);
  Alcotest.(check bool) "exists miss" false (Veci.exists (fun x -> x = 9) v);
  (* to_array is a copy: mutating it must not touch the vector *)
  (Veci.to_array v).(0) <- 99;
  Alcotest.(check int) "to_array copies" 3 (Veci.get v 0)

let test_veci_bounds_checked () =
  let v = Veci.of_list [ 1; 2 ] in
  let raises name f =
    Alcotest.check_raises name (Invalid_argument name) (fun () -> f ())
  in
  raises "Veci.get" (fun () -> ignore (Veci.get v 2));
  raises "Veci.get" (fun () -> ignore (Veci.get v (-1)));
  raises "Veci.set" (fun () -> Veci.set v 2 0);
  raises "Veci.truncate" (fun () -> Veci.truncate v 3);
  raises "Veci.swap_remove" (fun () -> Veci.swap_remove v 2);
  Veci.clear v;
  raises "Veci.pop" (fun () -> ignore (Veci.pop v));
  raises "Veci.create" (fun () -> ignore (Veci.create ~cap:(-1) ()))

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_in () =
  let rng = Rng.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 10 14 in
    Alcotest.(check bool) "bounds" true (v >= 10 && v <= 14);
    seen.(v - 10) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "split streams differ" true !differs

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 20_000 in
  let values = List.init n (fun _ -> Rng.gaussian rng ~mean:10.0 ~stdev:2.0) in
  let mean = Stats.mean values in
  let stdev = Stats.stdev values in
  Alcotest.(check bool) "mean near 10" true (abs_float (mean -. 10.0) < 0.1);
  Alcotest.(check bool) "stdev near 2" true (abs_float (stdev -. 2.0) < 0.1)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 17 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "multiset preserved" (Array.init 50 Fun.id) sorted;
  Alcotest.(check bool) "actually moved something" true (arr <> Array.init 50 Fun.id)

(* ---------------------------------------------------------------- Combi *)

let test_choose_values () =
  List.iter
    (fun (n, k, expect) -> Alcotest.(check int) (Printf.sprintf "C(%d,%d)" n k) expect (Combi.choose n k))
    [ (0, 0, 1); (5, 0, 1); (5, 5, 1); (5, 2, 10); (10, 3, 120); (10, 2, 45);
      (5, 6, 0); (5, -1, 0); (52, 5, 2598960) ]

let test_k_subsets_enumeration () =
  let subsets = Combi.k_subsets [| 1; 2; 3; 4 |] 2 in
  Alcotest.(check int) "count" 6 (List.length subsets);
  Alcotest.(check (list (array int)))
    "lexicographic order"
    [ [| 1; 2 |]; [| 1; 3 |]; [| 1; 4 |]; [| 2; 3 |]; [| 2; 4 |]; [| 3; 4 |] ]
    subsets

let test_k_subsets_edge_cases () =
  Alcotest.(check (list (array int))) "k=0" [ [||] ] (Combi.k_subsets [| 1; 2 |] 0);
  Alcotest.(check (list (array int))) "k=n" [ [| 1; 2 |] ] (Combi.k_subsets [| 1; 2 |] 2);
  Alcotest.(check (list (array int))) "k>n" [] (Combi.k_subsets [| 1; 2 |] 3)

let test_fold_k_subsets_matches_list () =
  let arr = Array.init 7 Fun.id in
  for k = 0 to 7 do
    let from_fold =
      Combi.fold_k_subsets arr k ~init:[] ~f:(fun acc s -> Array.copy s :: acc)
      |> List.rev
    in
    Alcotest.(check (list (array int)))
      (Printf.sprintf "k=%d" k) (Combi.k_subsets arr k) from_fold
  done

let test_cartesian_product () =
  Alcotest.(check (list (list int)))
    "2x2" [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (Combi.cartesian_product [ [ 1; 2 ]; [ 3; 4 ] ]);
  Alcotest.(check (list (list int))) "empty product" [ [] ] (Combi.cartesian_product []);
  Alcotest.(check (list (list int))) "empty factor" [] (Combi.cartesian_product [ [ 1 ]; [] ])

let test_fold_cartesian_matches_list () =
  let choices = [| [| 1; 2 |]; [| 3 |]; [| 4; 5; 6 |] |] in
  let tuples =
    Combi_ref.fold_cartesian choices ~init:[] ~f:(fun acc t -> Array.to_list t :: acc)
    |> List.rev
  in
  Alcotest.(check (list (list int)))
    "same as list product"
    (Combi.cartesian_product (Array.to_list (Array.map Array.to_list choices)))
    tuples

let test_product_size_saturates () =
  Alcotest.(check int) "normal" 24 (Combi.product_size [ 2; 3; 4 ]);
  Alcotest.(check int) "zero" 0 (Combi.product_size [ 5; 0 ]);
  Alcotest.(check int) "saturation" max_int
    (Combi.product_size [ max_int / 2; 3 ])

(* ---------------------------------------------------------------- Stats *)

let test_stats_basics () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean []);
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "stdev" 1.0 (Stats.stdev [ 1.0; 2.0; 3.0 ]);
  check_float "min" 1.0 (Stats.minimum [ 2.0; 1.0; 3.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 2.0; 1.0; 3.0 ])

let test_stats_ratio () =
  check_float "normal" 2.0 (Stats.ratio ~num:4.0 ~den:2.0);
  check_float "0/0" 1.0 (Stats.ratio ~num:0.0 ~den:0.0);
  Alcotest.(check bool) "x/0 infinite" true (Stats.ratio ~num:3.0 ~den:0.0 = infinity)

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

(* ---------------------------------------------------------------- Table *)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Table.add_row t ~label:"row1" ~values:[ 1.5; 2.25 ];
  Table.add_text_row t ~label:"row2" ~cells:[ "x"; "y" ];
  let s = Table.render t in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " present") true
        (contains ~affix:fragment s))
    [ "demo"; "row1"; "1.50"; "2.25"; "row2"; "x" ]

let test_table_mismatched_row () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Table.add_text_row: cell count mismatch")
    (fun () -> Table.add_row t ~label:"r" ~values:[ 1.0 ])

let test_log_bar () =
  Alcotest.(check string) "1x is empty" "" (Table.log_bar ~width:30 1.0);
  Alcotest.(check int) "1000x fills" 30 (String.length (Table.log_bar ~width:30 1000.0));
  Alcotest.(check int) "10x is a third" 10 (String.length (Table.log_bar ~width:30 10.0));
  Alcotest.(check string) "sub-1 clamps" "" (Table.log_bar ~width:30 0.5)

(* ----------------------------------------------------------------- Pool *)

let test_pool_map_matches_sequential () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let arr = Array.init 100 Fun.id in
      let f x = (x * x) + 1 in
      Alcotest.(check (array int))
        "map_array" (Array.map f arr)
        (Pool.map_array pool ~f arr);
      let l = List.init 57 Fun.id in
      Alcotest.(check (list int)) "map_list" (List.map f l) (Pool.map_list pool ~f l))

let test_pool_jobs_one_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs clamp" 1 (Pool.jobs pool);
      let self = Domain.self () in
      let domains =
        Pool.map_array pool ~f:(fun _ -> Domain.self ()) (Array.make 8 ())
      in
      Alcotest.(check bool) "ran in the calling domain" true
        (Array.for_all (fun d -> d = self) domains))

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "lowest index" (Failure "boom5") (fun () ->
          ignore
            (Pool.map_array pool
               ~f:(fun i -> if i = 5 || i = 9 then failwith (Printf.sprintf "boom%d" i) else i)
               (Array.init 12 Fun.id))))

let test_pool_usable_after_error () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (try
         ignore
           (Pool.map_array pool
              ~f:(fun i -> if i = 0 then failwith "first" else i)
              (Array.init 10 Fun.id))
       with Failure _ -> ());
      Alcotest.(check (array int))
        "pool still works" (Array.init 10 succ)
        (Pool.map_array pool ~f:succ (Array.init 10 Fun.id)))

let test_pool_nested_map () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let result =
        Pool.map_list pool
          ~f:(fun i ->
            Array.fold_left ( + ) 0
              (Pool.map_array pool ~f:(fun j -> (i * 10) + j) (Array.init 4 Fun.id)))
          [ 0; 1; 2 ]
      in
      Alcotest.(check (list int)) "nested totals" [ 6; 46; 86 ] result)

let test_pool_shutdown_rejects () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "rejects map"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map_array pool ~f:Fun.id [| 1 |]))

(* ----------------------------------------------------------------- Json *)

let test_json_render () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.String "x\"y");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Float 2.5 ]);
        ("d", Json.Float 1.0);
      ]
  in
  Alcotest.(check string) "compact render"
    {|{"a":1,"b":"x\"y","c":[true,null,2.5],"d":1.0}|}
    (Json.to_string v)

let test_json_nonfinite () =
  Alcotest.(check string) "inf as string" {|"inf"|}
    (Json.to_string (Json.float_or_string infinity));
  Alcotest.(check string) "nan as string" {|"nan"|}
    (Json.to_string (Json.float_or_string nan));
  Alcotest.(check string) "finite stays numeric" "2.0"
    (Json.to_string (Json.float_or_string 2.0));
  Alcotest.(check string) "raw non-finite Float is null" "null"
    (Json.to_string (Json.Float infinity))

let test_json_escaping () =
  Alcotest.(check string) "control characters"
    "\"a\\nb\\tc\\u0001\\\\\""
    (Json.to_string (Json.String "a\nb\tc\x01\\"));
  Alcotest.(check string) "carriage return"
    "\"x\\ry\""
    (Json.to_string (Json.String "x\ry"))

(* -------------------------------------------------------------- Metrics *)

(* Metrics state is process-global; each test runs against a freshly
   reset registry with the sink enabled, and restores the default
   (disabled) sink so the rest of the suite pays nothing. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    f

let counters_of prefix snap =
  List.filter (fun (k, _) -> String.starts_with ~prefix k) snap.Metrics.counters

let test_metrics_counter_basics () =
  with_metrics (fun () ->
      let c = Metrics.counter ~scope:"tm1" "events" in
      Metrics.incr c;
      Metrics.add c 41;
      Alcotest.(check int) "handle reads back" 42 (Metrics.counter_value c);
      Alcotest.(check int) "same key, same metric" 42
        (Metrics.counter_value (Metrics.counter ~scope:"tm1" "events"));
      Alcotest.(check (list (pair string int)))
        "snapshot row" [ ("tm1/events", 42) ]
        (counters_of "tm1/" (Metrics.snapshot ())))

let test_metrics_scope_isolation () =
  with_metrics (fun () ->
      let a = Metrics.counter ~scope:"tm2a" "hits" in
      let b = Metrics.counter ~scope:"tm2b" "hits" in
      Metrics.add a 3;
      Metrics.add b 7;
      Alcotest.(check int) "scope a untouched by b" 3 (Metrics.counter_value a);
      Alcotest.(check int) "scope b untouched by a" 7 (Metrics.counter_value b))

let test_metrics_kind_clash () =
  with_metrics (fun () ->
      ignore (Metrics.counter ~scope:"tm3" "x");
      Alcotest.(check bool) "gauge under a counter key rejected" true
        (match Metrics.gauge ~scope:"tm3" "x" with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_metrics_disabled_sink_free () =
  Metrics.reset ();
  Metrics.set_enabled false;
  let c = Metrics.counter ~scope:"tm4" "events" in
  let t = Metrics.timer ~scope:"tm4" "wall" in
  Metrics.incr c;
  Metrics.add c 100;
  Metrics.observe t 1.0;
  let ran = ref false in
  ignore (Metrics.time t (fun () -> ran := true; 5));
  Metrics.with_span "tm4span" (fun () -> ());
  Alcotest.(check bool) "thunk still runs when disabled" true !ran;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  let snap = Metrics.snapshot () in
  Alcotest.(check (list (pair string int)))
    "snapshot shows zero" [ ("tm4/events", 0) ] (counters_of "tm4/" snap);
  let dist = List.assoc "tm4/wall" snap.Metrics.timers in
  Alcotest.(check int) "timer empty" 0 dist.Metrics.count;
  Alcotest.(check bool) "span never recorded" true
    (Metrics.span_total snap "tm4span" = None)

let test_metrics_timer_dist () =
  with_metrics (fun () ->
      let t = Metrics.timer ~scope:"tm5" "obs" in
      List.iter (Metrics.observe t) [ 0.25; 1.0; 0.5 ];
      let snap = Metrics.snapshot () in
      let d = List.assoc "tm5/obs" snap.Metrics.timers in
      Alcotest.(check int) "count" 3 d.Metrics.count;
      check_float "total" 1.75 d.Metrics.total;
      check_float "min" 0.25 d.Metrics.min;
      check_float "max" 1.0 d.Metrics.max)

let test_metrics_span_nesting () =
  with_metrics (fun () ->
      Metrics.with_span "outer" (fun () ->
          Metrics.with_span "inner" (fun () -> ());
          Metrics.with_span "inner" (fun () -> ()));
      let snap = Metrics.snapshot () in
      Alcotest.(check bool) "outer recorded" true
        (Metrics.span_total snap "outer" <> None);
      let inner = List.assoc "outer/inner" snap.Metrics.spans in
      Alcotest.(check int) "inner nests under outer, twice" 2 inner.Metrics.count;
      Alcotest.(check bool) "no top-level inner" true
        (not (List.mem_assoc "inner" snap.Metrics.spans)))

let test_metrics_counter_deltas () =
  with_metrics (fun () ->
      let c = Metrics.counter ~scope:"tm6" "n" in
      let d = Metrics.counter ~scope:"tm6" "steady" in
      Metrics.add d 5;
      let before = Metrics.snapshot () in
      Metrics.add c 17;
      let after = Metrics.snapshot () in
      Alcotest.(check (list (pair string int)))
        "only moved counters appear" [ ("tm6/n", 17) ]
        (List.filter
           (fun (k, _) -> String.starts_with ~prefix:"tm6/" k)
           (Metrics.counter_deltas ~before ~after)))

(* The PR-level contract: counters count logical work, so fanning the
   same tasks over 1 or 4 workers must produce identical values. *)
let test_metrics_jobs_determinism () =
  let run jobs =
    with_metrics (fun () ->
        let c = Metrics.counter ~scope:"tm7" "work" in
        Pool.with_pool ~jobs (fun pool ->
            ignore
              (Pool.map_array pool
                 ~f:(fun i ->
                   Metrics.add c (i mod 7);
                   i)
                 (Array.init 200 Fun.id)));
        counters_of "tm7/" (Metrics.snapshot ())
        @ counters_of "pool/" (Metrics.snapshot ()))
  in
  Alcotest.(check (list (pair string int)))
    "jobs=1 = jobs=4 counters" (run 1) (run 4)

let test_metrics_json_roundtrip () =
  with_metrics (fun () ->
      let c = Metrics.counter ~scope:"tm8" "events" in
      let g = Metrics.gauge ~scope:"tm8" "level" in
      let t = Metrics.timer ~scope:"tm8" "wall" in
      Metrics.add c 123;
      Metrics.set_gauge g 2.5;
      Metrics.observe t 0.125;
      Metrics.with_span "tm8span" (fun () -> ());
      let rendered = Json.to_string (Metrics.to_json (Metrics.snapshot ())) in
      match Json.of_string rendered with
      | Error msg -> Alcotest.fail msg
      | Ok parsed ->
        Alcotest.(check string) "reparse is stable" rendered (Json.to_string parsed);
        let counters = Option.get (Json.member "counters" parsed) in
        Alcotest.(check bool) "counter value survives" true
          (Json.member "tm8/events" counters = Some (Json.Int 123)))

(* ----------------------------------------------------------- Bench_diff *)

let bench_doc sections =
  Json.Obj
    [
      ("schema", Json.String "rb-bench/1");
      ( "sections",
        Json.List
          (List.map
             (fun (name, wall, counters) ->
               Json.Obj
                 [
                   ("section", Json.String name);
                   ("wall_s", Json.Float wall);
                   ( "counters",
                     Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
                 ])
             sections) );
    ]

let diff ?wall_tol ?counter_tol ?allow_new a b =
  match
    Bench_diff.compare_docs ?wall_tol ?counter_tol ?allow_new ~baseline:a
      ~current:b ()
  with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let kinds r = List.map (fun v -> v.Bench_diff.kind) r.Bench_diff.violations

let test_diff_tolerance_pass () =
  let base = bench_doc [ ("fig6", 1.0, [ ("sat/solves", 10) ]) ] in
  let cur = bench_doc [ ("fig6", 1.4, [ ("sat/solves", 10) ]) ] in
  let r = diff ~wall_tol:0.5 base cur in
  Alcotest.(check int) "no violations" 0 (List.length r.Bench_diff.violations);
  Alcotest.(check int) "counters checked" 1 r.Bench_diff.counters_checked

let test_diff_wall_regression () =
  let base = bench_doc [ ("fig6", 1.0, []) ] in
  let cur = bench_doc [ ("fig6", 1.6, []) ] in
  Alcotest.(check bool) "above band fails" true
    (kinds (diff ~wall_tol:0.5 base cur) = [ Bench_diff.Wall_regression ]);
  Alcotest.(check int) "faster never fails" 0
    (List.length (diff ~wall_tol:0.0 cur base).Bench_diff.violations)

let test_diff_counter_regression () =
  let base = bench_doc [ ("fig6", 1.0, [ ("sim/op_evals", 1000) ]) ] in
  let cur = bench_doc [ ("fig6", 1.0, [ ("sim/op_evals", 1001) ]) ] in
  Alcotest.(check bool) "exact by default" true
    (kinds (diff base cur) = [ Bench_diff.Counter_drift ]);
  Alcotest.(check int) "within explicit tolerance passes" 0
    (List.length (diff ~counter_tol:0.01 base cur).Bench_diff.violations);
  (* Drift downward is a behaviour change too. *)
  Alcotest.(check bool) "downward drift also fails" true
    (kinds (diff cur base) = [ Bench_diff.Counter_drift ])

let test_diff_missing_metric () =
  let base =
    bench_doc [ ("fig6", 1.0, [ ("sat/solves", 10); ("sim/op_evals", 5) ]) ]
  in
  let cur = bench_doc [ ("fig6", 1.0, [ ("sat/solves", 10) ]) ] in
  Alcotest.(check bool) "dropped counter fails" true
    (kinds (diff base cur) = [ Bench_diff.Missing_counter ])

let test_diff_new_counter () =
  let base = bench_doc [ ("fig6", 1.0, [ ("sat/solves", 10) ]) ] in
  let cur =
    bench_doc [ ("fig6", 1.0, [ ("sat/solves", 10); ("faults/injected", 0) ]) ]
  in
  (* A counter absent from the baseline is a gate failure by default:
     either the baseline is stale or behaviour silently grew. *)
  Alcotest.(check bool) "new counter fails strict" true
    (kinds (diff base cur) = [ Bench_diff.New_counter ]);
  let r = diff ~allow_new:true base cur in
  Alcotest.(check int) "--allow-new demotes to a note" 0
    (List.length r.Bench_diff.violations);
  Alcotest.(check bool) "still reported as an addition" true
    (r.Bench_diff.additions <> [])

let test_diff_new_section_informational () =
  let base = bench_doc [ ("fig6", 1.0, []) ] in
  let cur = bench_doc [ ("fig6", 1.0, []); ("extra", 1.0, [ ("x/y", 1) ]) ] in
  let r = diff base cur in
  Alcotest.(check int) "whole new section never fails" 0
    (List.length r.Bench_diff.violations);
  Alcotest.(check bool) "noted as an addition" true (r.Bench_diff.additions <> [])

let test_diff_missing_section () =
  let base = bench_doc [ ("fig6", 1.0, []); ("quality", 1.0, []) ] in
  let cur = bench_doc [ ("fig6", 1.0, []) ] in
  Alcotest.(check bool) "dropped section fails" true
    (kinds (diff base cur) = [ Bench_diff.Missing_section ])

let test_diff_malformed () =
  Alcotest.(check bool) "shape error is Error, not a crash" true
    (match
       Bench_diff.compare_docs ~baseline:(Json.Obj []) ~current:(bench_doc []) ()
     with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------ Json parse *)

let test_json_parse_values () =
  List.iter
    (fun (input, expect) ->
      match Json.of_string input with
      | Ok v -> Alcotest.(check string) input expect (Json.to_string v)
      | Error msg -> Alcotest.fail (input ^ ": " ^ msg))
    [
      ("null", "null");
      (" true ", "true");
      ("-42", "-42");
      ("2.5", "2.5");
      ("1e3", "1000.0");
      ({|"aA\n"|}, {|"aA\n"|});
      ({|"😀"|}, "\"\xf0\x9f\x98\x80\"");
      ({|[1, [], {"a": 2}]|}, {|[1,[],{"a":2}]|});
      ({|{"x": 1, "y": [true, null]}|}, {|{"x":1,"y":[true,null]}|});
    ]

let test_json_parse_int_vs_float () =
  Alcotest.(check bool) "integer syntax is Int" true
    (Json.of_string "7" = Ok (Json.Int 7));
  Alcotest.(check bool) "decimal syntax is Float" true
    (Json.of_string "7.0" = Ok (Json.Float 7.0));
  Alcotest.(check bool) "exponent syntax is Float" true
    (Json.of_string "7e0" = Ok (Json.Float 7.0))

let test_json_parse_errors () =
  List.iter
    (fun input ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" input) true
        (match Json.of_string input with Error _ -> true | Ok _ -> false))
    [ ""; "{"; "[1,"; {|{"a" 1}|}; "tru"; "1 2"; {|"unterminated|};
      {|"\ud83d"|}; "[1,]"; "nan" ]

let nested_list depth =
  String.concat "" [ String.make depth '['; "1"; String.make depth ']' ]

let test_json_depth_limit () =
  (* The parser recurses per nesting level; the cap turns a potential
     stack overflow on adversarial input into a parse error. *)
  Alcotest.(check bool) "1000 levels parse" true
    (match Json.of_string (nested_list 1000) with Ok _ -> true | Error _ -> false);
  (match Json.of_string (nested_list 1001) with
  | Ok _ -> Alcotest.fail "1001 levels should be rejected"
  | Error msg ->
    Alcotest.(check bool) "error names the depth cap" true
      (contains ~affix:"nesting too deep" msg));
  (* Objects count against the same budget as arrays. *)
  let deep_obj depth =
    String.concat ""
      [ String.concat "" (List.init depth (fun _ -> {|{"a":|}));
        "1"; String.make depth '}' ]
  in
  Alcotest.(check bool) "deep objects rejected too" true
    (match Json.of_string (deep_obj 1500) with Error _ -> true | Ok _ -> false)

(* ---------------------------------------------------------- Json pretty *)

let test_json_pretty () =
  Alcotest.(check string) "scalars stay compact" "null" (Json.to_string_pretty Json.Null);
  Alcotest.(check string) "empty containers stay compact" "[]"
    (Json.to_string_pretty (Json.List []));
  Alcotest.(check string) "empty object" "{}" (Json.to_string_pretty (Json.Obj []));
  Alcotest.(check string) "two-space indent, one element per line"
    "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}"
    (Json.to_string_pretty
       (Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool true; Json.Null ]) ]));
  Alcotest.(check string) "strings escape as in to_string" "\"a\\n\""
    (Json.to_string_pretty (Json.String "a\n"));
  (* no trailing newline: callers add their own *)
  let s = Json.to_string_pretty (Json.List [ Json.Int 1 ]) in
  Alcotest.(check bool) "no trailing newline" false (String.length s > 0 && s.[String.length s - 1] = '\n')

(* --------------------------------------------------------------- Digest *)

let test_digest_string () =
  (* MD5 of the empty string is a published constant — pins both the
     algorithm and the lowercase-hex rendering. *)
  Alcotest.(check string) "md5 hex" "d41d8cd98f00b204e9800998ecf8427e"
    (Rb_util.Digest.string "");
  Alcotest.(check bool) "distinct inputs, distinct digests" true
    (Rb_util.Digest.string "a" <> Rb_util.Digest.string "b")

let test_digest_canonical () =
  let a =
    Json.Obj
      [ ("b", Json.Int 2); ("a", Json.Obj [ ("y", Json.Null); ("x", Json.Int 1) ]) ]
  in
  let b =
    Json.Obj
      [ ("a", Json.Obj [ ("x", Json.Int 1); ("y", Json.Null) ]); ("b", Json.Int 2) ]
  in
  Alcotest.(check string) "field order canonicalized away"
    (Rb_util.Digest.json a) (Rb_util.Digest.json b);
  Alcotest.(check string) "canonical renders sorted" {|{"a":{"x":1,"y":null},"b":2}|}
    (Json.to_string (Rb_util.Digest.canonical a));
  Alcotest.(check bool) "list order still matters" true
    (Rb_util.Digest.json (Json.List [ Json.Int 1; Json.Int 2 ])
    <> Rb_util.Digest.json (Json.List [ Json.Int 2; Json.Int 1 ]));
  Alcotest.(check bool) "values still matter" true
    (Rb_util.Digest.json a
    <> Rb_util.Digest.json (Json.Obj [ ("b", Json.Int 3); ("a", Json.Null) ]))

(* --------------------------------------------------------------- Limits *)

let reason =
  Alcotest.testable
    (fun fmt r -> Format.pp_print_string fmt (Limits.reason_label r))
    ( = )

let test_limits_none () =
  Alcotest.(check bool) "none is none" true (Limits.is_none Limits.none);
  Alcotest.(check bool) "conflicts is not none" false
    (Limits.is_none (Limits.conflicts 5));
  Alcotest.(check (option reason)) "none never trips" None
    (Limits.check Limits.none ~conflicts:max_int ~propagations:max_int)

let test_limits_budgets () =
  let l = Limits.make ~max_conflicts:10 ~max_propagations:100 () in
  Alcotest.(check (option reason)) "under budget" None
    (Limits.check l ~conflicts:9 ~propagations:99);
  Alcotest.(check (option reason)) "conflict budget trips at the bound"
    (Some Limits.Conflicts)
    (Limits.check l ~conflicts:10 ~propagations:0);
  Alcotest.(check (option reason)) "propagation budget trips"
    (Some Limits.Propagations)
    (Limits.check l ~conflicts:0 ~propagations:100);
  (* Fixed reporting order: conflicts win when both trip. *)
  Alcotest.(check (option reason)) "conflicts reported first"
    (Some Limits.Conflicts)
    (Limits.check l ~conflicts:10 ~propagations:100)

let test_limits_cancel () =
  let flag = Limits.new_cancel () in
  let l = Limits.make ~cancel:flag () in
  Alcotest.(check (option reason)) "unraised flag" None (Limits.interrupted l);
  Limits.cancel flag;
  Alcotest.(check bool) "flag observable" true (Limits.cancelled flag);
  Alcotest.(check (option reason)) "interrupted sees it"
    (Some Limits.Cancelled) (Limits.interrupted l);
  Alcotest.(check (option reason)) "check sees it too"
    (Some Limits.Cancelled) (Limits.check l ~conflicts:0 ~propagations:0)

let test_limits_with_cancel () =
  (* with_cancel layers a second flag over an existing limit: either
     flag interrupts, and the base limit's budgets keep counting. *)
  let base_flag = Limits.new_cancel () in
  let extra_flag = Limits.new_cancel () in
  let base = Limits.make ~max_conflicts:10 ~cancel:base_flag () in
  let layered = Limits.with_cancel base extra_flag in
  Alcotest.(check (option reason)) "no flag raised" None (Limits.interrupted layered);
  Alcotest.(check (option reason)) "budget survives layering"
    (Some Limits.Conflicts)
    (Limits.check layered ~conflicts:10 ~propagations:0);
  Limits.cancel extra_flag;
  Alcotest.(check (option reason)) "added flag interrupts"
    (Some Limits.Cancelled) (Limits.interrupted layered);
  Alcotest.(check (option reason)) "base limit unaffected by added flag" None
    (Limits.interrupted base);
  let two = Limits.with_cancel (Limits.with_cancel Limits.none base_flag) extra_flag in
  Alcotest.(check (option reason)) "any flag in the stack interrupts"
    (Some Limits.Cancelled) (Limits.interrupted two)

let test_limits_deadline () =
  let past = Limits.make ~deadline_s:0.0 () in
  Alcotest.(check (option reason)) "past deadline trips"
    (Some Limits.Deadline) (Limits.interrupted past);
  let future = Limits.make ~deadline_s:(Metrics.now_s () +. 3600.0) () in
  Alcotest.(check (option reason)) "future deadline does not" None
    (Limits.interrupted future);
  (* has_deadline distinguishes volatile (clock-dependent) limits from
     deterministic ones; with_deadline composes by min, so tightening
     can only shrink an existing deadline, never extend it. *)
  Alcotest.(check bool) "no deadline on none" false (Limits.has_deadline Limits.none);
  Alcotest.(check bool) "budget alone is deadline-free" false
    (Limits.has_deadline (Limits.conflicts 10));
  Alcotest.(check bool) "with_deadline sets one" true
    (Limits.has_deadline (Limits.with_deadline Limits.none 1.0));
  let tightened = Limits.with_deadline future (Metrics.now_s () -. 1.0) in
  Alcotest.(check (option reason)) "tightening wins over a laxer deadline"
    (Some Limits.Deadline) (Limits.interrupted tightened);
  let not_extended = Limits.with_deadline past 1e12 in
  Alcotest.(check (option reason)) "a laxer deadline cannot extend"
    (Some Limits.Deadline) (Limits.interrupted not_extended)

let counter_at key snap =
  match List.assoc_opt key snap.Metrics.counters with
  | Some v -> v
  | None -> Alcotest.fail (key ^ " not registered")

let test_limits_notes_counters () =
  with_metrics (fun () ->
      Limits.note Limits.Conflicts;
      Limits.note Limits.Propagations;
      Limits.note Limits.Deadline;
      Limits.note Limits.Cancelled;
      let snap = Metrics.snapshot () in
      Alcotest.(check int) "both deterministic reasons share one counter" 2
        (counter_at "limits/budget_exhausted" snap);
      Alcotest.(check int) "deadline" 1 (counter_at "limits/deadline_exceeded" snap);
      Alcotest.(check int) "cancelled" 1 (counter_at "limits/cancelled" snap))

(* --------------------------------------------------------- Share_buffer *)

let test_share_buffer_push_drain_order () =
  let b = Pool.Share_buffer.create ~capacity:8 in
  Alcotest.(check int) "capacity" 8 (Pool.Share_buffer.capacity b);
  List.iter (fun v -> assert (Pool.Share_buffer.push b v)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "drain in push order" [ 1; 2; 3 ]
    (Pool.Share_buffer.drain b);
  Alcotest.(check (list int)) "drain empties" [] (Pool.Share_buffer.drain b);
  (* Reusable after a drain: slots are reclaimed, not consumed. *)
  assert (Pool.Share_buffer.push b 42);
  Alcotest.(check (list int)) "next round sees new values" [ 42 ]
    (Pool.Share_buffer.drain b)

let test_share_buffer_drops_when_full () =
  let b = Pool.Share_buffer.create ~capacity:2 in
  Alcotest.(check bool) "first" true (Pool.Share_buffer.push b 1);
  Alcotest.(check bool) "second" true (Pool.Share_buffer.push b 2);
  Alcotest.(check bool) "overflow dropped" false (Pool.Share_buffer.push b 3);
  Alcotest.(check (list int)) "stored values survive the drop" [ 1; 2 ]
    (Pool.Share_buffer.drain b);
  Alcotest.(check bool) "space again after drain" true (Pool.Share_buffer.push b 4)

let test_share_buffer_invalid_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Share_buffer.create: capacity must be >= 1") (fun () ->
      ignore (Pool.Share_buffer.create ~capacity:0))

let test_share_buffer_concurrent_pushes () =
  (* Racing pushes from pool workers: every accepted value must appear
     exactly once in the drain — no slot may be lost or duplicated. *)
  let b = Pool.Share_buffer.create ~capacity:128 in
  Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Pool.map_array pool
           ~f:(fun i -> assert (Pool.Share_buffer.push b i))
           (Array.init 100 Fun.id)));
  let drained = List.sort compare (Pool.Share_buffer.drain b) in
  Alcotest.(check (list int)) "all pushes land once" (List.init 100 Fun.id) drained

(* --------------------------------------------------------------- Faults *)

let fault_config ?(rate = 1000) ?(sites = []) seed =
  Some { Faults.seed; rate_per_mille = rate; sites }

let test_faults_disabled_by_default () =
  Alcotest.(check bool) "off outside with_config" true
    (Faults.config () = None || Sys.getenv_opt "RB_FAULT_SEED" <> None);
  Faults.with_config None (fun () ->
      Alcotest.(check bool) "never fires when off" false
        (Faults.fire ~site:"pool/task" ~key:"0");
      Faults.inject ~site:"pool/task" ~key:"0" (* must not raise *))

let test_faults_deterministic () =
  Faults.with_config (fault_config ~rate:500 11) (fun () ->
      let decisions () =
        List.init 64 (fun i -> Faults.fire ~site:"pool/task" ~key:(string_of_int i))
      in
      let first = decisions () in
      Alcotest.(check (list bool)) "same config, same decisions" first
        (decisions ());
      Alcotest.(check bool) "rate 500 fires somewhere" true
        (List.mem true first);
      Alcotest.(check bool) "rate 500 spares somewhere" true
        (List.mem false first));
  let at seed =
    Faults.with_config (fault_config ~rate:500 seed) (fun () ->
        List.init 64 (fun i -> Faults.fire ~site:"pool/task" ~key:(string_of_int i)))
  in
  Alcotest.(check bool) "seed changes the decisions" true (at 11 <> at 12)

let test_faults_rate_extremes () =
  Faults.with_config (fault_config ~rate:0 7) (fun () ->
      Alcotest.(check bool) "rate 0 never fires" false
        (List.init 32 (fun i -> Faults.fire ~site:"s" ~key:(string_of_int i))
        |> List.mem true));
  Faults.with_config (fault_config ~rate:1000 7) (fun () ->
      Alcotest.(check bool) "rate 1000 always fires" true
        (List.init 32 (fun i -> Faults.fire ~site:"s" ~key:(string_of_int i))
        |> List.for_all Fun.id))

let test_faults_site_filter () =
  Faults.with_config (fault_config ~rate:1000 ~sites:[ "pool/task" ] 3) (fun () ->
      Alcotest.(check bool) "listed site fires" true
        (Faults.fire ~site:"pool/task" ~key:"k");
      Alcotest.(check bool) "other sites stay quiet" false
        (Faults.fire ~site:"sat/budget" ~key:"k"))

let test_faults_inject_payload () =
  Faults.with_config (fault_config ~rate:1000 5) (fun () ->
      Alcotest.check_raises "payload is site:key"
        (Faults.Injected "pool/task:17") (fun () ->
          Faults.inject ~site:"pool/task" ~key:"17"))

let test_faults_with_config_restores () =
  let outer = fault_config 1 in
  Faults.with_config outer (fun () ->
      (try Faults.with_config (fault_config 2) (fun () -> failwith "boom")
       with Failure _ -> ());
      Alcotest.(check bool) "restored after exception" true
        (Faults.config () = outer));
  ignore (Faults.with_config None (fun () -> ()))

(* --------------------------------------------------------------- QCheck *)

let qcheck_choose_symmetry =
  QCheck2.Test.make ~name:"choose n k = choose n (n-k)" ~count:200
    QCheck2.Gen.(pair (int_range 0 30) (int_range 0 30))
    (fun (n, k) -> Combi.choose n k = Combi.choose n (n - k) || k > n)

let qcheck_k_subsets_count =
  QCheck2.Test.make ~name:"|k_subsets| = choose n k" ~count:50
    QCheck2.Gen.(pair (int_range 0 9) (int_range 0 9))
    (fun (n, k) ->
      let arr = Array.init n Fun.id in
      List.length (Combi.k_subsets arr k) = Combi.choose n k)

let qcheck_rng_int_bounds =
  QCheck2.Test.make ~name:"Rng.int in bounds" ~count:500
    QCheck2.Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let qcheck_shuffle_multiset =
  QCheck2.Test.make ~name:"shuffle preserves elements" ~count:100
    QCheck2.Gen.(pair int (list_size (int_range 0 40) small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let arr = Array.of_list l in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let qcheck_pool_exactly_once =
  QCheck2.Test.make ~name:"Pool.map runs each task exactly once, in order" ~count:30
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 200))
    (fun (jobs, n) ->
      Pool.with_pool ~jobs (fun pool ->
          let counters = Array.init n (fun _ -> Atomic.make 0) in
          let results =
            Pool.map_array pool
              ~f:(fun i ->
                Atomic.incr counters.(i);
                i * 3)
              (Array.init n Fun.id)
          in
          Array.for_all (fun c -> Atomic.get c = 1) counters
          && results = Array.init n (fun i -> i * 3)))

let qcheck_pool_matches_list_map =
  QCheck2.Test.make ~name:"Pool.map_list = List.map" ~count:30
    QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 0 60) small_int))
    (fun (jobs, l) ->
      Pool.with_pool ~jobs (fun pool ->
          Pool.map_list pool ~f:(fun x -> (2 * x) - 1) l
          = List.map (fun x -> (2 * x) - 1) l))

let qcheck_pool_exception_cleanup =
  QCheck2.Test.make ~name:"failed Pool.map leaves the pool serviceable" ~count:20
    QCheck2.Gen.(pair (int_range 1 4) (int_range 1 50))
    (fun (jobs, n) ->
      Pool.with_pool ~jobs (fun pool ->
          let raised =
            try
              ignore
                (Pool.map_array pool
                   ~f:(fun i -> if i mod 3 = 0 then failwith "task" else i)
                   (Array.init n Fun.id));
              false
            with Failure msg -> msg = "task"
          in
          raised
          && Pool.map_list pool ~f:succ (List.init n Fun.id)
             = List.init n (fun i -> i + 1)))

(* Float-free Json values: Int/String/Bool/Null survive a print/parse
   cycle exactly, so the round-trip can demand structural equality. *)
let json_value_gen =
  let open QCheck2.Gen in
  let key = string_size ~gen:printable (int_range 0 6) in
  sized @@ fix (fun self n ->
      let scalar =
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) int;
            map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 8));
          ]
      in
      if n <= 0 then scalar
      else
        oneof
          [
            scalar;
            map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2)));
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_range 0 4) (pair key (self (n / 2))));
          ])

let qcheck_json_roundtrip =
  QCheck2.Test.make ~name:"Json.of_string inverts to_string (float-free)"
    ~count:200 json_value_gen
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

let qcheck_json_pretty_roundtrip =
  QCheck2.Test.make ~name:"Json.of_string inverts to_string_pretty (float-free)"
    ~count:200 json_value_gen
    (fun v -> Json.of_string (Json.to_string_pretty v) = Ok v)

let qcheck_digest_canonical =
  QCheck2.Test.make ~name:"Digest.json invariant under object-field shuffles"
    ~count:200
    QCheck2.Gen.(pair json_value_gen (int_range 0 1000))
    (fun (v, salt) ->
      (* Rotate the fields of every object by [salt] — a cheap deterministic
         shuffle — and check the digest does not move. *)
      let rotate = function
        | [] -> []
        | l ->
            let k = salt mod List.length l in
            List.filteri (fun i _ -> i >= k) l
            @ List.filteri (fun i _ -> i < k) l
      in
      (* Duplicate keys make canonical order depend on input order, so drop
         them (keep the first occurrence) before shuffling. *)
      let rec dedup seen = function
        | [] -> []
        | (k, _) :: rest when List.mem k seen -> dedup seen rest
        | (k, v) :: rest -> (k, v) :: dedup (k :: seen) rest
      in
      let rec map_objs f = function
        | Json.Obj kvs ->
            Json.Obj (f (List.map (fun (k, v) -> (k, map_objs f v)) kvs))
        | Json.List l -> Json.List (List.map (map_objs f) l)
        | v -> v
      in
      let v = map_objs (dedup []) v in
      Rb_util.Digest.json v = Rb_util.Digest.json (map_objs rotate v))

let qcheck_metrics_jobs_invariant =
  QCheck2.Test.make ~name:"counter totals invariant across jobs" ~count:20
    QCheck2.Gen.(pair (int_range 1 4) (int_range 0 120))
    (fun (jobs, n) ->
      let run jobs =
        with_metrics (fun () ->
            let c = Metrics.counter ~scope:"tmq" "work" in
            Pool.with_pool ~jobs (fun pool ->
                ignore
                  (Pool.map_array pool
                     ~f:(fun i ->
                       Metrics.add c (1 + (i mod 5));
                       i)
                     (Array.init n Fun.id)));
            Metrics.counter_value c)
      in
      run jobs = run 1)

let () =
  Alcotest.run "rb_util"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_pool_map_matches_sequential;
          Alcotest.test_case "jobs=1 runs inline" `Quick test_pool_jobs_one_inline;
          Alcotest.test_case "lowest-index error wins" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "usable after a failed map" `Quick
            test_pool_usable_after_error;
          Alcotest.test_case "nested map runs inline" `Quick test_pool_nested_map;
          Alcotest.test_case "shutdown rejects further maps" `Quick
            test_pool_shutdown_rejects;
        ] );
      ( "veci",
        [
          Alcotest.test_case "push/get/pop" `Quick test_veci_push_get_pop;
          Alcotest.test_case "growth" `Quick test_veci_growth_past_capacity;
          Alcotest.test_case "truncate/clear" `Quick test_veci_truncate_clear;
          Alcotest.test_case "swap_remove" `Quick test_veci_swap_remove;
          Alcotest.test_case "conversions" `Quick test_veci_conversions_iter_exists;
          Alcotest.test_case "bounds checks" `Quick test_veci_bounds_checked;
        ] );
      ( "json",
        [
          Alcotest.test_case "render" `Quick test_json_render;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "string escaping" `Quick test_json_escaping;
          Alcotest.test_case "parse values" `Quick test_json_parse_values;
          Alcotest.test_case "parse int vs float" `Quick
            test_json_parse_int_vs_float;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "nesting depth cap" `Quick test_json_depth_limit;
          Alcotest.test_case "pretty render" `Quick test_json_pretty;
        ] );
      ( "digest",
        [
          Alcotest.test_case "string digest" `Quick test_digest_string;
          Alcotest.test_case "canonical json" `Quick test_digest_canonical;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_metrics_counter_basics;
          Alcotest.test_case "scope isolation" `Quick test_metrics_scope_isolation;
          Alcotest.test_case "kind clash rejected" `Quick test_metrics_kind_clash;
          Alcotest.test_case "disabled sink is free" `Quick
            test_metrics_disabled_sink_free;
          Alcotest.test_case "timer distribution" `Quick test_metrics_timer_dist;
          Alcotest.test_case "span nesting" `Quick test_metrics_span_nesting;
          Alcotest.test_case "counter deltas" `Quick test_metrics_counter_deltas;
          Alcotest.test_case "jobs determinism" `Quick
            test_metrics_jobs_determinism;
          Alcotest.test_case "json round-trip" `Quick test_metrics_json_roundtrip;
        ] );
      ( "bench_diff",
        [
          Alcotest.test_case "within tolerance passes" `Quick
            test_diff_tolerance_pass;
          Alcotest.test_case "wall regression fails" `Quick
            test_diff_wall_regression;
          Alcotest.test_case "counter drift fails" `Quick
            test_diff_counter_regression;
          Alcotest.test_case "missing counter fails" `Quick
            test_diff_missing_metric;
          Alcotest.test_case "missing section fails" `Quick
            test_diff_missing_section;
          Alcotest.test_case "malformed doc is an error" `Quick
            test_diff_malformed;
          Alcotest.test_case "new counter strict vs --allow-new" `Quick
            test_diff_new_counter;
          Alcotest.test_case "new section is informational" `Quick
            test_diff_new_section_informational;
        ] );
      ( "limits",
        [
          Alcotest.test_case "none" `Quick test_limits_none;
          Alcotest.test_case "budgets" `Quick test_limits_budgets;
          Alcotest.test_case "cancel flag" `Quick test_limits_cancel;
          Alcotest.test_case "with_cancel layers flags" `Quick
            test_limits_with_cancel;
          Alcotest.test_case "deadline" `Quick test_limits_deadline;
          Alcotest.test_case "note counters" `Quick test_limits_notes_counters;
        ] );
      ( "share_buffer",
        [
          Alcotest.test_case "push/drain order" `Quick
            test_share_buffer_push_drain_order;
          Alcotest.test_case "drop when full" `Quick
            test_share_buffer_drops_when_full;
          Alcotest.test_case "capacity validated" `Quick
            test_share_buffer_invalid_capacity;
          Alcotest.test_case "concurrent pushes" `Quick
            test_share_buffer_concurrent_pushes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "disabled by default" `Quick
            test_faults_disabled_by_default;
          Alcotest.test_case "deterministic decisions" `Quick
            test_faults_deterministic;
          Alcotest.test_case "rate extremes" `Quick test_faults_rate_extremes;
          Alcotest.test_case "site filter" `Quick test_faults_site_filter;
          Alcotest.test_case "inject payload" `Quick test_faults_inject_payload;
          Alcotest.test_case "with_config restores" `Quick
            test_faults_with_config_restores;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "combi",
        [
          Alcotest.test_case "choose values" `Quick test_choose_values;
          Alcotest.test_case "k_subsets enumeration" `Quick test_k_subsets_enumeration;
          Alcotest.test_case "k_subsets edges" `Quick test_k_subsets_edge_cases;
          Alcotest.test_case "fold matches list" `Quick test_fold_k_subsets_matches_list;
          Alcotest.test_case "cartesian product" `Quick test_cartesian_product;
          Alcotest.test_case "fold_cartesian matches" `Quick test_fold_cartesian_matches_list;
          Alcotest.test_case "product_size saturates" `Quick test_product_size_saturates;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "ratio" `Quick test_stats_ratio;
          Alcotest.test_case "geomean domain" `Quick test_geomean_rejects_nonpositive;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "mismatched row" `Quick test_table_mismatched_row;
          Alcotest.test_case "log bar" `Quick test_log_bar;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_choose_symmetry; qcheck_k_subsets_count; qcheck_rng_int_bounds;
            qcheck_shuffle_multiset; qcheck_pool_exactly_once;
            qcheck_pool_matches_list_map; qcheck_pool_exception_cleanup;
            qcheck_json_roundtrip; qcheck_json_pretty_roundtrip;
            qcheck_digest_canonical; qcheck_metrics_jobs_invariant ] );
    ]
