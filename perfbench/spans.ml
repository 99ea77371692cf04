(* Bench-side tracing: spans the benchmark records around its own calls
   into the library layers (the library itself carries no spans).

   A span has a name (the layer call, e.g. "core.sweep"), a start and an
   end on the monotonic clock, the span that caused it and the id of
   the request it belongs to. Spans are kept in memory and written once,
   when the run ends. Per-layer totals and self times (duration minus
   the time covered by child spans) are aggregated as spans close, so
   they stay exact after the cap on kept spans is reached. Disabled, a
   span costs one atomic read. *)

module Json = Rb_util.Json
module Metrics = Rb_util.Metrics

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request id, -1 when the span belongs to none *)
  start : float;
  mutable children : float;  (** seconds covered by closed child spans *)
}

type handle = span option

type layer = { mutable count : int; mutable total : float; mutable self : float }

let max_kept = 20_000
let on = Atomic.make false
let mutex = Mutex.create ()
let next_id = ref 0
let kept = ref []
let n_kept = ref 0
let dropped = ref 0
let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let epoch = Metrics.now_s ()

let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let with_lock f =
  Mutex.lock mutex;
  match f () with
  | v ->
    Mutex.unlock mutex;
    v
  | exception e ->
    Mutex.unlock mutex;
    raise e

let open_span parent req name start =
  let id =
    with_lock (fun () ->
        incr next_id;
        !next_id)
  in
  let parent_id, req =
    match parent with
    | Some p -> (p.id, if req < 0 then p.req else req)
    | None -> (0, req)
  in
  { id; name; parent = parent_id; req; start; children = 0.0 }

let close parent sp stop =
  let dur = stop -. sp.start in
  with_lock (fun () ->
      (match parent with Some p -> p.children <- p.children +. dur | None -> ());
      let l =
        match Hashtbl.find_opt layers sp.name with
        | Some l -> l
        | None ->
          let l = { count = 0; total = 0.0; self = 0.0 } in
          Hashtbl.add layers sp.name l;
          l
      in
      l.count <- l.count + 1;
      l.total <- l.total +. dur;
      l.self <- l.self +. (dur -. sp.children);
      if !n_kept < max_kept then begin
        kept := (sp, stop) :: !kept;
        incr n_kept
      end
      else incr dropped)

let with_span ?(parent = None) ?(req = -1) name f =
  if not (enabled ()) then f None
  else begin
    let sp = open_span parent req name (Metrics.now_s ()) in
    match f (Some sp) with
    | v ->
      close parent sp (Metrics.now_s ());
      v
    | exception e ->
      close parent sp (Metrics.now_s ());
      raise e
  end

let record ?(parent = None) ?(req = -1) name ~start ~stop =
  if enabled () then close parent (open_span parent req name start) stop

(* Seconds spent in spans of this name so far. *)
let total name =
  with_lock (fun () ->
      match Hashtbl.find_opt layers name with Some l -> l.total | None -> 0.0)

let us t = Json.Int (int_of_float (Float.round ((t -. epoch) *. 1e6)))

let to_json ~meta =
  with_lock (fun () ->
      let layer_list =
        Hashtbl.fold (fun name l acc -> (name, l) :: acc) layers []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let span_json (sp, stop) =
        Json.Obj
          [
            ("id", Json.Int sp.id);
            ("name", Json.String sp.name);
            ("parent", if sp.parent = 0 then Json.Null else Json.Int sp.parent);
            ("req", if sp.req < 0 then Json.Null else Json.Int sp.req);
            ("start_us", us sp.start);
            ("end_us", us stop);
          ]
      in
      Json.Obj
        (("schema", Json.String "rb-spans/1")
         :: meta
        @ [
            ( "layers",
              Json.Obj
                (List.map
                   (fun (name, l) ->
                     ( name,
                       Json.Obj
                         [
                           ("count", Json.Int l.count);
                           ("total_s", Json.Float l.total);
                           ("self_s", Json.Float l.self);
                         ] ))
                   layer_list) );
            ("dropped_spans", Json.Int !dropped);
            ("spans", Json.List (List.rev_map span_json !kept));
          ]))
