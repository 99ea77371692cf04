(* A no-op kept for the end-to-end benchmark driver, which calls it;
   see matchers.mli. *)
let ensure_registered () = ()
