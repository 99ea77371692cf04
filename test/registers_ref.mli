(** The original register-count model, retained as a differential
    oracle for {!Rb_hls.Registers.count}: it recounts every bank's live
    values at every cycle boundary, O(FUs x cycles x values), where the
    library sweeps one difference array per bank. *)

val count : Rb_hls.Binding.t -> int
