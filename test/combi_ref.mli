(** The cartesian-product fold the co-design search used before
    {!Rb_core.Obf_binding.Fast.fold_product} replaced it, kept as the
    reference enumeration order the fast path must reproduce. *)

val fold_cartesian : 'a array array -> init:'b -> f:('b -> 'a array -> 'b) -> 'b
(** [fold_cartesian choices ~init ~f] folds [f] over every tuple of the
    product [choices.(0) x choices.(1) x ...], last position fastest,
    without materializing the product. The tuple array passed to [f] is
    reused and must not be retained. *)
