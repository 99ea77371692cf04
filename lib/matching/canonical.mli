(** Canonical tie-breaking over the optimal face of an assignment.

    Given any optimal assignment of a dense cost matrix together with
    dual potentials meeting the {!Hungarian.solve_with_duals}
    contract, {!lex_min} returns the lexicographically smallest
    optimal assignment — a representative that depends only on the
    matrix, not on which optimum (or which valid dual) the solver
    produced, because the optimal face is exactly the row-perfect
    matchings on tight cells that keep every negative-dual column
    covered. See DESIGN.md §14. *)

val lex_min :
  float array array ->
  assignment:int array ->
  row_duals:float array ->
  col_duals:float array ->
  int array
(** O(rows · tight cells) per attempted move in the worst case;
    near-free when optima are untied. Exact for integer-grid weights;
    uses a relative 1e-9 slack tolerance on arbitrary floats. *)
