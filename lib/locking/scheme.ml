type t = Sfll_rem

let name = function Sfll_rem -> "SFLL-rem"

let key_bits t ~minterms ~input_bits = match t with Sfll_rem -> minterms * input_bits

let pp fmt t = Format.pp_print_string fmt (name t)
