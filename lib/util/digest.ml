let string s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)
