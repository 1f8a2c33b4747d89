package stats

// Fingerprint hashes an ordered sequence of strings into a stable 64-bit
// key using the same Mix chain that derives RNG streams. It is the
// identity function for campaign configurations: two configs with the
// same fingerprint produce the same dataset, which is what lets a resumed
// campaign prove it is continuing the run it thinks it is.
//
// The encoding is length-prefixed per part, so Fingerprint("ab") and
// Fingerprint("a", "b") differ, as do permutations of the same parts.
func Fingerprint(parts ...string) uint64 {
	key := Mix(0x46696e6765727072, uint64(len(parts))) // "Fingerpr" domain tag
	for _, p := range parts {
		key = Mix(key, uint64(len(p)))
		var chunk uint64
		n := 0
		for i := 0; i < len(p); i++ {
			chunk = chunk<<8 | uint64(p[i])
			n++
			if n == 8 {
				key = Mix(key, chunk)
				chunk, n = 0, 0
			}
		}
		if n > 0 {
			key = Mix(key, chunk)
		}
	}
	return key
}

// HashString is 64-bit FNV-1a over s's bytes: the stable key the
// simulation derives from carrier names and client identifiers.
func HashString(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}
