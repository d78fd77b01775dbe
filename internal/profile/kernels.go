package profile

// The comparison kernels. They take prebuilt Profiles, allocate nothing
// per call, and reproduce the exact arithmetic of the classic
// string-based implementations so the strsim wrappers stay
// bit-identical. Every kernel panics when its operands were built
// against different interners — their token IDs would be incomparable.

// sameInterner guards against mixing profiles from different interners.
func sameInterner(a, b *Profile) {
	if a.in != b.in {
		panic("profile: comparing profiles from different interners")
	}
}

// intersectCount returns |a ∩ b| for two ascending ID slices.
func intersectCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Jaccard returns the Jaccard similarity of the token sets:
// |A ∩ B| / |A ∪ B|, with two tokenless profiles scoring 1.
func Jaccard(a, b *Profile) float64 {
	sameInterner(a, b)
	if len(a.tokens) == 0 && len(b.tokens) == 0 {
		return 1
	}
	inter := intersectCount(a.tokens, b.tokens)
	union := len(a.tokens) + len(b.tokens) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
