package tiv

// KeepTop offers x to kept: the at most k first elements, under the
// total order less, of the stream so far, held as a binary heap whose
// root kept[0] is the worst of them. Once k are kept an offer costs one
// comparison unless it displaces the root, and because the order is
// total the survivors are exactly the first k of a full sort whatever
// order the stream arrives in; sort kept when it ends. Both served
// rankings select through it, edges here and selections in tivaware,
// and each first rejects an element that does not beat the full
// heap's root on its ranking key, so only entrants are built and
// offered.
func KeepTop[T any](kept []T, k int, x T, less func(a, b T) bool) []T {
	i := len(kept)
	if i < k {
		kept = append(kept, x)
		for ; i > 0 && less(kept[(i-1)/2], x); i = (i - 1) / 2 {
			kept[i] = kept[(i-1)/2]
		}
		kept[i] = x
		return kept
	}
	if k <= 0 || !less(x, kept[0]) {
		return kept
	}
	i = 0
	for c := 1; c < k; c = 2*i + 1 {
		if c+1 < k && less(kept[c], kept[c+1]) {
			c++ // descend towards the worse child
		}
		if !less(x, kept[c]) {
			break
		}
		kept[i] = kept[c]
		i = c
	}
	kept[i] = x
	return kept
}
